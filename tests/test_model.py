import dataclasses

import numpy as np
import pytest

from hsimae import hsidata, masking, model, tokenizer, training
from hsimae import tensorcore as tc


def _cube(h=27, w=27, b=24, seed=0):
    return hsidata.gen_synthetic(h, w, b, n_classes=3, seed=seed)


def _setup(config=None, seed=0, rho=0.5):
    config = config or model.micro_config()
    cube, _ = hsidata.normalize(_cube(seed=seed))
    grid = tokenizer.partition(cube)
    params = model.init_params(config, grid.P, grid.Q, grid.K, 3, seed=seed)
    plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K, rho, rho, seed=seed)
    return cube, grid, params, plan


class TestInitParams:
    def test_deterministic(self):
        a = model.init_params(model.micro_config(), 3, 3, 3, 4, seed=5)
        b = model.init_params(model.micro_config(), 3, 3, 3, 4, seed=5)
        for k in a.arrays:
            assert np.array_equal(a.arrays[k], b.arrays[k])

    def test_closed_form_count(self):
        cfg = model.ModelConfig()
        params = model.init_params(cfg, 3, 3, 3, 4, seed=0)
        d, f, n = cfg.d_model, cfg.d_ff, 4
        per_block = 2 * d + 4 * (d * d + d) + 2 * d + d * f + f + f * d + d
        expected = (648 * d + d) + 9 * d \
            + cfg.n_enc_layers * per_block + 2 * d \
            + cfg.n_dec_layers * per_block + 2 * d \
            + d + (d * 648 + 648) + (d * n + n)
        assert params.flat.size == expected

    def test_finite_and_truncated(self):
        params = model.init_params(model.ModelConfig(), 2, 2, 2, 2, seed=1)
        for k, arr in params.arrays.items():
            assert np.all(np.isfinite(arr))
        assert np.abs(params.arrays["patch_proj_w"]).max() <= 0.04
        assert np.all(params.arrays["spatial_pe"] == 0.0)
        assert np.all(params.arrays["enc0_ln1_g"] == 1.0)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            model.ModelConfig(d_model=10, n_heads=4)
        with pytest.raises(ValueError):
            model.ModelConfig(n_enc_layers=0)


class TestEncode:
    def test_single_token_shape(self):
        cfg = model.micro_config()
        params = model.init_params(cfg, 1, 1, 1, 2, seed=0)
        t = params.tensors()
        out = model.encode(tc.Tensor(np.random.default_rng(0).normal(size=(1, 16))),
                           t, cfg)
        assert out.data.shape == (1, 16)
        assert np.all(np.isfinite(out.data))

    def test_identical_rows_stay_identical(self):
        cfg = model.micro_config()
        params = model.init_params(cfg, 2, 2, 2, 2, seed=1)
        t = params.tensors()
        row = np.random.default_rng(1).normal(size=16)
        out = model.encode(tc.Tensor(np.tile(row, (5, 1))), t, cfg).data
        for r in out[1:]:
            np.testing.assert_allclose(r, out[0], atol=1e-12)

    def test_permutation_equivariance(self):
        cfg = model.micro_config()
        params = model.init_params(cfg, 2, 2, 2, 2, seed=2)
        t = params.tensors()
        x = np.random.default_rng(2).normal(size=(7, 16))
        perm = np.random.default_rng(3).permutation(7)
        out = model.encode(tc.Tensor(x), t, cfg).data
        out_p = model.encode(tc.Tensor(x[perm]), t, cfg).data
        inv = np.argsort(perm)
        np.testing.assert_allclose(out_p[inv], out, atol=1e-9)


class TestDecode:
    def test_output_extents(self):
        cube, grid, params, plan = _setup()
        out = model.masked_forward(params, grid, plan, params.tensors())
        assert out.data.shape == (27, 27, 24)
        assert np.all(np.isfinite(out.data))

    def test_no_mask_tokens_at_rho_zero(self):
        cube, grid, params, plan = _setup(rho=0.0)
        t = params.tensors()
        emb = model.embed_for(params, grid, t)
        latents = model.encode(masking.apply_mask(emb, plan), t,
                               params.config)
        # perturbing the mask token must not change the output
        out1 = model.decode(latents, plan, t, params, grid.lambdas).data.copy()
        t2 = dict(t)
        t2["mask_token"] = tc.Tensor(t["mask_token"].data + 10.0)
        out2 = model.decode(latents, plan, t2, params, grid.lambdas).data
        np.testing.assert_array_equal(out1, out2)

    def test_mask_token_used_when_masked(self):
        cube, grid, params, plan = _setup(rho=0.5)
        t = params.tensors()
        emb = model.embed_for(params, grid, t)
        latents = model.encode(masking.apply_mask(emb, plan), t,
                               params.config)
        out1 = model.decode(latents, plan, t, params, grid.lambdas).data.copy()
        t2 = dict(t)
        t2["mask_token"] = tc.Tensor(t["mask_token"].data + 1.0)
        out2 = model.decode(latents, plan, t2, params, grid.lambdas).data
        assert not np.array_equal(out1, out2)

    def test_unflatten_matches_partition(self):
        # decode's reshape/transpose undoes partition, forward and backward
        cube, _ = hsidata.normalize(_cube(seed=4))
        grid = tokenizer.partition(cube)
        flat = tc.Tensor(grid.patches, requires_grad=True)
        restored = model._unpatchify(flat, grid.P, grid.Q, grid.K)
        np.testing.assert_array_equal(restored.data, grid.cropped_values)
        tc.tsum(tc.mul(restored, tc.Tensor(grid.cropped_values))).backward()
        np.testing.assert_array_equal(flat.grad, grid.patches)

    def test_latent_row_mismatch(self):
        cube, grid, params, plan = _setup()
        t = params.tensors()
        with pytest.raises(ValueError):
            model.decode(tc.Tensor(np.zeros((3, 16))), plan, t, params,
                         grid.lambdas)


def _spy_on_stacks(monkeypatch):
    """Record each _run_stack call's input and output arrays by stack."""
    seen, run_stack = {}, model._run_stack

    def spy(x, t, stack, *args, **kwargs):
        out = run_stack(x, t, stack, *args, **kwargs)
        seen[stack] = (x.data, out.data)
        return out

    monkeypatch.setattr(model, "_run_stack", spy)
    return seen


def _index_gather(a, index):
    """The index-table row gather that boolean masks replaced; its
    backward scatter-adds over repeated rows."""
    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            np.add.at(acc, index, g)
            a._accumulate(acc)

    return tc._result(a.data[index], (a,), backward)


def _concat_rows(parts):
    offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p._accumulate(g[lo:hi])

    return tc._result(np.concatenate([p.data for p in parts]), tuple(parts),
                      backward)


def _index_table_decode(latents, plan, t, params, lambdas):
    """The decoder as index tables built it: the latents and a mask-token
    row stacked and gathered by a permutation, plus spatial rows gathered
    by (p, q, k) rows at the table's row stride and the wavelength rows."""
    P, Q, K = plan.P, plan.Q, plan.K
    cfg, n_visible = params.config, plan.visible_ids.size
    stacked = _concat_rows(
        [latents, tc.reshape(t["mask_token"], (1, cfg.d_model))])
    perm = np.full(P * Q * K, n_visible)
    perm[plan.visible_ids] = np.arange(n_visible)
    order = np.indices((P, Q, K)).reshape(3, -1).T
    spatial = _index_gather(t["spatial_pe"], order[:, 0] * params.Q + order[:, 1])
    spectral = tokenizer.wavelength_table(lambdas, cfg.d_model)[order[:, 2]]
    x = tc.add(_index_gather(stacked, perm),
               tc.add(spatial, tc.Tensor(spectral)))
    x = model._run_stack(x, t, "dec", cfg.n_dec_layers, cfg)
    flat = tc.add(tc.matmul(x, t["recon_w"]), t["recon_b"])
    return model._unpatchify(flat, P, Q, K)


class TestDecoderLayout:
    def test_decoder_reads_the_encoders_table_cells(self, monkeypatch):
        # a 4x4-cell table under a 27x27 cube (3x3 cells): the decoder must
        # add the table cells the encoder adds, not the table's first 9 rows
        cube, grid, _, plan = _setup(seed=6, rho=0.0)
        params = model.init_params(model.micro_config(), 4, 4, grid.K, 3, 6)
        params.arrays["spatial_pe"] = np.random.default_rng(6).normal(
            size=(16, 16))
        params.arrays["patch_proj_w"][:] = 0.0  # encoder input = positions
        seen = _spy_on_stacks(monkeypatch)
        model.masked_forward(params, grid, plan, params.tensors())
        (enc_in, enc_out), (dec_in, _) = seen["enc"], seen["dec"]
        # nothing is masked, so the decoder input is latents + positions
        np.testing.assert_allclose(dec_in - enc_out, enc_in, atol=1e-12)

    @pytest.mark.parametrize("table", [(3, 3), (4, 5)])
    def test_bit_identical_to_index_tables(self, table, monkeypatch):
        _, grid, _, plan = _setup(seed=3)
        params = model.init_params(model.micro_config(), *table, grid.K, 3, 3)
        rng = np.random.default_rng(3)
        params.arrays["spatial_pe"] = rng.normal(size=(table[0] * table[1], 16))
        latents = rng.normal(size=(plan.visible_ids.size, 16))
        weight = tc.Tensor(rng.normal(size=(27, 27, 24)))
        seen = _spy_on_stacks(monkeypatch)
        results = []
        for decode in (model.decode, _index_table_decode):
            t = params.tensors()
            lat = tc.Tensor(latents, requires_grad=True)
            out = decode(lat, plan, t, params, grid.lambdas)
            tc.tsum(tc.mul(out, weight)).backward()
            results.append([seen["dec"][0], out.data, lat.grad,
                            t["spatial_pe"].grad, t["mask_token"].grad])
        for new, old in zip(*results):
            np.testing.assert_array_equal(new, old)


class TestClassify:
    def test_logit_shape_and_determinism(self):
        cube, _ = hsidata.normalize(_cube(seed=5))
        params = model.init_params(model.micro_config(), 3, 3, 3, 3, seed=5)
        a = model.classify(cube, params).data
        b = model.classify(cube, params).data
        assert a.shape == (3,)
        np.testing.assert_array_equal(a, b)

    def test_inference_records_no_graph(self, monkeypatch):
        cube, _ = hsidata.normalize(_cube(seed=5))
        params = model.init_params(model.micro_config(), 3, 3, 3, 3, seed=5)
        attended, fused = [], tc.attention
        monkeypatch.setattr(tc, "attention",
                            lambda *args: attended.append(fused(*args))
                            or attended[-1])
        assert not model.classify(cube, params).requires_grad
        stack = hsidata.HsiCube(
            values=np.stack([cube.values[:9, :9], cube.values[9:18, 9:18]]),
            wavelengths=cube.wavelengths)
        assert not model.classify(stack, params).requires_grad
        assert len(attended) == 2  # one fused call per encoder layer and pass
        assert not any(t.requires_grad or t._parents for t in attended)

    def test_window_smaller_than_table(self):
        # a 9x9 window classifies against a table trained on a 3x3 grid
        cube, _ = hsidata.normalize(_cube(seed=6))
        window = hsidata.HsiCube(values=cube.values[:9, :9, :],
                                 wavelengths=cube.wavelengths)
        params = model.init_params(model.micro_config(), 3, 3, 3, 3, seed=6)
        out = model.classify(window, params).data
        assert out.shape == (3,) and np.all(np.isfinite(out))

    def test_too_small_cube(self):
        bad = hsidata.HsiCube(values=np.ones((4, 4, 8)),
                              wavelengths=np.linspace(0.4, 2.5, 8))
        params = model.init_params(model.micro_config(), 1, 1, 1, 2, seed=0)
        with pytest.raises(ValueError):
            model.classify(bad, params)


class TestBatchedWindows:
    @pytest.mark.parametrize("h, b, config", [
        (27, 24, model.ModelConfig()),    # 3-token windows
        (18, 96, model.micro_config()),   # 12-token windows
    ])
    def test_stack_equals_one_window_at_a_time(self, h, b, config):
        cube, _ = hsidata.normalize(_cube(h, h, b, seed=3))
        view = training.extract_windows(cube)
        centers = [(0, 0), (h - 1, 2), (5, 7), (h // 2, h - 1)]  # corners padded
        stack = hsidata.HsiCube(values=view[tuple(np.array(centers).T)],
                                wavelengths=cube.wavelengths)
        params = model.init_params(config, 3, 3, b // 8, 4, seed=3)
        feats = model.features(stack, params)
        logits = model.classify(stack, params)
        assert feats.shape == (4, config.d_model) and logits.shape == (4, 4)
        assert not feats.requires_grad and not logits.requires_grad
        for n in range(len(centers)):
            one = hsidata.HsiCube(values=stack.values[n:n + 1],
                                  wavelengths=cube.wavelengths)
            np.testing.assert_array_equal(feats.data[n],
                                          model.features(one, params).data[0])
            np.testing.assert_array_equal(logits.data[n],
                                          model.classify(one, params).data[0])
            single = hsidata.HsiCube(values=stack.values[n],
                                     wavelengths=cube.wavelengths)
            np.testing.assert_array_equal(logits.data[n],
                                          model.classify(single, params).data)


class _UnwritableArray(np.ndarray):
    """An array whose serialization fails, as a full disk would."""

    def astype(self, *args, **kwargs):
        raise OSError("disk full")


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = model.init_params(model.micro_config(), 3, 3, 3, 4, seed=9)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(params, path)
        back = model.load_checkpoint(path)
        assert back.config == params.config
        assert (back.P, back.Q, back.K, back.n_classes) == (3, 3, 3, 4)
        for k in params.arrays:
            assert np.array_equal(params.arrays[k], back.arrays[k])

    def test_rewrite_byte_identical(self, tmp_path):
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save_checkpoint(params, p1)
        model.save_checkpoint(model.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=1)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(params, path)
        before = path.read_bytes()
        other = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=2)
        # fails after the header, in the payload
        other = dataclasses.replace(
            other, flat=other.flat.view(_UnwritableArray))
        with pytest.raises(OSError, match="disk full"):
            model.save_checkpoint(other, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_store_writes_show_in_the_saved_checkpoint(self, tmp_path):
        params = model.init_params(model.micro_config(), 2, 2, 2, 3, seed=1)
        params.arrays["enc0_wq"][3, 2] = 7.5  # in place
        params.arrays["cls_b"] = [1.0, 2.0, 3.0]  # copied into the store
        assert np.shares_memory(params.arrays["cls_b"], params.flat)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(params, path)
        back = model.load_checkpoint(path)
        assert back.arrays["enc0_wq"][3, 2] == 7.5
        np.testing.assert_array_equal(back.arrays["cls_b"], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(back.flat, params.flat)

    def test_store_entries_cannot_be_rebound(self):
        params = model.init_params(model.micro_config(), 2, 2, 2, 3, seed=1)
        with pytest.raises(ValueError, match="broadcast"):
            params.arrays["cls_b"] = np.zeros(4)
        with pytest.raises(KeyError):
            params.arrays["cls_c"] = np.zeros(3)
        # the views tile the vector in param_shapes order
        shapes = model.param_shapes(params.config, 2, 2, 3)
        assert list(params.arrays) == list(shapes)
        ends = [hi for _, hi in params.arrays.spans.values()]
        starts = [lo for lo, _ in params.arrays.spans.values()]
        assert starts == [0] + ends[:-1]
        assert ends[-1] == params.flat.size

    def test_finetune_rebuilds_the_store_for_a_new_head(self):
        cube = hsidata.gen_synthetic(18, 18, 16, 3, seed=4)
        params = model.init_params(model.micro_config(), 2, 2, 2, 5, seed=1)
        rows = [(i, j, c) for i, j, c, _ in training.make_split(cube, 0.5, 0)]
        settings = training.TrainSettings(ft_epochs=1)
        _, tuned = training.finetune(params, cube, (rows, rows), "probe",
                                     settings)
        assert tuned.n_classes == 3 and tuned.arrays["cls_w"].shape == (16, 3)
        assert tuned.flat.size == params.flat.size - 2 * (16 + 1)
        for name in list(params.arrays)[:-2]:  # the probe trains the head
            np.testing.assert_array_equal(tuned.arrays[name],
                                          params.arrays[name])

    @pytest.mark.parametrize("cut, match", [
        (-1, "truncated in cls_b"), (-8 * 3, "truncated in cls_w"),
        (None, "trailing bytes"), ("nan", "non-finite values in cls_w"),
    ])
    def test_bad_payload_named(self, tmp_path, cut, match):
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=1)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(params, path)
        raw = path.read_bytes()
        if cut is None:
            raw += b"\0"
        elif cut == "nan":
            raw = raw[:-8 * 4] + np.array([np.nan]).tobytes() + raw[-8 * 3:]
        else:
            raw = raw[:cut]
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=match):
            model.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"\x10\x00\x00\x00" + b'{"magic": "no"} ')
        with pytest.raises(ValueError):
            model.load_checkpoint(path)
