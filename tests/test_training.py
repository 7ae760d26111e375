import json

import numpy as np
import pytest

from hsimae import hsidata, masking, model, training


class TestAdamW:
    def test_zero_grad_no_decay(self):
        arrays = {"w": np.array([1.0, -2.0])}
        state = training.OptimState()
        training.adamw_step(arrays, {"w": np.zeros(2)}, state, lr=1e-3,
                            weight_decay=0.0)
        np.testing.assert_array_equal(arrays["w"], [1.0, -2.0])

    def test_zero_grad_decay_only(self):
        arrays = {"w": np.array([1.0, -2.0])}
        state = training.OptimState()
        training.adamw_step(arrays, {"w": np.zeros(2)}, state, lr=0.01,
                            weight_decay=0.1)
        np.testing.assert_allclose(arrays["w"], [0.999, -1.998], rtol=1e-12)

    def test_first_step_formula(self):
        arrays = {"w": np.array([0.5])}
        state = training.OptimState()
        training.adamw_step(arrays, {"w": np.array([1.0])}, state, lr=1e-3,
                            weight_decay=0.0)
        # bias-corrected m_hat = v_hat = 1 at t = 1
        expected = 0.5 - 1e-3 * 1.0 / (1.0 + 1e-8)
        assert arrays["w"][0] == pytest.approx(expected, rel=1e-15)

    def test_matches_scalar_adam_oracle_ten_steps(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        arrays = {"w": np.array([0.3])}
        state = training.OptimState()
        # hand-coded scalar Adam
        w, m, v = 0.3, 0.0, 0.0
        rng = np.random.default_rng(0)
        for t in range(1, 11):
            g = float(rng.normal())
            training.adamw_step(arrays, {"w": np.array([g])}, state, lr,
                                weight_decay=0.0)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            assert arrays["w"][0] == pytest.approx(w, abs=1e-12)

    def test_nonfinite_gradient_aborts(self):
        arrays = {"w": np.array([1.0])}
        with pytest.raises(FloatingPointError, match="'w'"):
            training.adamw_step(arrays, {"w": np.array([np.nan])},
                                training.OptimState(), lr=1e-3,
                                weight_decay=0.05)


class TestAugment:
    def _cube(self, seed=0):
        return hsidata.gen_synthetic(12, 10, 16, 3, seed=seed)

    def test_identity_seed_exists(self):
        cube = self._cube()
        for seed in range(50):
            out = training.augment(cube, seed, jitter_sigma=0.0)
            if np.array_equal(out.values, cube.values):
                assert np.array_equal(out.labels, cube.labels)
                return
        pytest.fail("no seed in 0..49 produced the identity augmentation")

    def test_deterministic(self):
        cube = self._cube()
        a = training.augment(cube, 7)
        b = training.augment(cube, 7)
        assert np.array_equal(a.values, b.values)

    def test_flip_preserves_band_multisets(self):
        cube = self._cube(seed=1)
        out = training.augment(cube, seed=3, jitter_sigma=0.0)
        for b in range(cube.bands):
            assert np.array_equal(np.sort(out.values[:, :, b], axis=None),
                                  np.sort(cube.values[:, :, b], axis=None))

    def test_labels_follow_values(self):
        cube = self._cube(seed=2)
        out = training.augment(cube, seed=11, jitter_sigma=0.0)
        # pixel-label pairing must be preserved under whatever flip happened
        orig = {tuple(np.round(cube.values[i, j], 9)): cube.labels[i, j]
                for i in range(cube.height) for j in range(cube.width)}
        for i in range(out.height):
            for j in range(out.width):
                key = tuple(np.round(out.values[i, j], 9))
                assert orig[key] == out.labels[i, j]

    def test_double_flip_is_identity(self):
        cube = self._cube(seed=3)
        flipped = hsidata.HsiCube(values=cube.values[:, ::-1, :].copy(),
                                  wavelengths=cube.wavelengths,
                                  labels=cube.labels[:, ::-1].copy())
        back = hsidata.HsiCube(values=flipped.values[:, ::-1, :].copy(),
                               wavelengths=flipped.wavelengths,
                               labels=flipped.labels[:, ::-1].copy())
        assert np.array_equal(back.values, cube.values)


class TestEvaluate:
    def test_perfect_predictions(self):
        rep = training.evaluate([1, 2, 3, 1, 2, 3], [1, 2, 3, 1, 2, 3])
        assert rep.oa == 100.0 and rep.aa == 100.0 and rep.kappa == 1.0

    def test_constant_predictor_balanced(self):
        rep = training.evaluate([1, 1, 1, 1], [1, 1, 2, 2])
        assert rep.oa == 50.0
        assert rep.aa == 50.0
        assert rep.kappa == 0.0

    def test_oa_trace_identity_and_kappa_range(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(1, 5, size=200)
        true = rng.integers(1, 5, size=200)
        rep = training.evaluate(pred, true)
        assert rep.oa == pytest.approx(
            100.0 * np.trace(rep.confusion) / rep.confusion.sum())
        assert -1.0 <= rep.kappa <= 1.0

    def test_kappa_one_iff_perfect(self):
        rep = training.evaluate([1, 2, 2], [1, 2, 2])
        assert rep.kappa == 1.0
        rep = training.evaluate([1, 2, 2], [1, 2, 1])
        assert rep.kappa < 1.0

    def test_degenerate_single_class(self):
        rep = training.evaluate([1, 1], [1, 1])
        assert rep.kappa == 1.0 and rep.degenerate
        # constant but different classes: p_e = 0, kappa = 0 via the formula
        rep = training.evaluate([2, 2], [1, 1])
        assert rep.kappa == 0.0

    def test_unlabeled_rejected(self):
        with pytest.raises(ValueError):
            training.evaluate([0, 1], [1, 1])


class TestSplits:
    def test_round_trip(self, tmp_path):
        cube = hsidata.gen_synthetic(12, 12, 16, 3, seed=0)
        rows = training.make_split(cube, 0.3, seed=1)
        path = tmp_path / "split.csv"
        training.write_split(path, rows)
        train, test = training.read_split(path)
        assert len(train) + len(test) == len(rows)
        labels = {c for _, _, c in train} | {c for _, _, c in test}
        assert labels == {1, 2, 3}
        # every class appears on both sides
        assert {c for _, _, c in train} == {1, 2, 3}
        assert {c for _, _, c in test} == {1, 2, 3}

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,label,split\n1,2,3,nope\n")
        with pytest.raises(ValueError, match="bad split row"):
            training.read_split(path)


class TestExtractWindow:
    def test_center_window(self):
        cube = hsidata.gen_synthetic(12, 12, 8, 2, seed=0)
        win = training.extract_windows(cube)[6, 6]
        assert win.shape == (9, 9, 8)
        np.testing.assert_array_equal(win[4, 4], cube.values[6, 6])
        np.testing.assert_array_equal(win, cube.values[2:11, 2:11])

    def test_corner_replicates(self):
        cube = hsidata.gen_synthetic(12, 12, 8, 2, seed=1)
        view = training.extract_windows(cube)
        np.testing.assert_array_equal(view[11, 11][8, 8], cube.values[11, 11])
        win = view[0, 0]
        np.testing.assert_array_equal(win[0, 0], cube.values[0, 0])
        np.testing.assert_array_equal(win[3, 3], cube.values[0, 0])
        np.testing.assert_array_equal(win[4, 4], cube.values[0, 0])


def _short_settings(**kw):
    defaults = dict(steps=5, ft_epochs=2)
    defaults.update(kw)
    return training.TrainSettings(**defaults)


class TestPretrain:
    def test_runs_and_logs(self, tmp_path):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        log_path = tmp_path / "loss.jsonl"
        ckpt = tmp_path / "m.ckpt"
        params, log = training.pretrain(
            [cube], model.micro_config(), _short_settings(), run_seed=1,
            log_path=log_path, checkpoint_path=ckpt)
        assert len(log) == 5
        assert all(np.isfinite(e["l_rec"]) for e in log)
        lines = log_path.read_text().splitlines()
        assert len(lines) == 5
        assert json.loads(lines[0])["step"] == 0
        loaded = model.load_checkpoint(ckpt)
        assert loaded.config == params.config

    def test_log_streams_each_completed_step(self, tmp_path, monkeypatch):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        full = tmp_path / "full.jsonl"
        training.pretrain([cube], model.micro_config(), _short_settings(),
                          run_seed=1, log_path=full)
        cut = tmp_path / "cut.jsonl"
        real_step, done, seen = training.adamw_step, [], []

        def fail_at_step_3(*args):
            if len(done) == 3:
                seen.append(cut.read_text())  # the log while still open
                raise FloatingPointError("stopped at step 3")
            real_step(*args)
            done.append(1)

        monkeypatch.setattr(training, "adamw_step", fail_at_step_3)
        with pytest.raises(FloatingPointError, match="step 3"):
            training.pretrain([cube], model.micro_config(), _short_settings(),
                              run_seed=1, log_path=cut,
                              checkpoint_path=tmp_path / "m.ckpt")
        first_3 = "".join(full.read_text().splitlines(keepends=True)[:3])
        assert seen == [first_3] and cut.read_text() == first_3
        assert not (tmp_path / "m.ckpt").exists()

    def test_deterministic_runs(self, tmp_path):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=2)
        out = []
        for run in range(2):
            log_path = tmp_path / f"l{run}.jsonl"
            ckpt = tmp_path / f"c{run}.ckpt"
            training.pretrain([cube], model.micro_config(), _short_settings(),
                              run_seed=9, log_path=log_path,
                              checkpoint_path=ckpt)
            out.append((log_path.read_bytes(), ckpt.read_bytes()))
        assert out[0] == out[1]

    def test_zero_ratio_rejected(self):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        with pytest.raises(ValueError, match="no masked tokens"):
            training.pretrain([cube], model.micro_config(),
                              _short_settings(rho_s=0.0, rho_b=0.0), run_seed=0)

    @pytest.mark.parametrize("steps", [0, -5])
    def test_bad_step_count_rejected_before_writing(self, tmp_path, steps):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        ckpt, log_path = tmp_path / "m.ckpt", tmp_path / "loss.jsonl"
        with pytest.raises(ValueError, match=f"steps must be >= 1, got {steps}"):
            training.pretrain([cube], model.micro_config(),
                              _short_settings(steps=steps), run_seed=0,
                              log_path=log_path, checkpoint_path=ckpt)
        assert not ckpt.exists() and not log_path.exists()

    def test_mismatched_grids_rejected(self):
        a = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        b = hsidata.gen_synthetic(18, 18, 24, 3, seed=0)
        with pytest.raises(ValueError, match="token grid"):
            training.pretrain([a, b], model.micro_config(), _short_settings(),
                              run_seed=0)


class TestCropWarning:
    """A cube whose bands are not a multiple of 8 is cropped; the warning
    comes once per input cube, not once per partitioned window or step."""

    @staticmethod
    def _crop_lines(caplog):
        return [r for r in caplog.records if "cropping" in r.getMessage()]

    def test_once_per_pretrain(self, caplog):
        cube = hsidata.gen_synthetic(27, 27, 20, 3, seed=0)
        with caplog.at_level("WARNING"):
            training.pretrain([cube], model.micro_config(),
                              _short_settings(steps=3), run_seed=0)
        assert len(self._crop_lines(caplog)) == 1

    def test_once_per_finetune(self, caplog):
        cube = hsidata.gen_synthetic(27, 27, 20, 3, seed=0)
        params = model.init_params(model.micro_config(), 1, 1, 2, 3, seed=0)
        rows = training.make_split(cube, 0.1, seed=0)
        split = ([(i, j, c) for i, j, c, s in rows if s == "train"],
                 [(i, j, c) for i, j, c, s in rows if s == "test"][:40])
        with caplog.at_level("WARNING"):
            training.finetune(params, cube, split, "full",
                              _short_settings(ft_epochs=1))
        lines = self._crop_lines(caplog)
        assert len(lines) == 1
        assert "0 rows, 0 cols, 4 bands" in lines[0].getMessage()


class TestFinetune:
    def test_probe_updates_only_head(self):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=3)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        rows = training.make_split(cube, 0.2, seed=0)
        train = [(i, j, c) for i, j, c, s in rows if s == "train"][:6]
        test = [(i, j, c) for i, j, c, s in rows if s == "test"][:6]
        before = {k: v.copy() for k, v in params.arrays.items()}
        _, tuned = training.finetune(params, cube, (train, test), "probe",
                                     _short_settings(ft_epochs=1))
        for name, arr in tuned.arrays.items():
            if name in training.PROBE_PARAMS:
                assert not np.array_equal(arr, before[name])
            else:
                np.testing.assert_array_equal(arr, before[name])

    def test_overfit_train_equals_test(self):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=4)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=1)
        rows = training.make_split(cube, 0.5, seed=1)
        pixels = [(i, j, c) for i, j, c, s in rows if s == "train"][:10]
        report, _ = training.finetune(params, cube, (pixels, pixels), "full",
                                      _short_settings(ft_epochs=15))
        assert report.oa >= 90.0

    def test_cached_probe_equals_per_window_loop(self):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=6)
        params = model.init_params(model.ModelConfig(), 3, 3, 3, 3, seed=2)
        rows = training.make_split(cube, 0.1, seed=4)
        split = ([(i, j, c) for i, j, c, s in rows if s == "train"],
                 [(i, j, c) for i, j, c, s in rows if s == "test"][:40])
        settings = _short_settings(ft_epochs=3, lr=0.01)
        report, tuned = training.finetune(params, cube, split, "probe",
                                          settings, run_seed=5)
        ref_report, ref = _per_window_probe(params, cube, split, settings,
                                            run_seed=5)
        for name in training.PROBE_PARAMS:
            np.testing.assert_array_equal(tuned.arrays[name], ref.arrays[name])
        assert report.to_json() == ref_report.to_json()
        np.testing.assert_array_equal(report.pred, ref_report.pred)

    @pytest.mark.parametrize("mode", ["probe", "full"])
    def test_negative_epochs_rejected(self, mode):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=5)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        good = (1, 1, int(cube.labels[1, 1]))
        with pytest.raises(ValueError, match="ft_epochs must be >= 0, got -2"):
            training.finetune(params, cube, ([good], [good]), mode,
                              _short_settings(ft_epochs=-2))

    def test_missing_labels(self):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=5)
        unlabeled = hsidata.HsiCube(values=cube.values,
                                    wavelengths=cube.wavelengths)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        with pytest.raises(ValueError, match="label"):
            training.finetune(params, unlabeled, ([(0, 0, 1)], [(1, 1, 1)]),
                              "probe", _short_settings())

    def test_bad_mode(self):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=5)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        with pytest.raises(ValueError, match="mode"):
            training.finetune(params, cube, ([(0, 0, 1)], [(1, 1, 1)]),
                              "sideways", _short_settings())

    @pytest.mark.parametrize("i, j, label, match", [
        (-10, -10, 1, "outside"),     # would slice its window from the end
        (30, 5, 1, "outside"),        # would fail as smaller than one patch
        (0, 0, 0, "labels must be >= 1"),  # would train toward the last class
        (0, 0, 99, "labels this pixel"),
    ])
    def test_bad_split_row_named(self, i, j, label, match):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=5)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        good = (1, 1, int(cube.labels[1, 1]))
        with pytest.raises(ValueError, match=match) as exc:
            training.finetune(params, cube, ([good, (i, j, label)], [good]),
                              "probe", _short_settings())
        assert f"({i}, {j}, {label})" in str(exc.value)


def _per_window_probe(params, cube, split, settings, run_seed):
    """The probe as one graph per window per epoch: encode the window,
    pool, classify, backward, AdamW on the head. The reference that the
    feature-cached probe must reproduce bit for bit."""
    train_rows, test_rows = split
    params = params.copy()
    normed, _ = hsidata.normalize(cube)
    view = training.extract_windows(normed)

    def window(i, j):
        return hsidata.HsiCube(values=view[i, j], wavelengths=cube.wavelengths)

    state = training.OptimState()
    order = np.arange(len(train_rows))
    rng = np.random.default_rng(masking.derive_seed(run_seed, "order"))
    trainable = set(training.PROBE_PARAMS)
    for _ in range(settings.ft_epochs):
        rng.shuffle(order)
        for idx in order:
            i, j, label = train_rows[idx]
            tensors = params.tensors(trainable=trainable)
            logits = model.classify(window(i, j), params, tensors)
            ce = training._cross_entropy(logits, label - 1)
            ce.backward()
            grads = {name: tensors[name].grad for name in trainable}
            training.adamw_step(params.arrays, grads, state, settings.lr,
                                settings.weight_decay)
    preds = [int(np.argmax(model.classify(window(i, j), params).data)) + 1
             for i, j, _ in test_rows]
    return training.evaluate(preds, [c for _, _, c in test_rows]), params
