import json
import re

import numpy as np
import pytest

from hsimae import hsidata, masking, model, tokenizer, training
from hsimae import tensorcore as tc
from fdcheck import assert_grads_close, finite_diff_grad


def _store(**values):
    """A model.ParamStore holding each keyword's values, in keyword order."""
    store = model.ParamStore({k: np.shape(v) for k, v in values.items()})
    for name, value in values.items():
        store[name] = value
    return store


def _reference_adamw(arrays, grads, m, v, t, lr, weight_decay):
    """AdamW step t as one update per array, in place on the name -> array
    dicts arrays, m and v: the reference the blocked step must equal."""
    for name, g in grads.items():
        p = arrays[name]
        m.setdefault(name, np.zeros_like(p))
        v.setdefault(name, np.zeros_like(p))
        if weight_decay:
            p *= 1.0 - lr * weight_decay
        m[name] *= training.BETA1
        m[name] += (1.0 - training.BETA1) * g
        v[name] *= training.BETA2
        v[name] += (1.0 - training.BETA2) * g * g
        m_hat = m[name] / (1.0 - training.BETA1 ** t)
        v_hat = v[name] / (1.0 - training.BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)


class TestAdamW:
    def test_zero_grad_no_decay(self):
        arrays = _store(w=[1.0, -2.0])
        state = training.OptimState()
        training.adamw_step(arrays, {"w": np.zeros(2)}, state, lr=1e-3,
                            weight_decay=0.0)
        np.testing.assert_array_equal(arrays["w"], [1.0, -2.0])

    def test_zero_grad_decay_only(self):
        arrays = _store(w=[1.0, -2.0])
        state = training.OptimState()
        training.adamw_step(arrays, {"w": np.zeros(2)}, state, lr=0.01,
                            weight_decay=0.1)
        np.testing.assert_allclose(arrays["w"], [0.999, -1.998], rtol=1e-12)

    def test_first_step_formula(self):
        arrays = _store(w=[0.5])
        state = training.OptimState()
        training.adamw_step(arrays, {"w": np.array([1.0])}, state, lr=1e-3,
                            weight_decay=0.0)
        # bias-corrected m_hat = v_hat = 1 at t = 1
        expected = 0.5 - 1e-3 * 1.0 / (1.0 + 1e-8)
        assert arrays["w"][0] == pytest.approx(expected, rel=1e-15)

    def test_matches_scalar_adam_oracle_ten_steps(self):
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        arrays = _store(w=[0.3])
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
        arrays = _store(w=[1.0])
        with pytest.raises(FloatingPointError, match="'w'"):
            training.adamw_step(arrays, {"w": np.array([np.nan])},
                                training.OptimState(), lr=1e-3,
                                weight_decay=0.05)

    # Arrays longer than one block (body, tail) between short ones, and
    # the grad subsets of pretrain (all but the head), the probe (the head
    # alone) and the full fine-tune (two runs: the decoder and tail between
    # them get no gradient); the last case reaches the tail from step 3.
    SHAPES = {"embed": (7, 5), "body": (3, tc._BLOCK + 1001), "dec": (40,),
              "tail": (tc._BLOCK + 3,), "cls_w": (4, 3), "cls_b": (3,)}

    @pytest.mark.parametrize("subsets", [
        [("embed", "body", "dec", "tail")], [("cls_w", "cls_b")],
        [("embed", "body", "cls_w", "cls_b")],
        [("embed", "cls_b"), ("embed", "cls_b"), ("embed", "tail", "cls_b")],
    ], ids=["pretrain", "probe", "full", "late_tail"])
    def test_blocked_step_equals_per_array_reference(self, subsets):
        rng = np.random.default_rng(7)
        store = model.ParamStore(self.SHAPES)
        store.flat[:] = rng.normal(size=store.flat.size)
        arrays = {name: arr.copy() for name, arr in store.items()}
        state, m, v = training.OptimState(), {}, {}
        for t in range(1, 6):
            names = subsets[min(t, len(subsets)) - 1]
            grads = {name: rng.normal(size=store[name].shape)
                     for name in names}
            training.adamw_step(store, grads, state, 1e-2, 0.05)
            _reference_adamw(arrays, grads, m, v, t, 1e-2, 0.05)
            for name in self.SHAPES:
                np.testing.assert_array_equal(store[name], arrays[name])
                a, b = store.spans[name]
                np.testing.assert_array_equal(
                    state.m[a:b], m.get(name, np.zeros(b - a)).ravel())
                np.testing.assert_array_equal(
                    state.v[a:b], v.get(name, np.zeros(b - a)).ravel())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_first_non_finite_gradient_named_and_nothing_updated(self, bad):
        store = model.ParamStore(self.SHAPES)
        before = store.flat.copy()
        grads = {name: np.ones(store[name].shape) for name in
                 ("embed", "body", "tail", "cls_w", "cls_b")}
        grads["tail"][5] = bad
        grads["cls_b"][0] = np.nan
        with pytest.raises(FloatingPointError,
                           match="'tail' at optimizer step 1"):
            training.adamw_step(store, grads, training.OptimState(), 1e-3, 0.05)
        np.testing.assert_array_equal(store.flat, before)

    def test_huge_finite_gradient_is_not_refused(self):
        # g @ g overflows, but every value is finite
        arrays = _store(w=[0.5, 0.5])
        state = training.OptimState()
        with np.errstate(over="ignore"):
            training.adamw_step(arrays, {"w": np.array([1e200, -1e200])},
                                state, lr=1e-3, weight_decay=0.0)
        assert state.t == 1 and np.all(np.isfinite(arrays["w"]))

    def test_gradient_of_the_wrong_size_refused(self):
        with pytest.raises(ValueError, match="broadcast"):
            training.adamw_step(_store(w=[1.0, 2.0]), {"w": np.ones(3)},
                                training.OptimState(), 1e-3, 0.0)


class TestAugment:
    SHAPES = [(27, 27, 24), (29, 31, 26)]  # the second crops 2, 4 and 2

    @staticmethod
    def _grid(shape, seed=0):
        cube, _ = hsidata.normalize(hsidata.gen_synthetic(*shape, 3, seed=seed))
        return cube, tokenizer.partition(cube)

    @staticmethod
    def _flipped_grid(cube, rows, cols):
        """The grid of the kept region, flipped: the augment oracle."""
        h, w, b = (n - n % m for n, m in zip(
            cube.values.shape, (tokenizer.PATCH_H, tokenizer.PATCH_W,
                                tokenizer.PATCH_B)))
        kept = cube.values[:h, :w, :b][::-1 if rows else 1, ::-1 if cols else 1]
        return tokenizer.partition(hsidata.HsiCube(
            values=kept, wavelengths=cube.wavelengths[:b]))

    @staticmethod
    def _draws(seed):
        """(column flip, row flip), drawn in augment's order."""
        rng = np.random.default_rng(seed)
        return rng.random() < 0.5, rng.random() < 0.5

    @pytest.mark.parametrize("shape", SHAPES)
    def test_grid_is_the_drawn_flip_of_the_kept_region(self, shape):
        cube, grid = self._grid(shape, seed=4)
        seen = set()
        for seed in range(12):
            cols, rows = self._draws(seed)
            out = training.augment(grid, seed)
            want = self._flipped_grid(cube, rows, cols)
            assert np.array_equal(out.patches, want.patches)
            assert np.array_equal(out.lambdas, grid.lambdas)
            assert (out.P, out.Q, out.K) == (grid.P, grid.Q, grid.K)
            seen.add((rows, cols))
        assert len(seen) == 4

    def test_deterministic(self):
        _, grid = self._grid((29, 31, 26))
        assert np.array_equal(training.augment(grid, 7).patches,
                              training.augment(grid, 7).patches)

    def test_two_column_flips_are_the_identity(self):
        _, grid = self._grid((29, 31, 26), seed=3)
        seed = next(s for s in range(50) if self._draws(s) == (True, False))
        once = training.augment(grid, seed)
        twice = training.augment(once, seed)
        assert not np.array_equal(once.patches, grid.patches)
        assert np.array_equal(twice.patches, grid.patches)


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
        training.write_rows(path, ("i", "j", "label", "split"), rows)
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


def nan_at_a_masked_voxel(forward, call):
    """`forward` (model.masked_forward), except that its `call`-th result
    holds a NaN at one voxel the plan masks."""
    calls = []

    def wrapped(params, grid, plan, tensors):
        out = forward(params, grid, plan, tensors)
        calls.append(1)
        if len(calls) == call:
            out.data[plan.masked_ids[0], 0] = np.nan
        return out

    return wrapped


def _short_settings(**kw):
    defaults = dict(steps=5, ft_epochs=2)
    defaults.update(kw)
    return training.TrainSettings(**defaults)


class TestTrainSettings:
    # field, a value outside its range, the nearest end of the range
    @pytest.mark.parametrize("field, bad, end, named", [
        ("steps", 0, 1, "steps must be >= 1, got 0"),
        ("ft_epochs", -1, 0, "ft_epochs must be >= 0, got -1"),
        ("ft_batch", 0, 1, "ft_batch must be >= 1, got 0"),
        ("lr", 0.0, 1e-300, "lr must be finite and > 0, got 0.0"),
        ("lr", float("nan"), 1e300, "lr must be finite and > 0, got nan"),
        ("weight_decay", float("inf"), 1e300,
         "weight_decay must be finite and >= 0, got inf"),
        ("weight_decay", -1e-9, 0.0,
         "weight_decay must be finite and >= 0, got -1e-09"),
        ("alpha", -0.5, 0.0, "alpha must lie in [0, 1], got -0.5"),
        ("rho_s", 1.5, 1.0, "rho_s must lie in [0, 1], got 1.5"),
        ("rho_b", float("nan"), 1.0, "rho_b must lie in [0, 1], got nan"),
    ])
    def test_each_field_checked(self, field, bad, end, named):
        assert getattr(training.TrainSettings(**{field: end}), field) == end
        with pytest.raises(ValueError, match=re.escape(named)):
            training.TrainSettings(**{field: bad})


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

    def test_log_keeps_the_alpha_identity(self, tmp_path):
        # the objective is float64 over float32 rows, so l_rec is the
        # weighted sum of the logged terms to float64 rounding
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        log_path = tmp_path / "loss.jsonl"
        training.pretrain([cube], model.micro_config(),
                          _short_settings(steps=8, alpha=0.3), run_seed=1,
                          log_path=log_path)
        for line in log_path.read_text().splitlines():
            e = json.loads(line)
            want = 0.3 * e["l_mse"] + 0.7 * e["l_sam"]
            assert abs(e["l_rec"] - want) <= 1e-12 * max(1.0, abs(want))

    def test_float32_compute_over_float64_masters(self, monkeypatch):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        made, seen = [], {}
        result, objective, step = (tc._result, tc.rec_objective,
                                   training.adamw_step)

        def spy_result(data, parents, backward):
            made.append(data.dtype)
            return result(data, parents, backward)

        def spy_objective(*args):
            seen.setdefault("before the loss", set(made))
            return objective(*args)

        def spy_step(store, grads, state, lr, weight_decay):
            step(store, grads, state, lr, weight_decay)
            seen["gradients"] = {g.dtype for g in grads.values()}
            seen["masters"] = {store.flat.dtype, state.m.dtype, state.v.dtype}

        monkeypatch.setattr(tc, "_result", spy_result)
        monkeypatch.setattr(tc, "rec_objective", spy_objective)
        monkeypatch.setattr(training, "adamw_step", spy_step)
        training.pretrain([cube], model.micro_config(),
                          _short_settings(steps=1), run_seed=0)
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert seen == {"before the loss": {f32}, "gradients": {f32},
                        "masters": {f64}}
        # the objective's total is the one float64 node; the micro model's
        # forward makes 38 float32 ones: 6 embed, 1 mask, 13 encoder and
        # 18 decoder nodes (2 of them the dec_embed projections), each
        # biased product one matmul
        assert made.count(f64) == 1 and made.count(f32) == 38

    def test_zero_ratio_rejected(self):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        with pytest.raises(ValueError, match="no masked tokens"):
            training.pretrain([cube], model.micro_config(),
                              _short_settings(rho_s=0.0, rho_b=0.0), run_seed=0)

    def test_zero_ratio_message_names_both_ratios(self, tmp_path):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        ckpt = tmp_path / "m.ckpt"
        with pytest.raises(ValueError, match=re.escape(
                "mask ratios rho_s=0.0, rho_b=0.0 leave no masked tokens")):
            training.pretrain([cube], model.micro_config(),
                              _short_settings(rho_s=0.0, rho_b=0.0), run_seed=0,
                              checkpoint_path=ckpt)
        assert not ckpt.exists()

    def test_non_finite_loss_names_step_and_plan(self, tmp_path, monkeypatch):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        log_path, ckpt = tmp_path / "loss.jsonl", tmp_path / "m.ckpt"
        monkeypatch.setattr(model, "masked_forward",
                            nan_at_a_masked_voxel(model.masked_forward, call=3))
        with pytest.raises(FloatingPointError,
                           match="non-finite loss at step 2; plan: ") as err:
            training.pretrain([cube], model.micro_config(), _short_settings(),
                              run_seed=1, log_path=log_path,
                              checkpoint_path=ckpt)
        plan = masking.MaskPlan.from_json(str(err.value).split("plan: ", 1)[1])
        assert plan.seed == masking.derive_seed(1, "plan", 2, 2, 0)
        assert len(log_path.read_text().splitlines()) == 2
        assert not ckpt.exists()

    @pytest.mark.parametrize("steps", [0, -5])
    def test_bad_step_count_rejected_before_writing(self, tmp_path, steps):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        ckpt, log_path = tmp_path / "m.ckpt", tmp_path / "loss.jsonl"
        with pytest.raises(ValueError, match=f"steps must be >= 1, got {steps}"):
            training.pretrain([cube], model.micro_config(),
                              _short_settings(steps=steps), run_seed=0,
                              log_path=log_path, checkpoint_path=ckpt)
        assert not ckpt.exists() and not log_path.exists()

    def test_each_cube_is_prepared_once(self, monkeypatch):
        cubes = [hsidata.gen_synthetic(27, 27, 24, 3, seed=s) for s in (0, 1)]
        calls = {"normalize": 0, "partition": 0, "augment": 0, "HsiCube": 0}

        def spy(owner, name, key=None):
            real = getattr(owner, name)

            def counted(*args, **kw):
                calls[key or name] += 1
                return real(*args, **kw)
            monkeypatch.setattr(owner, name, counted)

        spy(hsidata, "normalize")
        spy(tokenizer, "partition")
        spy(training, "augment")
        spy(hsidata.HsiCube, "__post_init__", "HsiCube")
        training.pretrain(cubes, model.micro_config(), _short_settings(steps=6),
                          run_seed=0)
        assert calls == {"normalize": 2, "partition": 2, "augment": 6,
                         "HsiCube": 2}

    def test_mismatched_grids_rejected(self):
        a = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        b = hsidata.gen_synthetic(18, 18, 24, 3, seed=0)
        with pytest.raises(ValueError, match="token grid"):
            training.pretrain([a, b], model.micro_config(), _short_settings(),
                              run_seed=0)


def _graph_arrays(root):
    """Every array the graph of root can reach: each node's data, and each
    array, or tensor's graph, that a backward closure holds."""
    arrays, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays.append(node.data)
        stack.extend(node._parents)
        held = [c.cell_contents for c in getattr(node._backward, "__closure__",
                                                  None) or ()]
        for value in held:
            for v in value if isinstance(value, (tuple, list)) else [value]:
                if isinstance(v, tc.Tensor):
                    stack.append(v)
                elif isinstance(v, np.ndarray):
                    arrays.append(v)
    return arrays


class TestActivationMemory:
    def test_graph_holds_no_float64_copy_of_the_rows(self):
        # the float32 model's graph, when backward would start, holds no
        # float64 array of the token rows' size but the patches themselves
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        grid = tokenizer.partition(hsidata.normalize(cube)[0])
        params = model.init_params(model.micro_config(), grid.P, grid.Q,
                                   grid.K, 3, seed=0)
        plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K, 0.5, 0.5, 1)
        total, _, _ = training.masked_loss(
            params, grid, plan, 0.5, params.tensors(dtype=model.COMPUTE_DTYPE))
        arrays = _graph_arrays(total)
        assert any(np.shares_memory(a, grid.patches) for a in arrays)
        assert not [a.shape for a in arrays if a.dtype == np.float64
                    and a.size == grid.patches.size
                    and not np.shares_memory(a, grid.patches)]


class TestNoGradientIsWritten:
    def test_every_handed_gradient_keeps_its_values(self, monkeypatch):
        # tensors may share a gradient array (add hands one to both
        # parents), so no op or sum may write into one once it is handed
        # over: every array _accumulate got still holds its values after
        # backward, through one pretrain step and one full fine-tune batch
        handed, checked = [], []
        accumulate, backward = tc.Tensor._accumulate, tc.Tensor.backward

        def record(t, g):
            handed.append((g, np.array(g, copy=True)))
            accumulate(t, g)

        def check(root):
            backward(root)
            checked.append((len(handed), [
                i for i, (g, was) in enumerate(handed)
                if np.asarray(g).tobytes() != was.tobytes()]))
            handed.clear()

        monkeypatch.setattr(tc.Tensor, "_accumulate", record)
        monkeypatch.setattr(tc.Tensor, "backward", check)
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=0)
        training.pretrain([cube], model.micro_config(),
                          _short_settings(steps=1), run_seed=0)
        params = model.init_params(model.micro_config(), 3, 3, 3, 3, seed=0)
        rows = training.make_split(cube, 0.1, seed=0)
        split = ([(i, j, c) for i, j, c, s in rows if s == "train"][:4],
                 [(i, j, c) for i, j, c, s in rows if s == "test"][:4])
        training.finetune(params, cube, split, "full",
                          _short_settings(ft_epochs=1, ft_batch=4))
        assert [bad for _, bad in checked] == [[], []]
        assert min(n for n, _ in checked) > 40  # 87 and 51 arrays handed


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


class TestCrossEntropy:
    def test_mean_and_gradient_over_a_batch(self):
        logits = np.random.default_rng(3).uniform(-2.0, 2.0, size=(3, 4))
        labels = np.array([2, 0, 2])

        def ce(x):
            return tc.cross_entropy(tc.Tensor(x), labels).data

        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        np.testing.assert_allclose(ce(logits),
                                   -log_p[[0, 1, 2], labels].mean(), rtol=1e-12)
        x = tc.Tensor(logits, requires_grad=True)
        tc.cross_entropy(x, labels).backward()
        assert_grads_close(x.grad, finite_diff_grad(ce, [logits], wrt=0))


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

    @pytest.mark.parametrize("mode", ["probe", "full"])
    def test_float32_compute_over_float64_masters(self, mode, monkeypatch):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=3)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        rows = training.make_split(cube, 0.2, seed=0)
        split = ([(i, j, c) for i, j, c, s in rows if s == "train"][:4],
                 [(i, j, c) for i, j, c, s in rows if s == "test"][:4])
        made, seen = set(), {}
        result, step = tc._result, training.adamw_step

        def spy_result(data, parents, backward):
            made.add(data.dtype)
            return result(data, parents, backward)

        def spy_step(store, grads, state, lr, weight_decay):
            step(store, grads, state, lr, weight_decay)
            seen.setdefault("gradients", set()).update(
                g.dtype for g in grads.values())
            seen["masters"] = {store.flat.dtype, state.m.dtype, state.v.dtype}

        monkeypatch.setattr(tc, "_result", spy_result)
        monkeypatch.setattr(training, "adamw_step", spy_step)
        training.finetune(params, cube, split, mode,
                          _short_settings(ft_epochs=1))
        f32 = np.dtype(np.float32)
        assert made == {f32}  # the cross-entropy too
        assert seen == {"gradients": {f32}, "masters": {np.dtype(np.float64)}}

    def test_probe_without_epochs_encodes_only_the_test_windows(
            self, monkeypatch):
        # with no epoch no cached train feature is read, so none is made;
        # the report and predictions are those of the untrained head
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=3)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        rows = training.make_split(cube, 0.5, seed=0)
        split = ([(i, j, c) for i, j, c, s in rows if s == "train"][:7],
                 [(i, j, c) for i, j, c, s in rows if s == "test"][:5])
        encoded, features = [], model.features

        def spy(windows, *args):
            encoded.append(len(windows.values))
            return features(windows, *args)

        monkeypatch.setattr(model, "features", spy)
        report, tuned = training.finetune(params, cube, split, "probe",
                                          _short_settings(ft_epochs=0))
        assert sum(encoded) == len(split[1])
        ref_report, ref = training.finetune(params, cube, split, "full",
                                            _short_settings(ft_epochs=0))
        assert report.to_json() == ref_report.to_json()
        assert report.pred.tobytes() == ref_report.pred.tobytes()
        assert tuned.flat.tobytes() == ref.flat.tobytes()

    @pytest.mark.parametrize("ft_batch", [1, 4])
    def test_cached_probe_equals_per_window_loop(self, ft_batch):
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=6)
        params = model.init_params(model.ModelConfig(), 3, 3, 3, 3, seed=2)
        rows = training.make_split(cube, 0.1, seed=4)
        split = ([(i, j, c) for i, j, c, s in rows if s == "train"],
                 [(i, j, c) for i, j, c, s in rows if s == "test"][:40])
        settings = _short_settings(ft_epochs=3, lr=0.01, ft_batch=ft_batch)
        report, tuned = training.finetune(params, cube, split, "probe",
                                          settings, run_seed=5)
        ref_report, ref = _per_window_probe(params, cube, split, settings,
                                            run_seed=5)
        for name in training.PROBE_PARAMS:
            np.testing.assert_array_equal(tuned.arrays[name], ref.arrays[name])
        assert report.to_json() == ref_report.to_json()
        np.testing.assert_array_equal(report.pred, ref_report.pred)

    def test_one_step_per_batch_and_each_row_once_per_epoch(
            self, monkeypatch):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=3)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        rows = training.make_split(cube, 0.5, seed=0)
        train = [(i, j, c) for i, j, c, s in rows if s == "train"][:7]
        test = [(i, j, c) for i, j, c, s in rows if s == "test"][:5]
        calls = []  # the window centres of each classify call, and "step"
        rates = []
        real_classify, real_step = model.classify, training.adamw_step

        def classify(windows, *args):
            calls.append(windows.values[:, 4, 4].copy())
            return real_classify(windows, *args)

        def step(arrays, grads, state, lr, weight_decay):
            calls.append("step")
            rates.append(lr)
            real_step(arrays, grads, state, lr, weight_decay)

        monkeypatch.setattr(model, "classify", classify)
        monkeypatch.setattr(training, "adamw_step", step)
        training.finetune(params, cube, (train, test), "full",
                          _short_settings(ft_epochs=2, ft_batch=4))
        batches = [calls[n - 1] for n, c in enumerate(calls)
                   if isinstance(c, str)]
        assert [len(b) for b in batches] == [4, 3, 4, 3]
        assert rates == [2.0 * training.TrainSettings.lr] * 4  # lr * sqrt(4)
        normed, _ = hsidata.normalize(cube)
        at = {normed.values[i, j].tobytes(): (i, j) for i, j, _ in train}
        for epoch in (batches[:2], batches[2:]):
            seen = [at[centre.tobytes()] for b in epoch for centre in b]
            assert sorted(seen) == sorted((i, j) for i, j, _ in train)

    @pytest.mark.parametrize("mode", ["probe", "full"])
    def test_non_finite_loss_names_epoch_and_batch(self, mode):
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=5)
        params = model.init_params(model.micro_config(), 2, 2, 2, 2, seed=0)
        params.arrays["cls_b"][1] = np.inf
        rows = [(i, j, c) for i, j, c, _ in training.make_split(cube, 0.5, 0)]
        with pytest.raises(FloatingPointError, match=r"^epoch 0, batch 0: "
                           "non-finite values encountered in the cross"):
            training.finetune(params, cube, (rows, rows), mode,
                              _short_settings())

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
    """The probe as one graph per step, on the float32 leaves finetune
    uses: encode the step's windows, pool, classify, backward, AdamW on
    the head. At ft_batch 1 that is one single-window graph per train
    row at lr; above, one graph of the
    batch's stacked windows at lr * sqrt(ft_batch). The reference that
    the feature-cached probe must reproduce bit for bit."""
    train_rows, test_rows = split
    params = params.copy()
    normed, _ = hsidata.normalize(cube)
    view = training.extract_windows(normed)

    def window(i, j):
        return hsidata.HsiCube(values=view[i, j], wavelengths=cube.wavelengths)

    def stack(batch):
        ii, jj = np.array([(i, j) for i, j, _ in batch]).T
        return hsidata.HsiCube(values=view[ii, jj],
                               wavelengths=cube.wavelengths)

    state = training.OptimState()
    order = np.arange(len(train_rows))
    rng = np.random.default_rng(masking.derive_seed(run_seed, "order"))
    trainable = set(training.PROBE_PARAMS)

    def step(cube_in, labels, lr):
        tensors = params.tensors(trainable=trainable,
                                 dtype=model.COMPUTE_DTYPE)
        logits = model.classify(cube_in, params, tensors)  # (C,) or (B, C)
        logits = tc.reshape(logits, (len(labels), logits.data.shape[-1]))
        ce = tc.cross_entropy(logits, labels)
        ce.backward()
        grads = {name: tensors[name].grad for name in trainable}
        training.adamw_step(params.arrays, grads, state, lr,
                            settings.weight_decay)

    size = settings.ft_batch
    for _ in range(settings.ft_epochs):
        rng.shuffle(order)
        if size == 1:
            for idx in order:
                i, j, label = train_rows[idx]
                step(window(i, j), [label - 1], settings.lr)
            continue
        for lo in range(0, len(order), size):
            batch = [train_rows[i] for i in order[lo:lo + size]]
            step(stack(batch), [c - 1 for *_, c in batch],
                 settings.lr * np.sqrt(size))
    preds = [int(np.argmax(model.classify(window(i, j), params, params.tensors(
        trainable=set(), dtype=model.COMPUTE_DTYPE)).data)) + 1
             for i, j, _ in test_rows]
    return training.evaluate(preds, [c for _, _, c in test_rows]), params
