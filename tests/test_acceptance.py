"""End-to-end acceptance checks for the pipeline.

Each test is one exit criterion, checked at its stated tolerance and
wall-clock budget, and prints a one-line verdict. Slow experiments
(gradient fidelity, overfit, transfer, determinism) run real training
loops, so this module dominates suite runtime.
"""

import time

import numpy as np
import pytest

from hsimae import hsidata, masking, model, tokenizer, training
from hsimae import tensorcore as tc

EM_SEED = 555  # one shared material family across the transfer cubes


def _verdict(name):
    print(f"[acceptance] {name}: PASS")


def sam_of_rows(y, y_hat):
    """tc.rec_objective at alpha 0 over every (..., bands) row of y: the
    mean spectral angle of each row as one pixel."""
    return tc.rec_objective(y, tc.Tensor(y_hat), np.ones(y.shape[:-1], bool),
                            0.0, y.shape, -1)


class TestMaskingArithmetic:
    def test_counts_exhaustive(self):
        t0 = time.monotonic()
        plan = masking.sample_mask_plan(4, 4, 4, 0.5, 0.5, seed=11)
        assert plan.cell_masked.sum() == 8
        assert plan.group_masked.sum() == 2
        assert plan.visible_ids.size == 16        # 25% of 64
        assert plan.masked_ids.size == 48
        # every token classified by the cell-AND-group rule, exhaustively
        for p in range(4):
            for q in range(4):
                for k in range(4):
                    vis = not plan.cell_masked[p, q] and not plan.group_masked[k]
                    t = (p * 4 + q) * 4 + k
                    assert (t in plan.visible_ids) == vis
                    assert (t in plan.masked_ids) != vis
        vox = masking.voxel_mask(plan, 36, 36, 32)
        assert int(vox.sum()) == 48 * tokenizer.PATCH_LEN
        assert time.monotonic() - t0 < 1.0
        _verdict("masking arithmetic")


class TestWavelengthEncodingOracle:
    def test_matches_scalar_evaluation(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(0)
        for lam in rng.uniform(0.35, 2.6, size=50):
            for d in (2, 8, 64):
                enc = tokenizer.wavelength_table(np.array([lam]), d)[0]
                omega = 2.0 * np.pi / lam
                for i in range(d // 2):
                    arg = omega / 10000.0 ** (2.0 * i / d)
                    assert abs(enc[2 * i] - np.sin(arg)) <= 1e-12
                    assert abs(enc[2 * i + 1] - np.cos(arg)) <= 1e-12
                assert abs(enc @ enc - d / 2.0) <= 1e-12
        assert time.monotonic() - t0 < 1.0
        _verdict("wavelength encoding oracle")


class TestSpectralAngleProperties:
    def test_angle_identities_and_oracle(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1)
        y = rng.normal(size=6)

        def angle(a, b):  # one pixel, as (1, bands) spectra, at alpha 0
            out, _, _, _ = sam_of_rows(a.reshape(1, -1), b.reshape(1, -1))
            return float(out.data)

        # identical spectra: clamp-limited, not exactly zero
        assert angle(y, y.copy()) <= 5e-4
        # orthogonal two-band case
        quarter = angle(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(quarter - np.pi / 2) <= 1e-9
        # scale invariance in either argument
        yh = rng.normal(size=6)
        ref = angle(y, yh)
        for c in (1e-3, 1.0, 1e3):
            assert abs(angle(c * y, yh) - ref) <= 1e-9
            assert abs(angle(y, c * yh) - ref) <= 1e-9
        # brute-force per-pixel oracle on random cubes
        for seed in range(3):
            r = np.random.default_rng(seed)
            a = r.normal(size=(5, 5, 8))
            b = r.normal(size=(5, 5, 8))
            got, _, l_sam, cos = sam_of_rows(a, b)
            assert float(got.data) == l_sam
            excluded = np.isnan(cos).sum()
            angles = []
            for i in range(5):
                for j in range(5):
                    cos = a[i, j] @ b[i, j] / (np.linalg.norm(a[i, j])
                                               * np.linalg.norm(b[i, j]))
                    angles.append(np.arccos(np.clip(cos, -1.0, 1.0)))
            assert excluded == 0
            assert abs(float(got.data) - np.mean(angles)) <= 1e-9
        assert time.monotonic() - t0 < 1.0
        _verdict("spectral angle properties")


class TestGradientFootprint:
    def test_mse_zero_outside_mask_total_dense(self, monkeypatch):
        t0 = time.monotonic()
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=4)
        normed, _ = hsidata.normalize(cube)
        grid = tokenizer.partition(normed)
        plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K, 0.5, 0.5,
                                        seed=8)
        params = model.init_params(model.micro_config(), grid.P, grid.Q,
                                   grid.K, 3, seed=5)
        masked = plan.token_masked.ravel()
        forward = model.masked_forward

        def rows_gradient(alpha):
            """The gradient that training.masked_loss gives the decoder's
            rows, which are made a leaf so that backward keeps it."""
            rows = []

            def leaf_rows(*args):
                rows.append(tc.Tensor(forward(*args).data, requires_grad=True))
                return rows[0]

            monkeypatch.setattr(model, "masked_forward", leaf_rows)
            total, report, _ = training.masked_loss(
                params, grid, plan, alpha, params.tensors(trainable=set()))
            total.backward()
            return rows[0].grad, report

        grad, _ = rows_gradient(1.0)  # the masked MSE alone
        assert np.all(grad[~masked] == 0.0)
        assert np.count_nonzero(grad[masked]) > 0

        grad, report = rows_gradient(0.5)
        assert report.n_excluded == 0
        frac = np.count_nonzero(grad) / grad.size
        assert frac >= 0.99
        assert time.monotonic() - t0 < 10.0
        _verdict("asymmetric gradient footprint")


class TestGradientFidelityFullModel:
    def test_all_parameters_match_finite_differences(self):
        t0 = time.monotonic()
        cube = hsidata.gen_synthetic(18, 18, 16, 2, seed=6)
        normed, _ = hsidata.normalize(cube)
        grid = tokenizer.partition(normed)
        plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K, 0.5, 0.5,
                                        seed=2)
        params = model.init_params(model.micro_config(), grid.P, grid.Q,
                                   grid.K, 2, seed=3)

        def forward(tensors):
            return training.masked_loss(params, grid, plan, 0.5, tensors)[0]

        tensors = params.tensors()
        forward(tensors).backward()

        h = 1e-5
        for name, arr in params.arrays.items():
            analytic = tensors[name].grad
            if analytic is None:
                analytic = np.zeros_like(arr)
            flat = arr.reshape(-1)
            numeric = np.zeros(flat.size)
            frozen = params.tensors(trainable=set())
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                fp = float(forward(frozen).data)
                flat[idx] = orig - h
                fm = float(forward(frozen).data)
                flat[idx] = orig
                numeric[idx] = (fp - fm) / (2.0 * h)
            a = analytic.reshape(-1)
            denom = np.maximum(np.abs(a), np.abs(numeric))
            err = np.abs(a - numeric)
            bad = ~((err <= 1e-8) | (err <= 1e-5 * denom))
            assert not np.any(bad), (
                f"{name}: {int(bad.sum())} mismatches, "
                f"max abs err {err.max():.3e}")
        assert time.monotonic() - t0 < 300.0
        _verdict("full-model gradient fidelity")


class TestOverfitSingleCube:
    def test_fixed_plan_loss_collapses(self):
        t0 = time.monotonic()
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=7)
        settings = training.TrainSettings(steps=300, fixed_plan=True,
                                          augment=False)
        _, log = training.pretrain([cube], model.ModelConfig(), settings,
                                   run_seed=0)
        assert log[-1]["l_rec"] <= 0.10 * log[0]["l_rec"]
        assert time.monotonic() - t0 < 600.0
        _verdict("single-cube overfit")


class TestTransferSignal:
    def test_probe_gap_and_full_finetune(self):
        t0 = time.monotonic()
        cfg = model.ModelConfig(d_model=8, n_heads=2, d_ff=32,
                                n_enc_layers=2, n_dec_layers=1)
        corpus = [hsidata.gen_synthetic(27, 27, 24, 4, seed=100 + i,
                                        endmember_seed=EM_SEED)
                  for i in range(8)]
        pre, _ = training.pretrain(
            corpus, cfg,
            training.TrainSettings(steps=2000, rho_s=0.5, rho_b=0.0, lr=2e-3,
                                   weight_decay=0.05),
            run_seed=5)

        held = hsidata.gen_synthetic(27, 27, 24, 4, seed=999,
                                     endmember_seed=EM_SEED)
        rows = training.make_split(held, 0.1, seed=3)
        split = ([(i, j, c) for i, j, c, s in rows if s == "train"],
                 [(i, j, c) for i, j, c, s in rows if s == "test"])
        probe_settings = training.TrainSettings(ft_epochs=20)
        pre_rep, _ = training.finetune(pre, held, split, "probe",
                                       probe_settings, run_seed=1)
        rand = model.init_params(cfg, 3, 3, 3, 4, seed=77)
        rand_rep, _ = training.finetune(rand, held, split, "probe",
                                        probe_settings, run_seed=1)
        assert pre_rep.oa - rand_rep.oa >= 10.0, (
            f"probe gap {pre_rep.oa - rand_rep.oa:.2f} "
            f"(pretrained {pre_rep.oa:.2f} vs random {rand_rep.oa:.2f})")

        two = hsidata.gen_synthetic(27, 27, 24, 2, seed=42)
        rows2 = training.make_split(two, 0.3, seed=1)
        split2 = ([(i, j, c) for i, j, c, s in rows2 if s == "train"],
                  [(i, j, c) for i, j, c, s in rows2 if s == "test"])
        ft_rep, _ = training.finetune(pre, two, split2, "full",
                                      training.TrainSettings(ft_epochs=20),
                                      run_seed=2)
        assert ft_rep.oa >= 95.0
        assert time.monotonic() - t0 < 1800.0
        _verdict("transfer signal")


class TestMetricsExactness:
    def test_kappa_endpoints(self):
        t0 = time.monotonic()
        rep = training.evaluate([1, 1, 1, 1], [1, 1, 2, 2])
        assert rep.kappa == 0.0                   # balanced constant predictor
        rep = training.evaluate([1, 2, 3, 1, 2, 3], [1, 2, 3, 1, 2, 3])
        assert rep.kappa == 1.0 and rep.oa == 100.0 and rep.aa == 100.0
        assert time.monotonic() - t0 < 1.0
        _verdict("metrics exactness")


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, tmp_path):
        t0 = time.monotonic()
        cube = hsidata.gen_synthetic(27, 27, 24, 3, seed=9)
        outputs = []
        for run in range(2):
            log_path = tmp_path / f"log{run}.jsonl"
            ckpt = tmp_path / f"model{run}.ckpt"
            training.pretrain([cube], model.micro_config(),
                              training.TrainSettings(steps=30), run_seed=13,
                              log_path=log_path, checkpoint_path=ckpt)
            outputs.append((log_path.read_bytes(), ckpt.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert time.monotonic() - t0 < 600.0
        _verdict("determinism")
