import numpy as np
import pytest

from hsimae import loss, masking
from hsimae import tensorcore as tc
from fdcheck import finite_diff_grad, assert_grads_close


def _pair(shape=(3, 3, 8), seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape), rng.normal(size=shape)


class TestMseMasked:
    def test_perfect_reconstruction(self):
        y, _ = _pair()
        mask = np.zeros(y.shape, dtype=bool)
        mask[0, 0, :] = True
        out = loss.mse_masked(y, tc.Tensor(y), mask)
        assert float(out.data) == 0.0

    def test_unit_gap(self):
        y = np.ones((2, 2, 4))
        yh = np.zeros((2, 2, 4))
        mask = np.zeros(y.shape, dtype=bool)
        mask[0, :, :2] = True
        out = loss.mse_masked(y, tc.Tensor(yh), mask)
        assert float(out.data) == 1.0

    def test_hand_enumerated(self):
        y = np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 4)
        yh = np.ones((1, 1, 4))
        mask = np.array([True, False, False, True]).reshape(1, 1, 4)
        expected = ((0 - 1) ** 2 + (3 - 1) ** 2) / 2
        out = loss.mse_masked(y, tc.Tensor(yh), mask)
        assert float(out.data) == pytest.approx(expected)
        assert expected == 2.5

    def test_empty_mask_errors(self):
        y, yh = _pair()
        with pytest.raises(loss.EmptyMaskError):
            loss.mse_masked(y, tc.Tensor(yh), np.zeros(y.shape, dtype=bool))

    def test_gradient_zero_outside_mask(self):
        y, yh = _pair(seed=1)
        plan = masking.sample_mask_plan(1, 1, 1, 0.0, 0.0, seed=0)
        mask = np.zeros(y.shape, dtype=bool)
        mask[1, 2, 3] = mask[0, 0, 0] = True
        yh_t = tc.Tensor(yh, requires_grad=True)
        loss.mse_masked(y, yh_t, mask).backward()
        assert np.all(yh_t.grad[~mask] == 0.0)
        assert np.all(yh_t.grad[mask] != 0.0)


def pixel_angle(y, y_hat):
    """sam_loss of two spectra as (1, 1, b) cubes: the one pixel's angle."""
    out, _ = loss.sam_loss(np.reshape(y, (1, 1, -1)),
                           tc.Tensor(np.reshape(y_hat, (1, 1, -1))))
    return float(out.data)


class TestSamPixel:
    """The spectral angle of a single pixel."""

    def test_identical_spectra(self):
        y = np.array([1.0, 2.0, 3.0])
        assert pixel_angle(y, y.copy()) <= 5e-4  # clamp-limited

    def test_orthogonal(self):
        out = pixel_angle(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert out == pytest.approx(np.pi / 2, abs=1e-9)

    def test_45_degrees(self):
        out = pixel_angle(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert out == pytest.approx(np.pi / 4, abs=1e-6)

    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(2)
        y = rng.normal(size=8)
        yh = rng.normal(size=8)
        base = pixel_angle(y, yh)
        scaled = pixel_angle(y, c * yh)
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        y, yh = rng.normal(size=8), rng.normal(size=8)
        assert pixel_angle(y, yh) == pytest.approx(pixel_angle(yh, y),
                                                   abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            pixel_angle(np.zeros(4), np.ones(4))


class TestSamLoss:
    def test_scaled_reconstruction_is_zero(self):
        y, _ = _pair(seed=4)
        out, excluded = loss.sam_loss(y, tc.Tensor(3.7 * y))
        assert float(out.data) <= 5e-4
        assert excluded == 0

    def test_averaging(self):
        y = np.zeros((1, 2, 2))
        y[0, 0] = [1.0, 0.0]
        y[0, 1] = [1.0, 0.0]
        yh = y.copy()
        yh[0, 1] = [0.0, 1.0]  # orthogonalize one of two pixels
        out, _ = loss.sam_loss(y, tc.Tensor(yh))
        # identical pixel reads ~4.5e-4 rad because of the arccos clamp
        assert float(out.data) == pytest.approx(np.pi / 4, abs=3e-4)

    def test_brute_force_oracle(self):
        y, yh = _pair(shape=(5, 5, 8), seed=5)
        out, _ = loss.sam_loss(y, tc.Tensor(yh))
        angles = []
        for i in range(5):
            for j in range(5):
                a, b = y[i, j], yh[i, j]
                cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
                cos = np.clip(cos, -1 + 1e-7, 1 - 1e-7)
                angles.append(np.arccos(cos))
        assert float(out.data) == pytest.approx(np.mean(angles), abs=1e-9)

    def test_zero_norm_pixels_excluded_and_counted(self):
        y, yh = _pair(shape=(2, 2, 4), seed=6)
        y[0, 0] = 0.0
        out, excluded = loss.sam_loss(y, tc.Tensor(yh))
        assert excluded == 1
        assert np.isfinite(float(out.data))

    def test_all_zero_errors(self):
        with pytest.raises(ValueError):
            loss.sam_loss(np.zeros((2, 2, 4)), tc.Tensor(np.ones((2, 2, 4))))

    # a NaN norm is not a zero norm (NaN > eps is False): one NaN pixel
    # must not be quietly excluded, nor an all-NaN prediction reported as
    # zero-norm data
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_is_a_numeric_failure(self, bad):
        y, yh = _pair(shape=(2, 2, 4), seed=6)
        yh[1, 0, 2] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            loss.sam_loss(y, tc.Tensor(yh))
        with pytest.raises(FloatingPointError, match="non-finite"):
            loss.sam_map(y, yh)

    @staticmethod
    def _gathered_sam(y, y_hat):
        """sam_loss with every pixel gathered into new rows, then the
        fused angle: the bit-for-bit reference for the path without
        excluded pixels."""
        h, w, b = y.shape
        valid = np.ones(h * w, dtype=bool)
        yv = y.reshape(h * w, b)[valid]
        yhv = tc.gather_rows(tc.reshape(y_hat, (h * w, b)), valid)
        return tc.spectral_angle(yv, yhv, np.linalg.norm(yv, axis=1),
                                 np.linalg.norm(yhv.data, axis=1))

    def test_no_excluded_pixel_equals_gathered_path_without_gather(
            self, monkeypatch):
        y, yh = _pair(shape=(6, 5, 16), seed=8)
        ref_hat = tc.Tensor(yh, requires_grad=True)
        ref = self._gathered_sam(y, ref_hat)
        ref.backward()
        monkeypatch.setattr(tc, "gather_rows", _refuse_gather)
        y_hat = tc.Tensor(yh, requires_grad=True)
        out, excluded = loss.sam_loss(y, y_hat)
        out.backward()
        assert excluded == 0
        np.testing.assert_array_equal(out.data, ref.data)
        np.testing.assert_array_equal(y_hat.grad, ref_hat.grad)

    def test_excluded_pixels_are_gathered(self, monkeypatch):
        y, yh = _pair(shape=(2, 2, 4), seed=6)
        y[0, 0] = 0.0
        calls, gather = [], tc.gather_rows
        monkeypatch.setattr(tc, "gather_rows",
                            lambda a, keep: calls.append(keep) or gather(a, keep))
        y_hat = tc.Tensor(yh, requires_grad=True)
        loss.sam_loss(y, y_hat)[0].backward()
        # the constant target's rows are gathered by numpy indexing
        assert len(calls) == 1
        assert calls[0].tolist() == [False, True, True, True]
        assert not y_hat.grad[0, 0].any() and y_hat.grad[1:].all()

    def test_gradient_with_excluded_pixels_matches_finite_differences(self):
        y, yh = _pair(shape=(3, 2, 4), seed=12)
        y[0, 1] = y[2, 0] = 0.0
        y_hat = tc.Tensor(yh, requires_grad=True)
        out, excluded = loss.sam_loss(y, y_hat)
        out.backward()
        assert excluded == 2

        def f(yh_arr):
            return float(loss.sam_loss(y, tc.Tensor(yh_arr))[0].data)

        numeric = finite_diff_grad(f, [yh], wrt=0, h=1e-5)
        assert_grads_close(y_hat.grad, numeric, rel=1e-6, abs_tol=1e-9)
        assert not y_hat.grad[0, 1].any() and not y_hat.grad[2, 0].any()


def _refuse_gather(a, keep):
    raise AssertionError("gather_rows called with no pixel excluded")


def test_sam_map_matches_per_pixel_loop():
    y, yh = _pair(shape=(6, 5, 8), seed=7)
    y[0, 0] = 0.0           # zero-norm truth
    yh[2, 3] = 1e-14        # (near-)zero-norm reconstruction
    ref = np.zeros((6, 5))
    for i in range(6):
        for j in range(5):
            ny, nyh = np.linalg.norm(y[i, j]), np.linalg.norm(yh[i, j])
            if ny > loss.ZERO_NORM_EPS and nyh > loss.ZERO_NORM_EPS:
                cos = np.clip(y[i, j] @ yh[i, j] / (ny * nyh), -1.0, 1.0)
                ref[i, j] = np.arccos(cos)
    got = loss.sam_map(y, yh)
    assert got.shape == (6, 5)
    assert got[0, 0] == 0.0 and got[2, 3] == 0.0
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_sam_map_without_excluded_pixels_equals_gathered_rows():
    y, yh = _pair(shape=(6, 5, 16), seed=9)
    y2, yh2 = y.reshape(30, 16), yh.reshape(30, 16)
    valid = np.ones(30, dtype=bool)  # the boolean row copy sam_map skips
    cos = (np.sum(y2[valid] * yh2[valid], axis=1)
           / (np.linalg.norm(y2, axis=1) * np.linalg.norm(yh2, axis=1)))
    ref = np.arccos(np.clip(cos, -1.0, 1.0)).reshape(6, 5)
    np.testing.assert_array_equal(loss.sam_map(y, yh), ref)


class TestRecLoss:
    def _setup(self, seed=7):
        y, yh = _pair(shape=(3, 3, 8), seed=seed)
        mask = np.zeros(y.shape, dtype=bool)
        mask[:2, :, :4] = True
        return y, yh, mask

    def test_alpha_endpoints(self):
        y, yh, mask = self._setup()
        t1, r1 = loss.rec_loss(y, tc.Tensor(yh), mask, alpha=1.0)
        assert r1.l_rec == r1.l_mse
        t0, r0 = loss.rec_loss(y, tc.Tensor(yh), mask, alpha=0.0)
        assert r0.l_rec == r0.l_sam

    def test_plug_in_combination(self):
        y = np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 4)
        yh = np.ones((1, 1, 4))
        mask = np.array([True, False, False, True]).reshape(1, 1, 4)
        _, rep = loss.rec_loss(y, tc.Tensor(yh), mask, alpha=0.5)
        assert rep.l_mse == pytest.approx(2.5)
        assert rep.l_rec == pytest.approx(0.5 * 2.5 + 0.5 * rep.l_sam)

    def test_report_invariant(self):
        y, yh, mask = self._setup(seed=8)
        total, rep = loss.rec_loss(y, tc.Tensor(yh), mask, alpha=0.3)
        assert rep.l_rec == 0.3 * rep.l_mse + 0.7 * rep.l_sam
        assert 0.0 <= rep.l_sam <= np.pi
        assert rep.n_masked == mask.sum()
        assert float(total.data) == rep.l_rec

    def test_monotone_in_components(self):
        y, yh, mask = self._setup(seed=9)
        _, rep = loss.rec_loss(y, tc.Tensor(yh), mask, alpha=0.5)
        worse = yh + 0.0
        worse[mask] += 1.0  # inflate masked error only
        _, rep2 = loss.rec_loss(y, tc.Tensor(worse), mask, alpha=0.5)
        assert rep2.l_mse > rep.l_mse

    def test_gradient_footprint(self):
        y, yh, mask = self._setup(seed=10)
        yh_t = tc.Tensor(yh, requires_grad=True)
        total, _ = loss.rec_loss(y, yh_t, mask, alpha=0.5)
        total.backward()
        # SAM reaches everything, so unmasked voxels still get gradient
        assert np.count_nonzero(yh_t.grad[~mask]) >= 0.99 * (~mask).sum()
        # masked voxel gradient = MSE part + SAM part
        yh_m = tc.Tensor(yh, requires_grad=True)
        loss.mse_masked(y, yh_m, mask).backward()
        yh_s = tc.Tensor(yh, requires_grad=True)
        loss.sam_loss(y, yh_s)[0].backward()
        np.testing.assert_allclose(
            yh_t.grad, 0.5 * yh_m.grad + 0.5 * yh_s.grad, rtol=1e-12, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        y, yh, mask = self._setup(seed=11)
        yh_t = tc.Tensor(yh, requires_grad=True)
        total, _ = loss.rec_loss(y, yh_t, mask, alpha=0.5)
        total.backward()

        def f(yh_arr):
            t, _ = loss.rec_loss(y, tc.Tensor(yh_arr), mask, alpha=0.5)
            return float(t.data)

        numeric = finite_diff_grad(f, [yh], wrt=0, h=1e-5)
        assert_grads_close(yh_t.grad, numeric, rel=1e-6, abs_tol=1e-9)

    def test_all_nan_prediction_is_a_numeric_failure(self):
        y, _ = _pair(shape=(3, 3, 8), seed=2)
        mask = np.zeros(y.shape, dtype=bool)
        mask[0, 0, :4] = True
        with pytest.raises(FloatingPointError):
            loss.rec_loss(y, tc.Tensor(np.full(y.shape, np.nan)), mask)

    def test_bad_alpha(self):
        y, yh, mask = self._setup()
        with pytest.raises(ValueError):
            loss.rec_loss(y, tc.Tensor(yh), mask, alpha=1.5)


def test_report_json_round_trip():
    import json
    rep = loss.LossReport(l_mse=1.0, l_sam=0.5, l_rec=0.75, n_masked=10,
                          n_pixels=9, n_excluded=0, alpha=0.5)
    d = json.loads(rep.to_json())
    assert d["l_rec"] == 0.75 and d["n_masked"] == 10
