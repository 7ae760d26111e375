import json

import numpy as np
import pytest

from hsimae import hsidata, loss, masking, tokenizer
from hsimae import tensorcore as tc
from fdcheck import finite_diff_grad, assert_grads_close
from two_op_loss import two_op_objective

EPS = 1e-12  # the zero-norm threshold of the cube-layout objective


def _grid(values):
    """The token grid of an (h, w, b) array of values."""
    b = values.shape[-1]
    return tokenizer.partition(hsidata.HsiCube(
        values=values, wavelengths=np.linspace(0.4, 2.5, b)))


def _rows(values):
    """An (h, w, b) array's token rows, as partition lays them out."""
    return _grid(values).patches


# -- the cube-layout objective, as the engine computed it before the -----
# -- objective read token rows: the reference the token layout must match -


def _unpatchify(rows, P, Q, K):
    """(P*Q*K, 648) token rows -> (9P, 9Q, 8K) cube, as one graph node."""
    blocks = rows.data.reshape(P, Q, K, 9, 9, 8)

    def backward(g):
        rows._accumulate(g.reshape(P, 9, Q, 9, K, 8)
                         .transpose(0, 2, 4, 1, 3, 5).reshape(rows.shape))

    return tc._result(blocks.transpose(0, 3, 1, 4, 2, 5)
                      .reshape(9 * P, 9 * Q, 8 * K), (rows,), backward)


def _cube_masked_mse(y, y_hat, mask):
    c = 1.0 / np.count_nonzero(mask)
    d = (y - y_hat.data) * mask

    def backward(g):
        grad = d * float(g * c)
        grad += grad
        y_hat._accumulate(np.negative(grad, out=grad))

    return tc._result(np.sum(d * d) * c, (y_hat,), backward)


def _cube_angle(y, y_hat, ny, nyh):
    x = y_hat.data
    dots = np.sum(y * x, axis=1)
    norms = ny * nyh
    clamped = np.clip(dots / norms, -1.0 + tc.ARCCOS_CLAMP,
                      1.0 - tc.ARCCOS_CLAMP)
    c = 1.0 / len(x)

    def backward(g):
        gc = -float(g * c) / np.sqrt(1.0 - clamped * clamped)
        p = ((-gc * dots) / (norms * norms) * ny * 0.5 / nyh)[:, None] * x
        grad = (gc / norms)[:, None] * y + p
        grad += p
        y_hat._accumulate(grad)

    return tc._result(np.sum(np.arccos(clamped)) * c, (y_hat,), backward)


def _cube_sam(y, y_hat):
    h, w, b = y.shape
    y2, yh2 = y.reshape(h * w, b), tc.reshape(y_hat, (h * w, b))
    ny, nyh = np.linalg.norm(y2, axis=1), np.linalg.norm(yh2.data, axis=1)
    valid = (ny > EPS) & (nyh > EPS)
    if not valid.all():
        y2, ny, nyh = y2[valid], ny[valid], nyh[valid]
        yh2 = tc.gather_rows(yh2, valid)
    return _cube_angle(y2, yh2, ny, nyh), int((~valid).sum())


def _cube_objective(grid, y_hat, plan, alpha):
    """(total, l_mse, l_sam, n_masked, n_pixels, n_excluded) of the
    objective on the cropped cube, with a voxel mask of the whole cube."""
    region = tokenizer.to_cube(grid.patches.reshape(grid.block_shape))
    recon = _unpatchify(y_hat, grid.P, grid.Q, grid.K)
    vox = masking.voxel_mask(plan, *region.shape)
    l_mse = _cube_masked_mse(region, recon, vox)
    l_sam, excluded = _cube_sam(region, recon)
    total = tc.add(tc.scale(l_mse, alpha), tc.scale(l_sam, 1.0 - alpha))
    n_pixels = region.shape[0] * region.shape[1]
    return (total, float(l_mse.data), float(l_sam.data), int(vox.sum()),
            n_pixels - excluded, excluded)


def _close(a, b, rel=1e-12):
    """a and b agree to rel of the larger magnitude in either."""
    return np.max(np.abs(a - b)) <= rel * max(np.max(np.abs(a)),
                                              np.max(np.abs(b)))


@pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
@pytest.mark.parametrize("zero_pixels", [False, True])
def test_token_layout_matches_the_cube_layout_objective(rho, zero_pixels):
    rng = np.random.default_rng(int(rho * 100) + zero_pixels)
    values = rng.normal(size=(29, 31, 26))  # crops 2 rows, 4 cols, 2 bands
    predicted = rng.normal(size=values.shape)
    if zero_pixels:
        values[3, 5] = values[20, 26] = 0.0      # zero-norm truth
        predicted[11, 0, :24] = 0.0              # zero-norm reconstruction
    grid = _grid(values)
    plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K, rho, rho, seed=4)
    rows = _rows(predicted)
    ref_hat = tc.Tensor(rows, requires_grad=True)
    ref, *counts = _cube_objective(grid, ref_hat, plan, alpha=0.4)
    ref.backward()
    y_hat = tc.Tensor(rows, requires_grad=True)
    total, report = loss.rec_loss(grid, y_hat, plan.token_masked.ravel(),
                                  alpha=0.4)
    total.backward()
    assert _close(report.l_mse, counts[0]) and _close(report.l_sam, counts[1])
    assert _close(report.l_rec, float(ref.data))
    assert _close(y_hat.grad, ref_hat.grad)
    assert (report.n_masked, report.n_pixels, report.n_excluded) == tuple(
        counts[2:])
    assert report.n_excluded == (3 if zero_pixels else 0)


def pixel_angle(y, y_hat):
    """The spectral angle of two spectra, as one pixel: the objective of
    one row at alpha 0."""
    y = np.reshape(y, (1, -1))
    out, *_ = tc.rec_objective(y, tc.Tensor(np.reshape(y_hat, (1, -1))),
                               np.ones(1, bool), 0.0, y.shape, -1)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rec_loss_has_the_bits_of_the_two_op_graph(dtype):
    # 25 cells of 6 tokens: four backward blocks of whole cells
    rng = np.random.default_rng(12)
    values, predicted = rng.normal(size=(2, 45, 45, 48))
    values[3, 5] = predicted[40, 2] = 0.0  # two excluded pixels
    grid = _grid(values)
    mask = masking.sample_mask_plan(grid.P, grid.Q, grid.K, 0.5, 0.5,
                                    seed=2).token_masked.ravel()
    y_hat = tc.Tensor(_rows(predicted).astype(dtype), requires_grad=True)
    total, report = loss.rec_loss(grid, y_hat, mask, alpha=0.5)
    total.backward()
    ref_hat = tc.Tensor(_rows(predicted).astype(dtype), requires_grad=True)
    ref, l_mse, l_sam, cos = two_op_objective(
        grid.patches, ref_hat, mask, 0.5, grid.block_shape,
        tokenizer.SPECTRAL_AXES)
    ref.backward()
    assert (report.l_mse, report.l_sam, report.l_rec) == (
        l_mse, l_sam, float(ref.data))
    assert report.cos.tobytes() == cos.tobytes() and report.n_excluded == 2
    assert y_hat.grad.dtype == dtype
    assert y_hat.grad.tobytes() == ref_hat.grad.tobytes()


def test_sam_map_matches_per_pixel_loop():
    rng = np.random.default_rng(7)
    y, yh = rng.normal(size=(18, 9, 16)), rng.normal(size=(18, 9, 16))
    y[0, 0] = 0.0           # zero-norm truth
    yh[12, 3] = 1e-14       # (near-)zero-norm reconstruction
    yh[4, 4] = 2.0 * y[4, 4]  # a perfect pixel reads 0, not the clamp
    ref = np.zeros((18, 9))
    for i in range(18):
        for j in range(9):
            ny, nyh = np.linalg.norm(y[i, j]), np.linalg.norm(yh[i, j])
            if ny > EPS and nyh > EPS:
                cos = np.clip(y[i, j] @ yh[i, j] / (ny * nyh), -1.0, 1.0)
                ref[i, j] = np.arccos(cos)
    grid = _grid(y)
    _, report = loss.rec_loss(grid, tc.Tensor(_rows(yh)),
                              np.ones(4, dtype=bool))
    got = loss.sam_map(report.cos)
    assert got.shape == (18, 9, 1)
    assert got[0, 0, 0] == 0.0 and got[12, 3, 0] == 0.0
    assert report.n_excluded == 2
    np.testing.assert_allclose(got[..., 0], ref, rtol=0, atol=1e-12)
    assert got[4, 4, 0] < 1e-7


class TestRecLoss:
    def _setup(self, seed=7):
        """A 2x2x1 grid, its rows' predictions, and a two-token mask."""
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(18, 18, 8))
        grid = _grid(values)
        y_hat = grid.patches + rng.normal(size=grid.patches.shape)
        return grid, y_hat, np.array([True, False, False, True])

    def test_alpha_endpoints(self):
        grid, yh, mask = self._setup()
        t1, r1 = loss.rec_loss(grid, tc.Tensor(yh), mask, alpha=1.0)
        assert r1.l_rec == r1.l_mse
        t0, r0 = loss.rec_loss(grid, tc.Tensor(yh), mask, alpha=0.0)
        assert r0.l_rec == r0.l_sam

    def test_mse_over_the_masked_tokens(self):
        grid, yh, mask = self._setup(seed=3)
        yh[mask] = grid.patches[mask] + 2.0  # every masked voxel off by 2
        _, rep = loss.rec_loss(grid, tc.Tensor(yh), mask, alpha=0.5)
        assert rep.l_mse == 4.0
        assert rep.l_rec == pytest.approx(0.5 * 4.0 + 0.5 * rep.l_sam)

    def test_report_invariant(self):
        grid, yh, mask = self._setup(seed=8)
        total, rep = loss.rec_loss(grid, tc.Tensor(yh), mask, alpha=0.3)
        assert rep.l_rec == 0.3 * rep.l_mse + 0.7 * rep.l_sam
        assert 0.0 <= rep.l_sam <= np.pi
        assert rep.n_masked == 2 * 648
        assert (rep.n_pixels, rep.n_excluded) == (18 * 18, 0)
        assert float(total.data) == rep.l_rec

    def test_monotone_in_components(self):
        grid, yh, mask = self._setup(seed=9)
        _, rep = loss.rec_loss(grid, tc.Tensor(yh), mask, alpha=0.5)
        worse = yh.copy()
        worse[mask] += 1.0  # inflate masked error only
        _, rep2 = loss.rec_loss(grid, tc.Tensor(worse), mask, alpha=0.5)
        assert rep2.l_mse > rep.l_mse

    def test_gradient_footprint(self):
        grid, yh, mask = self._setup(seed=10)
        yh_t = tc.Tensor(yh, requires_grad=True)
        total, _ = loss.rec_loss(grid, yh_t, mask, alpha=0.5)
        total.backward()
        # SAM reaches everything, so unmasked rows still get gradient
        assert np.count_nonzero(yh_t.grad[~mask]) >= 0.99 * yh[~mask].size
        # gradient = MSE part + SAM part, the MSE part only on masked rows
        yh_m = tc.Tensor(yh, requires_grad=True)
        loss.rec_loss(grid, yh_m, mask, alpha=1.0)[0].backward()
        assert not yh_m.grad[~mask].any() and yh_m.grad[mask].all()
        yh_s = tc.Tensor(yh, requires_grad=True)
        loss.rec_loss(grid, yh_s, mask, alpha=0.0)[0].backward()
        np.testing.assert_allclose(
            yh_t.grad, 0.5 * yh_m.grad + 0.5 * yh_s.grad, rtol=1e-12,
            atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        grid = _grid(rng.normal(size=(9, 10, 17)))  # two tokens, cropped
        yh = rng.normal(size=grid.patches.shape)
        mask = np.array([False, True])
        yh_t = tc.Tensor(yh, requires_grad=True)
        total, _ = loss.rec_loss(grid, yh_t, mask, alpha=0.5)
        total.backward()

        def f(yh_arr):
            t, _ = loss.rec_loss(grid, tc.Tensor(yh_arr), mask, alpha=0.5)
            return float(t.data)

        numeric = finite_diff_grad(f, [yh], wrt=0, h=1e-5)
        assert_grads_close(yh_t.grad, numeric, rel=1e-6, abs_tol=1e-9)

    def test_all_nan_prediction_is_a_numeric_failure(self):
        grid, yh, mask = self._setup(seed=2)
        with pytest.raises(FloatingPointError):
            loss.rec_loss(grid, tc.Tensor(np.full(yh.shape, np.nan)), mask)

    def test_empty_mask_is_a_domain_error(self):
        grid, yh, _ = self._setup()
        with pytest.raises(tc.DomainError):
            loss.rec_loss(grid, tc.Tensor(yh), np.zeros(4, dtype=bool))

    def test_bad_alpha(self):
        grid, yh, mask = self._setup()
        with pytest.raises(ValueError):
            loss.rec_loss(grid, tc.Tensor(yh), mask, alpha=1.5)


def test_report_json_round_trip():
    rep = loss.LossReport(l_mse=1.0, l_sam=0.5, l_rec=0.75, n_masked=10,
                          n_pixels=9, n_excluded=0, alpha=0.5)
    d = json.loads(rep.to_json())
    assert d["l_rec"] == 0.75 and d["n_masked"] == 10
    assert "cos" not in d
