"""Composite reconstruction objective: masked MSE plus spectral angle.

The MSE term averages squared error over the masked voxels only, so
its gradient is exactly zero elsewhere. The spectral-angle term
averages the per-pixel angle between true and reconstructed spectra
over every (cropped) pixel, so its gradient reaches the whole cube.
The total is the convex combination alpha * MSE + (1 - alpha) * SAM.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc

ZERO_NORM_EPS = 1e-12


class EmptyMaskError(ValueError):
    """No masked voxels; the masked MSE average is undefined."""


@dataclass
class LossReport:
    l_mse: float
    l_sam: float
    l_rec: float
    n_masked: int       # |M|
    n_pixels: int       # |Omega| (valid pixels entering the SAM average)
    n_excluded: int     # zero-norm pixels left out of the SAM average
    alpha: float

    def to_json(self):
        return json.dumps({
            "l_mse": self.l_mse, "l_sam": self.l_sam, "l_rec": self.l_rec,
            "n_masked": self.n_masked, "n_pixels": self.n_pixels,
            "n_excluded": self.n_excluded, "alpha": self.alpha,
        })


def mse_masked(y, y_hat, mask):
    """Mean squared error over masked voxels; zero gradient elsewhere."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise EmptyMaskError("masked voxel set is empty")
    return tc.masked_mse(y, y_hat, mask)


def _pixel_norms(y2, yh2):
    """Row norms of (pixels, bands) spectra, and which pixels have an angle.

    A pixel whose true or predicted spectrum has (near-)zero norm has
    no spectral angle. A non-finite norm raises, as NaN > eps is False.
    """
    ny = np.linalg.norm(y2, axis=1)
    nyh = np.linalg.norm(yh2, axis=1)
    if not (np.isfinite(ny).all() and np.isfinite(nyh).all()):
        raise FloatingPointError("non-finite spectrum norm")
    return ny, nyh, (ny > ZERO_NORM_EPS) & (nyh > ZERO_NORM_EPS)


def sam_map(y, y_hat):
    """Per-pixel spectral angles (radians) of two (h, w, b) arrays, as (h, w).

    Zero-norm pixels read 0. The cosine is clipped to [-1, 1] but not
    clamped away from it as in sam_loss, so a perfect pixel reads 0.
    """
    h, w, b = y.shape
    y2, yh2 = y.reshape(h * w, b), y_hat.reshape(h * w, b)
    ny, nyh, valid = _pixel_norms(y2, yh2)
    rows = slice(None) if valid.all() else valid  # no copy when all valid
    cos = np.sum(y2[rows] * yh2[rows], axis=1) / (ny[rows] * nyh[rows])
    angles = np.zeros(h * w)
    angles[rows] = np.arccos(np.clip(cos, -1.0, 1.0))
    return angles.reshape(h, w)


def sam_loss(y, y_hat):
    """Mean spectral angle over all pixels; returns (loss, excluded count).

    Pixels whose true or predicted spectrum has (near-)zero norm are
    excluded from the average and counted instead of raising; only then
    are the spectra gathered into new rows.
    """
    if y.shape != y_hat.shape:
        raise tc.ShapeError(f"sam_loss: {y.shape} vs {y_hat.shape}")
    h, w, b = y.shape
    n = h * w
    y2, yh2 = y.reshape(n, b), tc.reshape(y_hat, (n, b))
    ny, nyh, valid = _pixel_norms(y2, yh2.data)
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("every pixel has a zero-norm spectrum")
    if n_valid < n:
        y2, ny, nyh = y2[valid], ny[valid], nyh[valid]
        yh2 = tc.gather_rows(yh2, valid)
    return tc.spectral_angle(y2, yh2, ny, nyh), n - n_valid


def rec_loss(y, y_hat, mask, alpha=0.5):
    """Convex combination of masked MSE and all-pixel SAM.

    Returns (scalar loss tensor, LossReport).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    l_mse = mse_masked(y, y_hat, mask)
    l_sam, excluded = sam_loss(y, y_hat)
    total = tc.add(tc.scale(l_mse, alpha), tc.scale(l_sam, 1.0 - alpha))
    tc.check_finite(total, "in reconstruction loss")
    h, w, _ = y_hat.shape
    report = LossReport(
        l_mse=float(l_mse.data), l_sam=float(l_sam.data),
        l_rec=float(total.data), n_masked=int(np.asarray(mask).sum()),
        n_pixels=h * w - excluded, n_excluded=excluded, alpha=float(alpha))
    return total, report
