"""Composite reconstruction objective: masked MSE plus spectral angle.

Both terms compare the decoder's (..., T, 648) token rows with the
grid's patches, row for row. The MSE term averages squared error over
the voxels of the masked tokens only, so its gradient is exactly zero
elsewhere. The spectral-angle term averages the per-pixel angle between
true and reconstructed spectra over every (cropped) pixel, so its
gradient reaches every row; a pixel's spectrum lies along the group and
band axes of the rows' block view (tokenizer.SPECTRAL_AXES). The total
is the convex combination alpha * MSE + (1 - alpha) * SAM, one graph
node (tensorcore.rec_objective) that keeps no float64 copy of the rows.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import tensorcore as tc
from . import tokenizer


@dataclass
class LossReport:
    l_mse: float
    l_sam: float
    l_rec: float
    n_masked: int       # |M|, in voxels
    n_pixels: int       # |Omega| (valid pixels entering the SAM average)
    n_excluded: int     # zero-norm pixels left out of the SAM average
    alpha: float
    # each pixel's cosine in block view, NaN where excluded (see sam_map)
    cos: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json(self):
        return json.dumps({
            "l_mse": self.l_mse, "l_sam": self.l_sam, "l_rec": self.l_rec,
            "n_masked": self.n_masked, "n_pixels": self.n_pixels,
            "n_excluded": self.n_excluded, "alpha": self.alpha,
        })


def sam_map(cos):
    """Per-pixel spectral angles (radians) as a (..., h, w, 1) cube, from a
    LossReport's cosines. Excluded pixels read 0. The cosine is clipped to
    [-1, 1] but not clamped away from it as in the loss, so a perfect
    pixel reads 0."""
    return tokenizer.to_cube(
        np.arccos(np.clip(np.nan_to_num(cos, nan=1.0), -1.0, 1.0)))


def rec_loss(grid, y_hat, token_mask, alpha=0.5):
    """Convex combination of the MSE over the voxels of the tokens where
    the (..., T) bool token_mask is True and the spectral angle over every
    pixel, between the grid's patches and the (..., T, 648) rows y_hat.

    Returns (scalar loss tensor, LossReport).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    total, l_mse, l_sam, cos = tc.rec_objective(
        grid.patches, y_hat, token_mask, alpha, grid.block_shape,
        tokenizer.SPECTRAL_AXES)
    tc.check_finite(total, "in reconstruction loss")
    excluded = int(np.isnan(cos).sum())
    report = LossReport(
        l_mse=float(l_mse), l_sam=float(l_sam), l_rec=float(total.data),
        n_masked=int(np.count_nonzero(token_mask)) * grid.patches.shape[-1],
        n_pixels=cos.size - excluded, n_excluded=excluded, alpha=float(alpha),
        cos=cos)
    return total, report
