"""Patch partitioning, flattening, and positional encodings.

A cube is cut into non-overlapping 9 x 9 x 8 spatial-spectral patches.
Residual rows/columns/bands beyond the floor multiples are cropped
(callers warn once per input cube through report_cropping); cropped
voxels take no part in tokenization or the losses. Each spectral group
of 8 bands carries a representative wavelength (arithmetic mean of its
band centers, micrometers) that feeds a multi-frequency sinusoidal
encoding via the angular frequency 2*pi/lambda.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

log = logging.getLogger(__name__)

PATCH_H = 9
PATCH_W = 9
PATCH_B = 8
PATCH_LEN = PATCH_H * PATCH_W * PATCH_B  # 648


# the patch axes (p, i, q, j, k, b) of a cube's blocks, reordered to the
# block view (p, q, k, i, j, b) of its token rows
_TO_BLOCKS = (0, 2, 4, 1, 3, 5)
# the group and band axes of the block view: a pixel's spectrum
SPECTRAL_AXES = (-4, -1)


@dataclass
class TokenGrid:
    """(p, q, k)-indexed patches of one cube."""

    P: int
    Q: int
    K: int
    patches: np.ndarray  # (..., P*Q*K, 648), (p, q, k) in C order;
                         # each flattened i-outer, j-middle, b-inner
    lambdas: np.ndarray  # (K,) mean band-center wavelength of each group

    @property
    def block_shape(self):
        """The shape (..., P, Q, K, 9, 9, 8) of the rows' block view."""
        return self.patches.shape[:-2] + (self.P, self.Q, self.K,
                                          PATCH_H, PATCH_W, PATCH_B)

    def flipped(self, rows, cols):
        """The kept region flipped top to bottom if rows (axes p and i of the
        block view) and left to right if cols (q and j); may share arrays."""
        axes = (-5, -2) * cols + (-6, -3) * rows
        blocks = np.flip(self.patches.reshape(self.block_shape), axes)
        return replace(self, patches=blocks.reshape(self.patches.shape))


def _permute(a, axes):
    """Permute the last six axes of a."""
    n = a.ndim - 6
    return a.transpose(*range(n), *(n + np.array(axes)))


def partition(cube):
    """Cut a cube into the token grid; crops non-divisible extents.

    A stack of windows (B, h, w, bands) sharing the cube's wavelengths
    gives patches (B, P*Q*K, 648), one token grid per window.
    """
    *lead, h, w, b = cube.values.shape
    if h < PATCH_H or w < PATCH_W or b < PATCH_B:
        raise ValueError(f"cube {h}x{w}x{b} smaller than one patch")
    P, Q, K = h // PATCH_H, w // PATCH_W, b // PATCH_B
    region = cube.values[..., :PATCH_H * P, :PATCH_W * Q, :PATCH_B * K]
    blocks = region.reshape(*lead, P, PATCH_H, Q, PATCH_W, K, PATCH_B)
    patches = _permute(blocks, _TO_BLOCKS).copy().reshape(*lead, -1, PATCH_LEN)
    lambdas = cube.wavelengths[:PATCH_B * K].reshape(K, PATCH_B).mean(axis=1)
    return TokenGrid(P=P, Q=Q, K=K, patches=patches, lambdas=lambdas)


def to_cube(blocks):
    """(..., P, Q, K, h, w, b) blocks -> (..., P*h, Q*w, K*b) cube, in
    numpy: the inverse of partition for token rows in their block view,
    and a (..., 9P, 9Q, 1) map for per-pixel values kept at extent 1
    along SPECTRAL_AXES."""
    *lead, P, Q, K, h, w, b = blocks.shape
    return _permute(blocks, np.argsort(_TO_BLOCKS)).reshape(
        *lead, P * h, Q * w, K * b)


def report_cropping(shape):
    """Warn once about what partition crops from values of this shape,
    (..., h, w, bands); partition itself stays silent."""
    *_, h, w, b = shape
    cropped = (h % PATCH_H, w % PATCH_W, b % PATCH_B)
    if any(cropped):
        log.warning("cropping %d rows, %d cols, %d bands past patch multiples",
                    *cropped)


def wavelength_table(lambdas, d):
    """(K, d) wavelength encodings: row k interleaves [sin_0, cos_0, sin_1,
    cos_1, ...] of (2*pi/lambdas[k]) / 10000**(2i/d) over d/2 frequencies."""
    scales = 10000.0 ** (2.0 * np.arange(d // 2) / d)
    args = (2.0 * np.pi / lambdas)[:, None] / scales
    out = np.empty((lambdas.size, d))
    out[:, 0::2] = np.sin(args)
    out[:, 1::2] = np.cos(args)
    return out
