"""The reconstruction objective as a graph of two loss nodes,
`masked_mse` and `spectral_angle`, each over its own float64 copy of
the rows, joined by a reshape, two scales and an add.

`two_op_objective` is the bit-for-bit oracle of `tc.rec_objective`: the
same numpy arithmetic, in the same order, as separate graph nodes whose
float64 gradients are cast to the rows' dtype one at a time, as they
arrive, and summed there.
"""

import numpy as np

from hsimae import tensorcore as tc


def masked_mse(y, y_hat, mask):
    """Mean of (y - y_hat)^2 over the rows of (..., n, m) arrays where the
    (..., n) bool mask is True, for a constant y; gradient -2 (y - y_hat) /
    count there, 0 elsewhere. A mask with no True row is a DomainError.
    The difference, the mean and the gradient are float64 for any dtype
    of y_hat, so float32 rows keep a float64 objective."""
    mask = np.asarray(mask)
    if (y.shape != y_hat.shape or mask.shape != y.shape[:-1]
            or mask.dtype != bool):
        raise tc.ShapeError(f"masked_mse: {y.shape}, {y_hat.shape} and a "
                            f"{mask.dtype} {mask.shape} row mask")
    n = np.count_nonzero(mask)
    if not n:
        raise tc.DomainError("masked_mse: the mask selects no row")
    c = 1.0 / (n * y.shape[-1])
    d = np.subtract(y, y_hat.data, dtype=np.float64)
    d[~mask] = 0.0

    def backward(g):
        y_hat._accumulate(d * (-2.0 * float(g * c)))

    flat = d.ravel()
    return tc._result(np.einsum("i,i->", flat, flat) * c, (y_hat,), backward)


def spectral_angle(y, y_hat, axes):
    """Mean angle between the spectra of a constant y and of y_hat, a
    spectrum being the values along `axes` at one pixel, and a pixel one
    index of the other axes. A pixel whose true or predicted spectrum has
    a norm of at most ZERO_NORM_EPS has no angle and is left out of the
    mean by a per-pixel mask; a non-finite norm is a FloatingPointError,
    and a mean over no pixel a DomainError. A cosine beyond 1 +
    ARCCOS_SLACK is a DomainError; the rest are clamped to ARCCOS_CLAMP
    from +-1, so the gradient stays finite. Returns the mean, and each
    pixel's cosine (NaN where it has no angle), with `axes` kept at
    extent 1. Norms, cosines, the mean and the gradient are float64 for
    any dtype of y_hat: float32 rows are copied to float64 first."""
    y = np.asarray(y, dtype=np.float64)
    x = y_hat.data.astype(np.float64, copy=False)
    if y.shape != x.shape:
        raise tc.ShapeError(f"spectral_angle: {y.shape} and {x.shape}")
    dots = tc._sum_products(y, x, axes)
    ny = np.sqrt(tc._sum_products(y, y, axes))
    nyh = np.sqrt(tc._sum_products(x, x, axes))
    if not (np.isfinite(ny).all() and np.isfinite(nyh).all()):
        raise FloatingPointError("non-finite spectrum norm")
    valid = (ny > tc.ZERO_NORM_EPS) & (nyh > tc.ZERO_NORM_EPS)
    if not valid.any():
        raise tc.DomainError("every pixel has a zero-norm spectrum")
    if not valid.all():  # a pixel without an angle: unit norms, cosine 0
        ny, nyh = np.where(valid, ny, 1.0), np.where(valid, nyh, 1.0)
        dots = np.where(valid, dots, 0.0)
    norms = ny * nyh
    cos = dots / norms
    if np.any(np.abs(cos) > 1.0 + tc.ARCCOS_SLACK):
        raise tc.DomainError(
            f"cosines outside [-1, 1]: {cos.min()}, {cos.max()}")
    clamped = np.clip(cos, -1.0 + tc.ARCCOS_CLAMP, 1.0 - tc.ARCCOS_CLAMP)
    c = 1.0 / np.count_nonzero(valid)

    def backward(g):
        # d angle / d x = -1/sqrt(1 - cos^2) (y / norms - cos x / nyh^2)
        gc = np.where(valid, -float(g * c) / np.sqrt(1.0 - clamped * clamped),
                      0.0)
        y_hat._accumulate(gc / norms * y - gc * cos / (nyh * nyh) * x)

    angle = np.sum(np.arccos(clamped), where=valid) * c
    return tc._result(angle, (y_hat,), backward), np.where(valid, cos, np.nan)


def two_op_objective(y, y_hat, mask, alpha, view, axes):
    """(total, l_mse, l_sam, cos) of the two-op graph, with
    tc.rec_objective's arguments and results."""
    l_mse = masked_mse(y, y_hat, mask)
    l_sam, cos = spectral_angle(np.reshape(y, view), tc.reshape(y_hat, view),
                                axes)
    total = tc.add(tc.scale(l_mse, alpha), tc.scale(l_sam, 1.0 - alpha))
    return total, l_mse.data[()], l_sam.data[()], cos
