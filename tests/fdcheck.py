"""Central finite-difference oracle for gradient checks.

Independent of the autodiff engine: evaluates the forward function
only, never its recorded graph. `weighted_sum` is the one graph node it
offers: a scalar objective whose own gradient is exact.
"""

import numpy as np

from hsimae import tensorcore as tc


def weighted_sum(t, w):
    """sum(t * w) for a fixed array w of t's shape, as one graph node whose
    gradient to t is exactly g * w: the objective of a gradient check,
    which brings in no engine op but the ones under test."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != t.shape:
        raise ValueError(f"weights {w.shape} for a {t.shape} tensor")

    def backward(g):
        t._accumulate(g * w)

    return tc._result(np.sum(t.data * w), (t,), backward)


def finite_diff_grad(f, args, wrt, h=1e-5):
    """Central-difference gradient of scalar f(*args) w.r.t. args[wrt].

    args are numpy arrays; a fresh copy is perturbed per coordinate.
    """
    x = np.array(args[wrt], dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    xflat = x.reshape(-1)
    for idx in range(x.size):
        orig = xflat[idx]
        xflat[idx] = orig + h
        fp = f(*[x if i == wrt else a for i, a in enumerate(args)])
        xflat[idx] = orig - h
        fm = f(*[x if i == wrt else a for i, a in enumerate(args)])
        xflat[idx] = orig
        flat[idx] = (fp - fm) / (2.0 * h)
    return grad


def assert_grads_close(analytic, numeric, rel=1e-6, abs_tol=1e-9):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.abs(numeric), np.abs(analytic))
    err = np.abs(analytic - numeric)
    ok = (err <= abs_tol) | (err <= rel * denom)
    assert np.all(ok), (
        f"gradient mismatch: max abs err {err.max():.3e}, "
        f"max rel err {(err / np.maximum(denom, 1e-300)).max():.3e}")
