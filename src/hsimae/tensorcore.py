"""Dense float32 or float64 tensors with reverse-mode automatic
differentiation.

Small, CPU-only engine: enough operations for a transformer
encoder/decoder, the reconstruction objective, and an AdamW optimizer.
A tensor keeps float32 data as float32 and holds any other data as
float64; an op computes, and hands gradients back, in its operands'
dtype, except the reconstruction objective, which computes in float64
whatever the rows' dtype, returns float64 scalars and hands the rows a
gradient in their dtype. A gradient of another dtype than its tensor's
is cast once, on arrival. The commands run the model in float32; the
finite-difference checks feed float64.
`add` broadcasts as numpy does, and its backward sums over the
broadcast axes; so does `matmul`'s optional bias, added in place into
the product, so that no pre-bias product is kept for backward. Row
layout is boolean masks:
`gather_rows` selects rows and `place_rows`, its transpose, puts them
back among fill rows.
Operands that may carry a gradient are Tensors; constants (the target
of `rec_objective`, masks, class ids) are numpy arrays.
An op keeps its parents and backward only when some parent needs a
gradient, so a one-parent backward never tests `requires_grad`.
No gradient array is written after it is made: tensors may share one.
The error function behind GELU is Cephes' `ndtr.c` erf (Moshier, 1989),
the algorithm scipy.special.erf runs: bit-identical to it for |x| <= 1,
and within 1 ulp beyond, where numpy's exp may round differently from
the C library's.
"""

import numpy as np

# a spectral angle's cosine is clamped into this open interval so the
# gradient -1/sqrt(1-x^2) stays finite for (anti)parallel spectra.
ARCCOS_CLAMP = 1e-7
# cosines outside [-1-ARCCOS_SLACK, 1+ARCCOS_SLACK] are a hard error
ARCCOS_SLACK = 1e-9
# a spectrum whose norm is at most this has no spectral angle
ZERO_NORM_EPS = 1e-12

# Python floats: a np.float64 scalar would promote a float32 array
_INV_SQRT2 = float(1.0 / np.sqrt(2.0))
_INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))

# Cephes' erf coefficients, highest power first, numerator and monic
# denominator side by side: x T(x^2) / U(x^2) for |x| <= 1, and
# 1 - exp(-x^2) P(x) / Q(x) beyond. The 0 pads T to U's length, and the
# 1s are U's and Q's leading coefficients, implicit in Cephes' p1evl.
_ERF_TU = (
    (0.0, 1.0),
    (9.60497373987051638749e0, 3.35617141647503099647e1),
    (9.00260197203842689217e1, 5.21357949780152679795e2),
    (2.23200534594684319226e3, 4.59432382970980127987e3),
    (7.00332514112805075473e3, 2.26290000613890934246e4),
    (5.55923013010394962768e4, 4.92673942608635921086e4),
)
_ERF_PQ = (
    (2.46196981473530512524e-10, 1.0),
    (5.64189564831068821977e-1, 1.32281951154744992508e1),
    (7.46321056442269912687e0, 8.67072140885989742329e1),
    (4.86371970985681366614e1, 3.54937778887819891062e2),
    (1.96520832956077098242e2, 9.75708501743205489753e2),
    (5.26445194995477358631e2, 1.82390916687909736289e3),
    (9.34528527171957607540e2, 2.24633760818710981792e3),
    (1.02755188689515710272e3, 1.65666309194161350182e3),
    (5.57535335369399327526e2, 5.57535340817727675546e2),
)
# erf rounds to 1 for |x| >= 6; clipping there also covers +-inf
_ERF_ONE_AT = 6.0
# elements per block of an elementwise or row-wise pass, so that its
# temporaries (six in erf: 1.5 MB in float64, half that in float32)
# stay in a 2 MB L2 cache
_BLOCK = 1 << 15
_F32 = np.dtype(np.float32)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the operation's domain."""


def _floating(x):
    """x as an array: float32 stays float32, anything else is float64."""
    x = np.asarray(x)
    return x if x.dtype == _F32 else x.astype(np.float64, copy=False)


class Tensor:
    """A float32 or float64 array (any other dtype is cast to float64)
    plus the bookkeeping for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = _floating(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ---------------------------------------------------

    def _accumulate(self, g):
        """Add g to .grad, in the tensor's dtype. As no gradient array is
        written after it is made, a C-contiguous first g of that dtype is
        kept, shared or read-only; any other is copied, cast once, and
        each later g makes a fresh sum."""
        dtype = self.data.dtype
        if self.grad is not None:  # an array at 0-d too, not a scalar
            self.grad = np.asarray(np.add(self.grad, g, dtype=dtype))
        elif (type(g) is np.ndarray and g.dtype == dtype
              and g.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.array(g, dtype=dtype, copy=True)

    def backward(self):
        """Reverse-mode sweep from a scalar root; fills .grad on leaves and
        frees the graph as PyTorch does: after its backward, an inner node
        drops its closure, its parents and, unless it is the root, its grad."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ShapeError(
                f"backward root must be scalar, got shape {self.data.shape}")
        topo, seen, stack = [], set(), [(self, False)]
        while stack:  # depth-first, each node after its parents
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in node._parents
                             if id(p) not in seen)
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents and node is not self:
                node.grad = None
            node._backward, node._parents = None, ()


def _result(data, parents, backward):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _reduce_to(grad, shape):
    """Undo a broadcast: sum grad over the leading axes its operand lacks,
    then over the axes where the operand has extent 1."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    if lead:
        grad = np.sum(grad.reshape((-1,) + grad.shape[lead:]), axis=0)
    spread = tuple(i for i, n in enumerate(shape) if n == 1 != grad.shape[i])
    return np.sum(grad, axis=spread, keepdims=True) if spread else grad


# -- elementwise ---------------------------------------------------------


def add(a, b):
    """Elementwise sum under numpy broadcasting, e.g. (T, d) positional
    rows added to (B, T, d) embeddings, or (K, d) rows to (n, 1, d) ones.
    Each operand's gradient is summed back over its broadcast axes."""
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} "
                         "do not broadcast") from None

    def backward(g):
        for t in (a, b):
            if t.requires_grad:
                t._accumulate(_reduce_to(g, t.data.shape))

    return _result(out, (a, b), backward)


def scale(a, c):
    c = float(c)

    def backward(g):
        a._accumulate(g * c)

    return _result(a.data * c, (a,), backward)


def _numer_denom(x, table):
    """Numerator and denominator of the rational function `table` at the
    points x, each by Horner's rule, rounding as Cephes does."""
    (n0, d0), (n1, d1) = table[:2]
    num = n0 * x
    num += n1
    den = d0 * x
    den += d1
    for cn, cd in table[2:]:
        num *= x
        num += cn
        den *= x
        den += cd
    return num, den


def _erf_block(x, out):
    """erf of the 1-D array x, written to out."""
    ax = np.abs(x)
    near = np.minimum(ax, 1.0)
    num, den = _numer_denom(near * near, _ERF_TU)
    y = near * num
    y /= den
    far = np.nonzero(ax > 1.0)[0]
    if far.size:
        a = np.minimum(ax[far], _ERF_ONE_AT)
        num, den = _numer_denom(a, _ERF_PQ)
        a *= -a
        e = np.exp(a)
        e *= num
        e /= den
        y[far] = 1.0 - e
    np.copysign(y, x, out=out)


def erf(x):
    """The error function of an array, in float32 for a float32 array and
    in float64 otherwise (see the module docstring for the algorithm).

    The |x| <= 1 formula runs on every element at |x| clamped to 1, which
    costs less than gathering those elements; the |x| > 1 formula runs
    only on the elements beyond 1, and not at all when there are none.
    Long arrays go in blocks whose temporaries fit a core's L2 cache; on
    a Xeon with 2 MB of L2, a (768, 256) array took 2.5 times as long in
    one piece.
    """
    x = _floating(x)
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        _erf_block(flat[i:i + _BLOCK], out[i:i + _BLOCK])
    return out.reshape(x.shape)


def gelu(a):
    """Exact-erf GELU: x * Phi(x)."""
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def backward(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
        a._accumulate(g * (cdf + x * pdf))

    return _result(x * cdf, (a,), backward)


# -- reductions and shape ops --------------------------------------------


def tsum(a, axis=None):
    def backward(g):  # a stride-0 view, which _accumulate copies or adds
        a._accumulate(np.broadcast_to(
            g if axis is None else np.expand_dims(g, axis), a.data.shape))

    return _result(np.sum(a.data, axis=axis), (a,), backward)


def tmean(a, axis=None):
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def reshape(a, shape):
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape {a.data.shape} -> {shape}: size mismatch")

    def backward(g):
        a._accumulate(g.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), backward)


def gather_rows(a, keep):
    """The rows of a matrix where the bool vector keep is True, in order."""
    keep = np.asarray(keep)
    if a.data.ndim != 2 or keep.dtype != bool or keep.shape != a.shape[:1]:
        raise ShapeError(f"gather_rows: {a.data.shape} matrix with a "
                         f"{keep.dtype} {keep.shape} row mask")

    def backward(g):
        acc = np.zeros_like(a.data)
        acc[keep] = g
        a._accumulate(acc)

    return _result(a.data[keep], (a,), backward)


def place_rows(rows, at, fill):
    """The transpose of gather_rows: a matrix with the (n, d) rows, in
    order, where the bool vector at is True and the (d,) fill elsewhere."""
    at = np.asarray(at)
    if (at.dtype != bool or at.ndim != 1 or rows.data.ndim != 2
            or rows.shape[0] != np.count_nonzero(at)
            or fill.shape != rows.shape[1:]):
        raise ShapeError(f"place_rows: rows {rows.shape} at a {at.dtype} "
                         f"{at.shape} mask, fill {fill.shape}")
    out = np.empty((at.size,) + fill.shape,
                   np.result_type(rows.data, fill.data))
    out[at] = rows.data
    out[~at] = fill.data

    def backward(g):
        if rows.requires_grad:
            rows._accumulate(g[at])
        if fill.requires_grad:
            fill._accumulate(g[~at].sum(axis=0))

    return _result(out, (rows, fill), backward)


# -- linear algebra -------------------------------------------------------


def matmul(a, b, bias=None):
    """(..., m, k) @ (k, n), or batched (..., m, k) @ (..., k, n), plus an
    optional bias whose shape broadcasts to the product's, e.g. (n,).

    A shared (k, n) right operand is applied to each leading index in
    turn, one matrix product per window, as numpy does. The bias is
    added in place into the product, with the bits of add(matmul(a, b),
    bias) but no pre-bias product kept; its gradient is summed back over
    its broadcast axes, as add's is.
    """
    if a.data.ndim < 2 or b.data.ndim < 2 or (
            b.data.ndim > 2 and b.data.shape[:-2] != a.data.shape[:-2]):
        raise ShapeError(
            f"matmul expects matrices, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: inner extents differ, {a.data.shape} vs {b.data.shape}")
    out = a.data @ b.data
    if bias is not None:  # in place, unless the bias promotes the product
        if bias.data.ndim > out.ndim or any(n not in (1, m) for n, m in zip(
                bias.shape[::-1], out.shape[::-1])):
            raise ShapeError(f"matmul: a {bias.shape} bias for {out.shape}")
        same = np.promote_types(out.dtype, bias.data.dtype) == out.dtype
        out = np.add(out, bias.data, out=out if same else None)

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(_reduce_to(g, bias.data.shape))
        if a.requires_grad:
            a._accumulate(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            if b.data.ndim == a.data.ndim:
                b._accumulate(a.data.swapaxes(-1, -2) @ g)
            else:  # shared operand: sum over the leading axes
                rows = a.data.reshape(-1, a.data.shape[-1])
                b._accumulate(rows.T @ g.reshape(-1, g.shape[-1]))

    parents = (a, b) if bias is None else (a, b, bias)
    return _result(out, parents, backward)


def softmax(a, axis=-1):
    x = a.data
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        inner = np.sum(g * out_data, axis=axis, keepdims=True)
        a._accumulate(out_data * (g - inner))

    return _result(out_data, (a,), backward)


def cross_entropy(logits, labels):
    """Mean over the rows of (B, C) logits of -log softmax(row)[label] for
    (B,) class ids, as logsumexp(row - max) - (row - max)[label]: no log of
    an underflowed probability. Gradient: (softmax - onehot) / B."""
    labels = np.asarray(labels)
    x = logits.data
    if (x.ndim != 2 or labels.shape != x.shape[:1] or not labels.size
            or labels.dtype.kind not in "iu"
            or not np.all((labels >= 0) & (labels < x.shape[1]))):
        raise ShapeError(f"cross_entropy: {x.shape} logits with "
                         f"{labels.dtype} {labels.shape} class ids")
    rows = np.arange(labels.size)
    shifted = x - np.max(x, axis=1, keepdims=True)
    e = np.exp(shifted)
    total = np.sum(e, axis=1)

    def backward(g):
        grad = e / total[:, None]
        grad[rows, labels] -= 1.0
        logits._accumulate(grad * (g / labels.size))

    return _result(np.mean(np.log(total) - shifted[rows, labels]),
                   (logits,), backward)


def _sum_products(a, b, axes):
    """sum(a * b) over `axes`, kept at extent 1, as one einsum: it forms
    no product array, and runs on one thread."""
    idx = list(range(a.ndim))
    axes = {ax % a.ndim for ax in np.atleast_1d(axes)}
    out = np.einsum(a, idx, b, idx, [i for i in idx if i not in axes])
    return out.reshape([1 if i in axes else n for i, n in enumerate(a.shape)])


def rec_objective(y, y_hat, mask, alpha, view, axes):
    """alpha * MSE + (1 - alpha) * SAM of the (..., n, m) rows y_hat
    against a constant y, as one graph node: the MSE over the rows where
    the (..., n) bool mask is True, and the mean angle between spectra
    along `axes` of the rows' reshape `view`, a pixel being one index of
    the other axes (those before the first of `axes` index whole rows).
    Returns the total Tensor, l_mse and l_sam, all float64, and each
    pixel's cosine, `axes` kept at extent 1. A pixel whose true or
    predicted norm is at most ZERO_NORM_EPS is left out (cosine NaN); a
    non-finite norm is a FloatingPointError; a mask with no True row, no
    pixel left or a cosine beyond 1 + ARCCOS_SLACK a DomainError. Cosines
    are clamped ARCCOS_CLAMP from +-1. The terms compute on one float64
    copy of the rows, freed by the forward; backward rebuilds it in
    blocks of about _BLOCK elements and hands y_hat the sum of the two
    terms' gradients, each cast to y_hat's dtype first.
    """
    mask, y, rows = np.asarray(mask), np.asarray(y, np.float64), y_hat.data
    first = min(ax % len(view) for ax in np.atleast_1d(axes))
    cells, cell = int(np.prod(view[:first])), int(np.prod(view[first:]))
    if (y.shape != rows.shape or mask.shape != y.shape[:-1]
            or mask.dtype != bool or cells * cell != y.size
            or cell % y.shape[-1]):
        raise ShapeError(f"rec_objective: {y.shape}, {rows.shape}, a "
                         f"{mask.dtype} {mask.shape} row mask and a view "
                         f"{tuple(view)} with spectra along {axes}")
    n = np.count_nonzero(mask)
    if not n:
        raise DomainError("rec_objective: the mask selects no row")
    alpha, c_mse = float(alpha), 1.0 / (n * y.shape[-1])
    x = np.array(rows, np.float64)  # the one float64 copy
    yv, xv = y.reshape(view), x.reshape(view)
    dots = _sum_products(yv, xv, axes)
    ny = np.sqrt(_sum_products(yv, yv, axes))
    nyh = np.sqrt(_sum_products(xv, xv, axes))
    if not (np.isfinite(ny).all() and np.isfinite(nyh).all()):
        raise FloatingPointError("non-finite spectrum norm")
    valid = (ny > ZERO_NORM_EPS) & (nyh > ZERO_NORM_EPS)
    if not valid.any():
        raise DomainError("every pixel has a zero-norm spectrum")
    if not valid.all():  # a pixel without an angle: unit norms, cosine 0
        ny, nyh = np.where(valid, ny, 1.0), np.where(valid, nyh, 1.0)
        dots = np.where(valid, dots, 0.0)
    norms = ny * nyh
    cos = dots / norms
    if np.any(np.abs(cos) > 1.0 + ARCCOS_SLACK):
        raise DomainError(f"cosines outside [-1, 1]: {cos.min()}, {cos.max()}")
    clamped = np.clip(cos, -1.0 + ARCCOS_CLAMP, 1.0 - ARCCOS_CLAMP)
    c_sam = 1.0 / np.count_nonzero(valid)
    l_sam = np.sum(np.arccos(clamped), where=valid) * c_sam
    d = np.subtract(y, x, out=x)  # the copy becomes y - y_hat
    d[~mask] = 0.0
    l_mse = np.einsum("i,i->", d.ravel(), d.ravel()) * c_mse

    def backward(g):
        # d angle / d x = -1/sqrt(1 - cos^2) (y / norms - cos x / nyh^2)
        gc = np.where(valid, -float(g * (1.0 - alpha) * c_sam)
                      / np.sqrt(1.0 - clamped * clamped), 0.0)
        f_y, f_x = (f.reshape(cells, *f.shape[first:])
                    for f in (gc / norms, gc * cos / (nyh * nyh)))
        f_mse = -2.0 * float(g * alpha * c_mse)
        out = np.empty(rows.shape, rows.dtype)
        y_c, x_c, out_c = (a.reshape(cells, *view[first:])
                           for a in (y, rows, out))
        drop, step = ~mask.reshape(cells, -1), max(1, _BLOCK // cell)
        for at in (slice(i, i + step) for i in range(0, cells, step)):
            xb = x_c[at].astype(np.float64)
            mse = y_c[at] - xb
            mse.reshape(-1, y.shape[-1])[drop[at].ravel()] = 0.0
            mse *= f_mse
            sam = f_y[at] * y_c[at]
            sam -= f_x[at] * xb
            np.add(mse.astype(out.dtype), sam.astype(out.dtype),
                   out=out_c[at])
        y_hat._accumulate(out)

    total = _result(l_mse * alpha + l_sam * (1.0 - alpha), (y_hat,), backward)
    return total, l_mse, l_sam, np.where(valid, cos, np.nan)


def _row_blocks(x):
    """Consecutive blocks of whole rows of the C-contiguous array x, as
    views of its (rows, n) form, each of at most _BLOCK elements or one
    row. An array of at most _BLOCK elements is one block."""
    rows = x.reshape(-1, x.shape[-1])
    step = max(1, _BLOCK // rows.shape[1])
    return [rows[i:i + step] for i in range(0, rows.shape[0], step)]


def attention(q, k, v, n_heads):
    """Multi-head scaled dot-product attention, every head in one pass.

    q is (..., Tq, d), and k and v are (..., Tk, d) with q's leading axes.
    Each is split into n_heads contiguous (..., T, d/n_heads) heads, and
    softmax(q k^T / sqrt(d/n_heads)) v of every head is merged back into
    (..., Tq, d). Backward works from the saved probabilities alone, as
    FlashAttention's does (Dao et al., 2022). Each product is one batched
    matmul over every head; only the row-wise passes (the softmax, and
    dS = P*(dP - rowsum(dP*P)) in place in dP) go over the (..., Tq, Tk)
    scores in blocks of whole rows that fit the L2 cache. Each head's
    products and the softmax run in the same order, on the same
    contiguous blocks, as a graph of one slice, matmul, scale and softmax
    per head, so the bits agree.
    """
    shape, kv = q.data.shape, k.data.shape
    if (len(shape) < 2 or len(kv) != len(shape) or v.data.shape != kv
            or kv[:-2] + kv[-1:] != shape[:-2] + shape[-1:]
            or n_heads < 1 or shape[-1] % n_heads):
        raise ShapeError(f"attention: q {shape}, k {kv}, "
                         f"v {v.data.shape} with {n_heads} heads")
    *lead, _, d = shape
    dh = d // n_heads
    c = float(1.0 / np.sqrt(dh))

    def heads(x, transposed=False):
        """(..., T, d) -> contiguous (..., H, T, dh), or (..., H, dh, T)."""
        x = x.reshape(*lead, -1, n_heads, dh).swapaxes(-3, -2)
        return np.ascontiguousarray(x.swapaxes(-1, -2) if transposed else x)

    # (..., H, T, dh) -> (..., T, d); C order also for gradients, whose
    # layout sets how a later row sum (a bias gradient) rounds
    def merge(x):
        return np.ascontiguousarray(x.swapaxes(-3, -2)).reshape(*lead, -1, d)

    qh, kt, vh = heads(q.data), heads(k.data, transposed=True), heads(v.data)
    p = qh @ kt
    for s in _row_blocks(p):
        s *= c
        s -= np.max(s, axis=-1, keepdims=True)
        np.exp(s, out=s)
        s /= np.sum(s, axis=-1, keepdims=True)

    def backward(g):
        go = heads(g)
        if v.requires_grad:
            v._accumulate(merge(p.swapaxes(-1, -2) @ go))
        ds = go @ vh.swapaxes(-1, -2)  # dP, turned into dS in place
        for d, s in zip(_row_blocks(ds), _row_blocks(p)):
            d -= np.sum(d * s, axis=-1, keepdims=True)
            d *= s
            d *= c
        if q.requires_grad:
            q._accumulate(merge(ds @ kt.swapaxes(-1, -2)))
        if k.requires_grad:
            k._accumulate(merge((qh.swapaxes(-1, -2) @ ds).swapaxes(-1, -2)))

    return _result(merge(p @ vh), (q, k, v), backward)


def layer_norm(a, gain, bias, eps=1e-6):
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    if eps < 0:
        raise DomainError("layer_norm eps must be >= 0")
    n = a.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(
            f"layer_norm affine params must have shape ({n},), got "
            f"{gain.data.shape} and {bias.data.shape}")
    # np.add.reduce(...) / n is what np.mean computes, without its wrapper
    mu = np.add.reduce(a.data, axis=-1, keepdims=True) / n
    var = np.add.reduce((a.data - mu) ** 2, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv_std

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(np.sum(g * xhat, axis=tuple(range(g.ndim - 1))))
        if bias.requires_grad:
            bias._accumulate(np.sum(g, axis=tuple(range(g.ndim - 1))))
        if a.requires_grad:
            gx = g * gain.data
            m1 = np.add.reduce(gx, axis=-1, keepdims=True) / n
            m2 = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n
            a._accumulate(inv_std * (gx - m1 - xhat * m2))

    return _result(gain.data * xhat + bias.data, (a, gain, bias), backward)


def check_finite(t, context=""):
    if not np.all(np.isfinite(t.data)):
        raise FloatingPointError(f"non-finite values encountered {context}")
