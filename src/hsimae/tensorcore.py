"""Dense float64 tensors with reverse-mode automatic differentiation.

Small, CPU-only engine: enough operations for a transformer
encoder/decoder, the reconstruction losses, and an AdamW optimizer.
All arithmetic is 64-bit. `add`, `sub`, `mul` and `div` broadcast as
numpy does, and their backward sums over the broadcast axes. Row layout
is boolean masks: `gather_rows` selects rows and `place_rows`, its
transpose, puts them back among fill rows.
The error function behind GELU is Cephes' `ndtr.c` erf (Moshier, 1989),
the algorithm scipy.special.erf runs: bit-identical to it for |x| <= 1,
and within 1 ulp beyond, where numpy's exp may round differently from
the C library's.
"""

import numpy as np

# arccos input is clamped into this open interval so the gradient
# -1/sqrt(1-x^2) stays finite for (anti)parallel spectra.
ARCCOS_CLAMP = 1e-7
# inputs outside [-1-ARCCOS_SLACK, 1+ARCCOS_SLACK] are a hard error
ARCCOS_SLACK = 1e-9

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)

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
# float64 temporaries (six in erf, 1.5 MB) stay in a 2 MB L2 cache
_BLOCK = 1 << 15


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Operand values lie outside the operation's domain."""


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "_owns_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._owns_grad = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ---------------------------------------------------

    def _accumulate(self, g):
        """Add g to .grad. A first gradient that is a writeable, C-contiguous
        float64 array is kept without a copy; such a borrowed array may be
        shared with other tensors and is never written, so the next
        gradient makes a fresh sum, and later ones add in place."""
        if self.grad is None:
            if (type(g) is np.ndarray and g.dtype == np.float64
                    and g.flags.c_contiguous and g.flags.writeable):
                self.grad, self._owns_grad = g, False
            else:
                self.grad = np.array(g, dtype=np.float64, copy=True)
                self._owns_grad = True
        elif self._owns_grad:
            self.grad += g
        else:
            self.grad, self._owns_grad = self.grad + g, True

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


def _wrap(other):
    if isinstance(other, Tensor):
        return other
    return Tensor(other)


def _result(data, parents, backward):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _reduce_to(grad, shape):
    """Undo a broadcast: sum grad over the leading axes its operand lacks,
    then over the axes where the operand has extent 1."""
    if grad.shape == shape:
        return grad
    if not shape:
        return np.sum(grad).reshape(shape)
    lead = grad.ndim - len(shape)
    if lead:
        grad = np.sum(grad.reshape((-1,) + grad.shape[lead:]), axis=0)
    spread = tuple(i for i, n in enumerate(shape) if n == 1 != grad.shape[i])
    return np.sum(grad, axis=spread, keepdims=True) if spread else grad


# -- elementwise ---------------------------------------------------------


def _broadcast_op(op, a, b, fn, grad_a, grad_b):
    """fn(a, b) under numpy broadcasting. grad_a(g, a, b) and
    grad_b(g, a, b) are each operand's gradient at the output's shape,
    summed back over the axes that operand was broadcast along."""
    a, b = _wrap(a), _wrap(b)
    try:
        out = fn(a.data, b.data)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast"
        ) from None

    def backward(g):
        if a.requires_grad:
            a._accumulate(_reduce_to(grad_a(g, a.data, b.data), a.data.shape))
        if b.requires_grad:
            b._accumulate(_reduce_to(grad_b(g, a.data, b.data), b.data.shape))

    return _result(out, (a, b), backward)


def add(a, b):
    """Elementwise sum, e.g. (T, d) positional rows added to (B, T, d)
    embeddings, or (K, d) rows to (n, 1, d) ones."""
    return _broadcast_op("add", a, b, np.add,
                         lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _broadcast_op("sub", a, b, np.subtract,
                         lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _broadcast_op("mul", a, b, np.multiply,
                         lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b):
    return _broadcast_op("div", a, b, np.true_divide,
                         lambda g, x, y: g / y,
                         lambda g, x, y: -g * x / (y * y))


def scale(a, c):
    a = _wrap(a)
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * c)

    return _result(a.data * c, (a,), backward)


def sqrt(a):
    a = _wrap(a)
    if np.any(a.data < 0):
        raise DomainError("sqrt of negative value")
    out_data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * 0.5 / out_data)

    return _result(out_data, (a,), backward)


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
    """The error function of a float64 array (see the module docstring).

    The |x| <= 1 formula runs on every element at |x| clamped to 1, which
    costs less than gathering those elements; the |x| > 1 formula runs
    only on the elements beyond 1, and not at all when there are none.
    Long arrays go in blocks whose temporaries fit a core's L2 cache; on
    a Xeon with 2 MB of L2, a (768, 256) array took 2.5 times as long in
    one piece.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        _erf_block(flat[i:i + _BLOCK], out[i:i + _BLOCK])
    return out.reshape(x.shape)


def gelu(a):
    """Exact-erf GELU: x * Phi(x)."""
    a = _wrap(a)
    x = a.data
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))

    def backward(g):
        if a.requires_grad:
            pdf = _INV_SQRT2PI * np.exp(-0.5 * x * x)
            a._accumulate(g * (cdf + x * pdf))

    return _result(x * cdf, (a,), backward)


def arccos(a):
    """Arccos with inputs clamped away from +-1; gradient at the clamp."""
    a = _wrap(a)
    x = a.data
    if np.any(x < -1.0 - ARCCOS_SLACK) or np.any(x > 1.0 + ARCCOS_SLACK):
        raise DomainError(
            f"arccos input outside [-1, 1]: range [{x.min()}, {x.max()}]")
    clamped = np.clip(x, -1.0 + ARCCOS_CLAMP, 1.0 - ARCCOS_CLAMP)

    def backward(g):
        if a.requires_grad:
            a._accumulate(-g / np.sqrt(1.0 - clamped * clamped))

    return _result(np.arccos(clamped), (a,), backward)


# -- reductions and shape ops --------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)

    def backward(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accumulate(np.full(a.data.shape, float(g)))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(gg, a.data.shape))

    return _result(np.sum(a.data, axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape):
    a = _wrap(a)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape {a.data.shape} -> {shape}: size mismatch")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.data.shape))

    return _result(a.data.reshape(shape), (a,), backward)


def transpose(a, axes):
    """Permute axes as numpy does."""
    a = _wrap(a)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"transpose axes {axes} invalid for shape {a.data.shape}")
    inverse = np.argsort(axes)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.transpose(inverse))

    return _result(a.data.transpose(axes).copy(), (a,), backward)


def gather_rows(a, keep):
    """The rows of a matrix where the bool vector keep is True, in order."""
    a, keep = _wrap(a), np.asarray(keep)
    if a.data.ndim != 2 or keep.dtype != bool or keep.shape != a.shape[:1]:
        raise ShapeError(f"gather_rows: {a.data.shape} matrix with a "
                         f"{keep.dtype} {keep.shape} row mask")

    def backward(g):
        if a.requires_grad:
            acc = np.zeros_like(a.data)
            acc[keep] = g
            a._accumulate(acc)

    return _result(a.data[keep], (a,), backward)


def place_rows(rows, at, fill):
    """The transpose of gather_rows: a matrix with the (n, d) rows, in
    order, where the bool vector at is True and the (d,) fill elsewhere."""
    rows, fill, at = _wrap(rows), _wrap(fill), np.asarray(at)
    if (at.dtype != bool or at.ndim != 1 or rows.data.ndim != 2
            or rows.shape[0] != np.count_nonzero(at)
            or fill.shape != rows.shape[1:]):
        raise ShapeError(f"place_rows: rows {rows.shape} at a {at.dtype} "
                         f"{at.shape} mask, fill {fill.shape}")
    out = np.empty((at.size,) + fill.shape)
    out[at] = rows.data
    out[~at] = fill.data

    def backward(g):
        if rows.requires_grad:
            rows._accumulate(g[at])
        if fill.requires_grad:
            fill._accumulate(g[~at].sum(axis=0))

    return _result(out, (rows, fill), backward)


# -- linear algebra -------------------------------------------------------


def matmul(a, b):
    """(..., m, k) @ (k, n), or batched (..., m, k) @ (..., k, n).

    A shared (k, n) right operand is applied to each leading index in
    turn, one matrix product per window, as numpy does.
    """
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or (
            b.data.ndim > 2 and b.data.shape[:-2] != a.data.shape[:-2]):
        raise ShapeError(
            f"matmul expects matrices, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(
            f"matmul: inner extents differ, {a.data.shape} vs {b.data.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            if b.data.ndim == a.data.ndim:
                b._accumulate(a.data.swapaxes(-1, -2) @ g)
            else:  # shared operand: sum over the leading axes
                rows = a.data.reshape(-1, a.data.shape[-1])
                b._accumulate(rows.T @ g.reshape(-1, g.shape[-1]))

    return _result(a.data @ b.data, (a, b), backward)


def softmax(a, axis=-1):
    a = _wrap(a)
    x = a.data
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = np.sum(g * out_data, axis=axis, keepdims=True)
            a._accumulate(out_data * (g - inner))

    return _result(out_data, (a,), backward)


def cross_entropy(logits, labels):
    """Mean over the rows of (B, C) logits of -log softmax(row)[label] for
    (B,) class ids, as logsumexp(row - max) - (row - max)[label]: no log of
    an underflowed probability. Gradient: (softmax - onehot) / B."""
    logits, labels = _wrap(logits), np.asarray(labels)
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
        if logits.requires_grad:
            grad = e / total[:, None]
            grad[rows, labels] -= 1.0
            logits._accumulate(grad * (g / labels.size))

    return _result(np.mean(np.log(total) - shifted[rows, labels]),
                   (logits,), backward)


def _row_blocks(x):
    """Consecutive blocks of whole rows of the C-contiguous array x, as
    views of its (rows, n) form, each of at most _BLOCK elements or one
    row. An array of at most _BLOCK elements is one block."""
    rows = x.reshape(-1, x.shape[-1])
    step = max(1, _BLOCK // rows.shape[1])
    return [rows[i:i + step] for i in range(0, rows.shape[0], step)]


def attention(q, k, v, n_heads):
    """Multi-head scaled dot-product attention, every head in one pass.

    q, k and v are (..., T, d). Each is split into n_heads contiguous
    (..., T, d/n_heads) heads, and softmax(q k^T / sqrt(d/n_heads)) v of
    every head is merged back into (..., T, d). Backward works from the
    saved probabilities alone, as FlashAttention's does (Dao et al.,
    2022). Each product is one batched matmul over every head; only the
    row-wise passes (the softmax, and dS = P*(dP - rowsum(dP*P)) in
    place in dP) go over the (..., T, T) scores in blocks of whole rows
    that fit the L2 cache, and make no T x T temporary. Each head's
    products and the softmax run in the same order, on the same
    contiguous blocks, as a graph of one slice, matmul, scale and softmax
    per head, so the bits agree.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    shape = q.data.shape
    if (len(shape) < 2 or k.data.shape != shape or v.data.shape != shape
            or n_heads < 1 or shape[-1] % n_heads):
        raise ShapeError(f"attention: q {shape}, k {k.data.shape}, "
                         f"v {v.data.shape} with {n_heads} heads")
    *lead, n, d = shape
    dh = d // n_heads
    c = float(1.0 / np.sqrt(dh))

    def heads(x, transposed=False):
        """(..., T, d) -> contiguous (..., H, T, dh), or (..., H, dh, T)."""
        x = x.reshape(*lead, n, n_heads, dh).swapaxes(-3, -2)
        return np.ascontiguousarray(x.swapaxes(-1, -2) if transposed else x)

    # (..., H, T, dh) -> (..., T, d); C order also for gradients, whose
    # layout sets how a later row sum (a bias gradient) rounds
    def merge(x):
        return np.ascontiguousarray(x.swapaxes(-3, -2)).reshape(shape)

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
    a, gain, bias = _wrap(a), _wrap(gain), _wrap(bias)
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
