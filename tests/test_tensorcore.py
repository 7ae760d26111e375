import os
import pathlib
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from hsimae import tensorcore as tc
from fdcheck import finite_diff_grad, assert_grads_close


def _grad_of(build, *arrays):
    """Run build(*tensors), backward, return per-input gradients."""
    tensors = [tc.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    return [t.grad for t in tensors]


def _scalar_fn(build):
    def f(*arrays):
        return float(build(*[tc.Tensor(a) for a in arrays]).data)
    return f


class TestMatmul:
    def test_identity(self):
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = tc.matmul(tc.Tensor(np.eye(2)), tc.Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_zeros(self):
        out = tc.matmul(tc.Tensor(np.zeros((2, 3))), tc.Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_triple_loop_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected[i, j] += a[i, k] * b[k, j]
        np.testing.assert_array_equal(expected, [[19.0, 22.0], [43.0, 50.0]])
        out = tc.matmul(tc.Tensor(a), tc.Tensor(b))
        np.testing.assert_allclose(out.data, expected)

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(tc.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            tc.matmul(tc.Tensor(np.zeros((2, 3))), tc.Tensor(np.zeros((4, 2))))


class TestElementwise:
    def test_add_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = tc.add(tc.Tensor(x), tc.Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_shape_mismatch(self):
        with pytest.raises(tc.ShapeError):
            tc.add(tc.Tensor(np.zeros(3)), tc.Tensor(np.zeros(4)))

    def test_scalar_broadcast(self):
        out = tc.mul(tc.Tensor(np.array([1.0, 2.0])), tc.Tensor(3.0))
        np.testing.assert_array_equal(out.data, [3.0, 6.0])

    def test_arccos_boundary(self):
        out = tc.arccos(tc.Tensor(1.0))
        assert abs(float(out.data)) < 1e-3  # clamp-limited, not exactly 0
        assert float(out.data) == pytest.approx(np.arccos(1.0 - 1e-7))

    def test_arccos_domain_error(self):
        with pytest.raises(tc.DomainError):
            tc.arccos(tc.Tensor(1.0 + 1e-6))

    def test_gelu_scalar_oracle(self):
        # high-precision x * Phi(x) at x = 1
        from scipy.stats import norm
        expected = 1.0 * norm.cdf(1.0)
        out = tc.gelu(tc.Tensor(1.0))
        assert float(out.data) == pytest.approx(expected, abs=1e-12)
        assert float(out.data) == pytest.approx(0.8413, abs=1e-4)


def _assert_erf_matches_scipy(x):
    """Bit-identical for |x| <= 1 (and NaN), within 1 ulp beyond."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = tc.erf(x)
    want = scipy_erf(x)
    near = ~(np.abs(x) > 1.0)
    assert np.array_equal(got[near], want[near], equal_nan=True)
    # erf keeps the sign of x, so same-sign bit patterns count ulps
    assert np.array_equal(np.signbit(got), np.signbit(want))
    ulps = np.abs(got[~near].view(np.int64) - want[~near].view(np.int64))
    assert ulps.max(initial=0) <= 1


class TestErf:
    @pytest.mark.parametrize("scale", [0.05, 0.7, 1.5, 8.0])
    def test_matches_scipy_on_normal_draws(self, scale):
        x = np.random.default_rng(zlib.crc32(str(scale).encode()))
        x = x.standard_normal(1_000_000) * scale
        _assert_erf_matches_scipy(x)

    def test_edge_values(self):
        tiny = np.nextafter(0.0, 1.0)
        past_one = np.nextafter(1.0, 2.0)
        x = np.array([0.0, -0.0, 1.0, -1.0, past_one, -past_one, 6.0, -6.0,
                      np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -2e-308])
        _assert_erf_matches_scipy(x)
        y = tc.erf(x)
        assert np.array_equal(np.signbit(y[:2]), [False, True])
        assert np.array_equal(y[6:10], [1.0, -1.0, 1.0, -1.0])
        assert np.isnan(y[10])

    def test_keeps_shape(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert tc.erf(x).shape == (2, 3, 4)
        assert tc.erf(np.float64(0.5)).shape == ()
        assert tc.erf(x[:, ::2]).tolist() == scipy_erf(x[:, ::2]).tolist()

    def test_cli_loads_no_scipy(self, tmp_path):
        root = pathlib.Path(__file__).resolve().parents[1]
        out = str(tmp_path / "c.hsc")
        code = ("import sys\n"
                "from hsimae import cli\n"
                "assert cli.main(['gen-synth', '--h', '9', '--w', '9', "
                f"'--b', '8', '--classes', '2', '--out', {out!r}]) == 0\n"
                "print(sorted(m for m in sys.modules "
                "if m.partition('.')[0] == 'scipy'))\n")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestSoftmax:
    def test_symmetry(self):
        out = tc.softmax(tc.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.full(3, 1.0 / 3.0))

    def test_shift_invariance(self):
        x = np.array([0.3, -1.2, 2.4, 0.0])
        a = tc.softmax(tc.Tensor(x)).data
        b = tc.softmax(tc.Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_scalar_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        e = [np.exp(v) for v in x]
        expected = np.array([v / sum(e) for v in e])
        out = tc.softmax(tc.Tensor(x))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)
        np.testing.assert_allclose(out.data, [0.09003, 0.24473, 0.66524],
                                   atol=1e-5)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 5))
        out = tc.softmax(tc.Tensor(x), axis=-1)
        assert np.all(out.data > 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=1e-12)


class TestCrossEntropy:
    def test_finite_past_softmax_underflow(self):
        # softmax(row)[0] underflows to 0 here; its log would be -inf
        x = tc.Tensor(np.array([[0.0, 760.0]]), requires_grad=True)
        out = tc.cross_entropy(x, [0])
        assert float(out.data) == 760.0
        out.backward()
        np.testing.assert_array_equal(x.grad, [[-1.0, 1.0]])

    @pytest.mark.parametrize("shape, labels", [
        ((3,), [0, 1, 2]), ((2, 3), [0]), ((2, 3), [0, 3]), ((2, 3), [0, -1]),
        ((2, 3), [0.0, 1.0]), ((0, 3), []),
    ], ids=["1-D", "count", "past-C", "negative", "float", "empty"])
    def test_shape_errors(self, shape, labels):
        with pytest.raises(tc.ShapeError, match="cross_entropy"):
            tc.cross_entropy(tc.Tensor(np.zeros(shape)), np.array(labels))


class TestLayerNorm:
    def test_constant_vector(self):
        out = tc.layer_norm(tc.Tensor(np.full((2, 4), 7.0)),
                            tc.Tensor(np.ones(4)), tc.Tensor(np.zeros(4)),
                            eps=1e-6)
        np.testing.assert_allclose(out.data, np.zeros((2, 4)))

    def test_mean_and_std(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 64))
        gain = np.full(64, 2.0)
        bias = np.full(64, -1.0)
        out = tc.layer_norm(tc.Tensor(x), tc.Tensor(gain), tc.Tensor(bias),
                            eps=1e-12).data
        np.testing.assert_allclose(out.mean(axis=-1), np.full(3, -1.0), atol=1e-9)
        np.testing.assert_allclose(out.std(axis=-1), np.full(3, 2.0), rtol=1e-5)

    def test_scalar_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        mu, var = 2.0, 2.0 / 3.0
        expected = (x - mu) / np.sqrt(var)
        out = tc.layer_norm(tc.Tensor(x), tc.Tensor(np.ones(3)),
                            tc.Tensor(np.zeros(3)), eps=0.0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)
        np.testing.assert_allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-4)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = tc.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tc.tsum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_form(self):
        xv = np.array([[1.0, -2.0, 0.5]])
        x = tc.Tensor(xv, requires_grad=True)
        # trace(x x^T) = sum of squares
        out = tc.tsum(tc.matmul(x, tc.transpose(x, (1, 0))))
        out.backward()
        np.testing.assert_allclose(x.grad, 2.0 * xv, rtol=1e-12)

    def test_non_scalar_root_rejected(self):
        x = tc.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(tc.ShapeError):
            tc.add(x, x).backward()

    def test_fanout_accumulation(self):
        xv = np.array([0.7, -1.1])
        x = tc.Tensor(xv, requires_grad=True)
        # f(x) + g(x) with f = sum(x^2), g = 3*sum(x)
        out = tc.add(tc.tsum(tc.mul(x, x)), tc.scale(tc.tsum(x), 3.0))
        out.backward()
        np.testing.assert_allclose(x.grad, 2.0 * xv + 3.0, rtol=1e-12)

    def test_graph_is_freed_and_leaf_gradients_kept(self):
        xv, wv = np.array([[1.0, -2.0, 0.5]]), np.array([[0.3], [0.2], [-1.0]])
        x = tc.Tensor(xv, requires_grad=True)
        w = tc.Tensor(wv, requires_grad=True)
        h = tc.matmul(x, w)
        sq = tc.mul(h, h)
        out = tc.tsum(sq)
        out.backward()
        for inner in (h, sq):
            assert inner.grad is None
            assert inner._backward is None and inner._parents == ()
        assert out.grad == 1.0 and out._parents == ()
        # d sum((x w)^2) = 2 (x w) w^T for x, 2 x^T (x w) for w
        np.testing.assert_array_equal(x.grad, 2.0 * (xv @ wv) * wv.T)
        np.testing.assert_array_equal(w.grad, 2.0 * xv.T * (xv @ wv))

    def test_gather_rows_mask_backward(self):
        a = tc.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = tc.gather_rows(a, [True, False, True])
        np.testing.assert_array_equal(out.data, [[0.0, 1.0], [4.0, 5.0]])
        tc.tsum(tc.mul(out, tc.Tensor([[1.0, 2.0], [3.0, 4.0]]))).backward()
        np.testing.assert_array_equal(a.grad, [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]])

    @pytest.mark.parametrize("keep", [[0, 2], [1, 0, 1], [True, False],
                                      [[True], [False], [True]]])
    def test_gather_rows_rejects_all_but_a_row_mask(self, keep):
        with pytest.raises(tc.ShapeError, match="row mask"):
            tc.gather_rows(tc.Tensor(np.zeros((3, 2))), keep)

    def test_place_rows_is_the_transpose_of_gather_rows(self):
        at = np.array([False, True, True, False, True])
        rows = tc.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        fill = tc.Tensor([-1.0, -2.0], requires_grad=True)
        out = tc.place_rows(rows, at, fill)
        np.testing.assert_array_equal(
            out.data, [[-1, -2], [0, 1], [2, 3], [-1, -2], [4, 5]])
        np.testing.assert_array_equal(tc.gather_rows(out, at).data, rows.data)
        g = np.arange(10.0).reshape(5, 2)
        tc.tsum(tc.mul(out, tc.Tensor(g))).backward()
        np.testing.assert_array_equal(rows.grad, g[at])
        np.testing.assert_array_equal(fill.grad, g[0] + g[3])

    def test_place_rows_shape_errors(self):
        rows, fill = tc.Tensor(np.zeros((2, 3))), tc.Tensor(np.zeros(3))
        with pytest.raises(tc.ShapeError, match=r"rows \(2, 3\) at a bool \(3,\)"):
            tc.place_rows(rows, [True, True, True], fill)
        with pytest.raises(tc.ShapeError):
            tc.place_rows(rows, [True, False, True], tc.Tensor(np.zeros(2)))
        with pytest.raises(tc.ShapeError, match="int"):
            tc.place_rows(rows, [0, 2], fill)


def _slice_cols(a, lo, hi):
    """Columns lo..hi-1 of the last axis, as a copy: the head split of
    the per-head attention graph below, the reference for tc.attention."""
    def backward(g):
        acc = np.zeros_like(a.data)
        acc[..., lo:hi] = g
        a._accumulate(acc)

    return tc._result(a.data[..., lo:hi].copy(), (a,), backward)


def _concat_cols(parts):
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accumulate(g[..., lo:hi])

    return tc._result(np.concatenate([p.data for p in parts], axis=-1),
                      tuple(parts), backward)


_KEEP = np.array([True, False, True])
_AT = np.array([False, True, True, False, True, False])  # 3 rows, 3 fills


def _square(x):
    return tc.mul(x, x)


OPS = {
    "add": (lambda x, y: tc.tsum(tc.mul(tc.add(x, y), tc.add(x, y))), 2, (3, 4)),
    "sub": (lambda x, y: tc.tsum(tc.mul(tc.sub(x, y), tc.sub(x, y))), 2, (3, 4)),
    "mul": (lambda x, y: tc.tsum(tc.mul(x, y)), 2, (3, 4)),
    "div": (lambda x, y: tc.tsum(tc.div(x, y)), 2, (3, 4)),
    "scale": (lambda x: tc.tsum(tc.scale(x, -2.5)), 1, (3, 4)),
    "sqrt": (lambda x: tc.tsum(tc.sqrt(tc.add(tc.mul(x, x), tc.Tensor(np.full((3, 4), 0.5))))), 1, (3, 4)),
    "gelu": (lambda x: tc.tsum(tc.gelu(x)), 1, (3, 4)),
    "cross_entropy": (lambda x: tc.cross_entropy(x, [2, 0, 3]), 1, (3, 4)),
    "matmul": (lambda x, y: tc.tsum(tc.mul(tc.matmul(x, y), tc.matmul(x, y))), 2, (3, 3)),
    "softmax": (lambda x: tc.tsum(tc.mul(tc.softmax(x, axis=-1),
                                         tc.Tensor(np.arange(12.0).reshape(3, 4)))), 1, (3, 4)),
    "mean": (lambda x: tc.tmean(tc.mul(x, x)), 1, (3, 4)),
    "sum_axis": (lambda x: tc.tsum(tc.mul(tc.tsum(x, axis=1), tc.tsum(x, axis=1))), 1, (3, 4)),
    "reshape": (lambda x: tc.tsum(tc.mul(tc.reshape(x, (4, 3)), tc.reshape(x, (4, 3)))), 1, (3, 4)),
    "transpose": (lambda x: tc.tsum(tc.mul(tc.transpose(x, (1, 0)),
                                           tc.transpose(x, (1, 0)))), 1, (3, 4)),
    "transpose_axes": (lambda x: tc.tsum(tc.mul(
        tc.transpose(x, (0, 3, 1, 4, 2, 5)),
        tc.Tensor(np.arange(48.0).reshape(2, 2, 1, 2, 3, 2)))), 1, (2, 1, 3, 2, 2, 2)),
    "gather": (lambda x: tc.tsum(tc.mul(tc.gather_rows(x, _KEEP),
                                        tc.gather_rows(x, _KEEP))), 1, (3, 4)),
    "place_rows": (lambda x, y: _weighted(_square(tc.place_rows(
        x, _AT, tc.tsum(y, axis=0)))), 2, (3, 4)),
    "add_rowvec": (lambda x, y: tc.tsum(tc.mul(tc.add(x, tc.tsum(y, axis=0)),
                                               tc.add(x, tc.tsum(y, axis=0)))), 2, (3, 4)),
    # broadcast operands of the other binary ops, derived from y: (4,) as
    # the minuend, (1, 4) as a factor, (3, 1) as a denominator >= 0.5
    "sub_rowvec": (lambda x, y: _weighted(tc.sub(tc.tsum(y, axis=0), x)), 2, (3, 4)),
    "mul_rowvec": (lambda x, y: _weighted(tc.mul(
        x, tc.tsum(y, axis=0, keepdims=True))), 2, (3, 4)),
    "div_colvec": (lambda x, y: _weighted(tc.div(x, tc.add(
        _square(tc.tsum(y, axis=1, keepdims=True)), tc.Tensor(0.5)))), 2, (3, 4)),
    # the head split and merge of the per-head reference graph
    "slice_cols": (lambda x: tc.tsum(tc.mul(_slice_cols(x, 1, 3),
                                            _slice_cols(x, 1, 3))), 1, (3, 4)),
    "concat_cols": (lambda x, y: tc.tsum(tc.mul(_concat_cols([x, y]),
                                                _concat_cols([x, y]))), 2, (3, 4)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_gradients_match_finite_differences(name):
    build, nargs, shape = OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # stable per name
    arrays = [rng.uniform(-2.0, 2.0, size=shape) for _ in range(nargs)]
    if name == "div":
        # keep denominators away from zero
        arrays[1] = np.sign(arrays[1]) * (np.abs(arrays[1]) + 0.5)
    grads = _grad_of(build, *arrays)
    f = _scalar_fn(build)
    for i in range(nargs):
        numeric = finite_diff_grad(f, arrays, wrt=i, h=1e-5)
        assert_grads_close(grads[i], numeric, rel=1e-6, abs_tol=1e-9)


def _weighted(out):
    """Sum of out against a fixed non-symmetric weight of out's shape, so
    a gradient summed or routed along the wrong axis fails the check."""
    w = np.random.default_rng(21).normal(size=out.shape)
    return tc.tsum(tc.mul(out, tc.Tensor(w)))


def _attend(n_heads):
    return lambda q, k, v: _weighted(tc.attention(q, k, v, n_heads))


# The leading-axis forms of the encoder ops, and fused attention in its
# 2-D and leading-axis forms: name -> (build, arg shapes).
BATCHED_OPS = {
    "matmul_shared_right": (lambda x, y: _weighted(tc.matmul(x, y)),
                            [(2, 3, 4), (4, 5)]),
    "matmul_batched_right": (lambda x, y: _weighted(tc.matmul(x, y)),
                             [(2, 3, 4), (2, 4, 5)]),
    "add_rowvec_leading": (lambda x, v: _weighted(tc.add(x, v)),
                           [(2, 3, 4), (4,)]),
    "add_trailing": (lambda x, y: tc.add(_weighted(tc.add(x, y)),
                                         _weighted(tc.add(y, x))),
                     [(2, 3, 4), (3, 4)]),
    "add_spread": (lambda x, y: tc.add(_weighted(tc.add(x, y)),
                                       _weighted(tc.add(y, x))),
                   [(4, 1, 3), (2, 3)]),
    "transpose_last_two": (lambda x: _weighted(tc.transpose(x, (0, 2, 1))),
                           [(2, 3, 4)]),
    "tmean_rows": (lambda x: _weighted(tc.tmean(x, axis=-2)), [(2, 3, 4)]),
    "slice_cols_leading": (lambda x: _weighted(_slice_cols(x, 1, 3)),
                           [(2, 3, 4)]),
    "concat_cols_leading": (lambda x, y: _weighted(_concat_cols([x, y])),
                            [(2, 3, 4), (2, 3, 2)]),
    "attention_2d_h1": (_attend(1), [(3, 4)] * 3),
    "attention_2d_h2": (_attend(2), [(3, 4)] * 3),
    "attention_leading_h1": (_attend(1), [(2, 3, 4)] * 3),
    "attention_leading_h2": (_attend(2), [(2, 3, 4)] * 3),
}


@pytest.mark.parametrize("name", sorted(BATCHED_OPS))
def test_batched_gradients_match_finite_differences(name):
    _check_batched_gradients(name)


@pytest.mark.parametrize("name", sorted(n for n in BATCHED_OPS
                                        if n.startswith("attention")))
def test_attention_gradients_in_row_blocks(name, monkeypatch):
    # two 3-wide score rows per block: some blocks end inside a head
    monkeypatch.setattr(tc, "_BLOCK", 7)
    _check_batched_gradients(name)


def _check_batched_gradients(name):
    build, shapes = BATCHED_OPS[name]
    rng = np.random.default_rng(5)
    arrays = [rng.uniform(-2.0, 2.0, size=shape) for shape in shapes]
    grads = _grad_of(build, *arrays)
    f = _scalar_fn(build)
    for i in range(len(arrays)):
        numeric = finite_diff_grad(f, arrays, wrt=i, h=1e-5)
        assert_grads_close(grads[i], numeric, rel=1e-6, abs_tol=1e-9)


def _per_head_attention(q, k, v, n_heads):
    """The per-head graph that tc.attention replaces: slice each head,
    scale q k^T, softmax, weight v, join the heads. The bit-for-bit
    reference for the fused op."""
    dh = q.data.shape[-1] // n_heads
    n = q.data.ndim
    heads = []
    for h in range(n_heads):
        qh, kh, vh = (_slice_cols(x, h * dh, (h + 1) * dh) for x in (q, k, v))
        kt = tc.transpose(kh, (*range(n - 2), n - 1, n - 2))
        scores = tc.scale(tc.matmul(qh, kt), 1.0 / np.sqrt(dh))
        heads.append(tc.matmul(tc.softmax(scores, axis=-1), vh))
    return _concat_cols(heads) if n_heads > 1 else heads[0]


def _assert_matches_per_head_graph(shape, n_heads):
    """tc.attention's output and q/k/v gradients equal the per-head
    graph's bit for bit, and leave in C order."""
    rng = np.random.default_rng(shape[-2] * 10 + n_heads)
    arrays = [rng.normal(size=shape) for _ in range(3)]
    weight = tc.Tensor(rng.normal(size=shape))
    results = []
    for attend in (tc.attention, _per_head_attention):
        qkv = [tc.Tensor(a, requires_grad=True) for a in arrays]
        out = attend(*qkv, n_heads)
        tc.tsum(tc.mul(out, weight)).backward()
        results.append([out.data] + [t.grad for t in qkv])
    for fused, ref in zip(*results):
        np.testing.assert_array_equal(fused, ref)
    # the summation order of a bias gradient depends on the layout
    assert all(g.flags.c_contiguous for g in results[0])


class TestAttention:
    # (200, 64) spans several row blocks at the default block size
    @pytest.mark.parametrize("shape", [(1, 64), (3, 64), (12, 64),
                                       (5, 12, 64), (200, 64)])
    @pytest.mark.parametrize("n_heads", [1, 4])
    def test_bit_identical_to_per_head_graph(self, shape, n_heads):
        _assert_matches_per_head_graph(shape, n_heads)

    # 89 // 12 = 7 and 96 // 12 = 8 rows of 12 scores per block: the
    # first block ends inside head 0, and in a (5, 12, 64) stack of 4
    # heads (48 rows per window) a block spans rows 42-48 of windows 0
    # and 1, or one ends at row 48 between them
    @pytest.mark.parametrize("shape", [(12, 64), (5, 12, 64)])
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("block", [89, 96])
    def test_bit_identical_in_row_blocks(self, shape, n_heads, block,
                                         monkeypatch):
        monkeypatch.setattr(tc, "_BLOCK", block)
        _assert_matches_per_head_graph(shape, n_heads)

    def test_row_blocks_are_views_of_whole_rows(self, monkeypatch):
        # 1 and 4 heads of 200 rows of 200 scores: 163 rows per block
        assert len(tc._row_blocks(np.empty((1, 200, 200)))) == 2
        assert len(tc._row_blocks(np.empty((4, 200, 200)))) == 5
        monkeypatch.setattr(tc, "_BLOCK", 96)
        scores = np.zeros((5, 4, 12, 12))
        blocks = tc._row_blocks(scores)
        assert [len(b) for b in blocks] == [8] * 30
        for i, b in enumerate(blocks):
            b += i
        # block 6 starts at row 48, the first row of window 1
        assert scores[1, 0, 0, 0] == 6.0 and scores[0, 3, 11, 11] == 5.0
        assert len(tc._row_blocks(np.zeros((5, 4, 1, 1)))) == 1
        monkeypatch.setattr(tc, "_BLOCK", 5)
        assert [len(b) for b in tc._row_blocks(scores)] == [1] * 240

    def test_shape_errors(self):
        x, y = tc.Tensor(np.zeros((3, 4))), tc.Tensor(np.zeros((2, 4)))
        with pytest.raises(tc.ShapeError, match="attention"):
            tc.attention(x, y, x, 2)
        with pytest.raises(tc.ShapeError, match="attention"):
            tc.attention(x, x, tc.Tensor(np.zeros((1, 3, 4))), 2)
        with pytest.raises(tc.ShapeError, match="3 heads"):
            tc.attention(x, x, x, 3)
        with pytest.raises(tc.ShapeError):
            tc.attention(tc.Tensor(np.zeros(4)), tc.Tensor(np.zeros(4)),
                         tc.Tensor(np.zeros(4)), 1)

    def test_zero_scores_average_the_values(self):
        # q = 0 gives uniform weights: every output row is the mean of v
        v = np.random.default_rng(9).normal(size=(2, 5, 6))
        zeros = tc.Tensor(np.zeros((2, 5, 6)))
        out = tc.attention(zeros, zeros, tc.Tensor(v), 3).data
        np.testing.assert_allclose(
            out, np.broadcast_to(v.mean(axis=1, keepdims=True), v.shape),
            rtol=1e-12, atol=1e-15)


class TestAccumulate:
    def test_shared_first_gradient_stays_independent(self):
        a = tc.Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = tc.Tensor(np.array([3.0, 4.0]), requires_grad=True)
        # add hands its one gradient array to both parents; a gets a
        # second gradient from the scaled sum, b does not
        out = tc.add(tc.tsum(tc.mul(tc.add(a, b), tc.Tensor([5.0, 7.0]))),
                     tc.tsum(tc.scale(a, 3.0)))
        out.backward()
        np.testing.assert_array_equal(a.grad, [8.0, 10.0])
        np.testing.assert_array_equal(b.grad, [5.0, 7.0])

    def test_fresh_first_gradient_is_kept_without_copy(self):
        x = tc.Tensor(np.zeros((2, 3)))
        g = np.ones((2, 3))
        x._accumulate(g)
        assert x.grad is g

    def test_read_only_or_strided_first_gradient_is_copied(self):
        # tsum's backward hands a read-only stride-0 view; borrowing it
        # would change how later reductions over the gradient round
        broadcast = np.broadcast_to(np.ones(3), (2, 3))
        strided = np.arange(6.0).reshape(2, 3).T
        for g in (broadcast, strided):
            x = tc.Tensor(np.zeros(g.shape))
            x._accumulate(g)
            assert x.grad is not g and x.grad.flags.writeable
            x._accumulate(np.ones(g.shape))
            np.testing.assert_array_equal(x.grad, g + 1.0)
        np.testing.assert_array_equal(broadcast, np.ones((2, 3)))
        np.testing.assert_array_equal(strided, np.arange(6.0).reshape(2, 3).T)


class TestLeadingAxes:
    def test_shared_matmul_is_one_product_per_window(self):
        rng = np.random.default_rng(6)
        x, w = rng.normal(size=(4, 3, 648)), rng.normal(size=(648, 16))
        out = tc.matmul(tc.Tensor(x), tc.Tensor(w)).data
        for b in range(4):
            np.testing.assert_array_equal(out[b], x[b] @ w)

    def test_mismatched_leading_axes_rejected(self):
        with pytest.raises(tc.ShapeError):
            tc.matmul(tc.Tensor(np.zeros((2, 3, 4))),
                      tc.Tensor(np.zeros((3, 4, 5))))
        with pytest.raises(tc.ShapeError, match="do not broadcast"):
            tc.add(tc.Tensor(np.zeros((2, 3, 4))), tc.Tensor(np.zeros((2, 4))))

    def test_every_binary_op_broadcasts(self):
        x = np.arange(1.0, 13.0).reshape(4, 1, 3)
        y = np.arange(2.0, 8.0).reshape(2, 3)
        for name, ref in (("add", np.add), ("sub", np.subtract),
                          ("mul", np.multiply), ("div", np.divide)):
            op = getattr(tc, name)
            out = op(tc.Tensor(x), tc.Tensor(y))
            assert out.shape == (4, 2, 3)
            np.testing.assert_array_equal(out.data, ref(x, y))
            with pytest.raises(tc.ShapeError, match=rf"{name}: shapes "
                               r"\(2, 3, 4\) and \(2, 4\) do not broadcast"):
                op(tc.Tensor(np.ones((2, 3, 4))), tc.Tensor(np.ones((2, 4))))


def test_arccos_gradient_away_from_clamp():
    rng = np.random.default_rng(7)
    x = rng.uniform(-0.9, 0.9, size=(5,))
    build = lambda t: tc.tsum(tc.arccos(t))
    (grad,) = _grad_of(build, x)
    numeric = finite_diff_grad(_scalar_fn(build), [x], wrt=0, h=1e-5)
    assert_grads_close(grad, numeric, rel=1e-6, abs_tol=1e-9)


def test_layer_norm_gradients():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, size=(3, 5))
    gain = rng.uniform(0.5, 1.5, size=5)
    bias = rng.uniform(-1, 1, size=5)
    build = lambda a, g, b: tc.tsum(tc.mul(tc.layer_norm(a, g, b, eps=1e-5),
                                           tc.Tensor(rng_weights)))
    rng_weights = np.random.default_rng(12).normal(size=(3, 5))
    grads = _grad_of(build, x, gain, bias)
    f = _scalar_fn(build)
    for i in range(3):
        numeric = finite_diff_grad(f, [x, gain, bias], wrt=i, h=1e-5)
        assert_grads_close(grads[i], numeric, rel=1e-6, abs_tol=1e-9)


def test_determinism():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4))

    def run():
        t = tc.Tensor(x, requires_grad=True)
        out = tc.tsum(tc.gelu(tc.matmul(t, tc.softmax(t, axis=-1))))
        out.backward()
        return out.data.copy(), t.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert np.array_equal(o1, o2)
    assert np.array_equal(g1, g2)


def test_check_finite():
    with pytest.raises(FloatingPointError):
        tc.check_finite(tc.Tensor(np.array([1.0, np.nan])))
    tc.check_finite(tc.Tensor(np.array([1.0, 2.0])))
