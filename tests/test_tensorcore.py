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
from fdcheck import finite_diff_grad, assert_grads_close, weighted_sum
from test_engine_callers import _public_ops
from two_op_loss import two_op_objective


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shapes", [[(5, 4), (4, 3), (3,)],
                                        [(2, 1, 4), (4, 3), (3,)],
                                        [(2, 5, 4), (2, 4, 3), (5, 3)]])
    def test_bias_has_the_bits_of_a_separate_add(self, shapes, dtype):
        # the in-place sum rounds as add(matmul(a, b), bias), and the
        # gradients are those of the two-node graph, bit for bit
        rng = np.random.default_rng(12)
        arrays = [rng.normal(size=s).astype(dtype) for s in shapes]
        weights = rng.normal(size=shapes[0][:-1] + shapes[1][-1:])
        runs = []
        for build in (lambda a, b, c: tc.matmul(a, b, c),
                      lambda a, b, c: tc.add(tc.matmul(a, b), c)):
            ts = [tc.Tensor(x, requires_grad=True) for x in arrays]
            out = build(*ts)
            weighted_sum(out, weights).backward()
            runs.append([out.data] + [t.grad for t in ts])
        for fused, pair in zip(*runs):
            assert fused.dtype == pair.dtype == dtype
            assert fused.tobytes() == pair.tobytes()

    def test_bias_that_widens_the_product_is_a_shape_error(self):
        a, b = tc.Tensor(np.ones((2, 3))), tc.Tensor(np.ones((3, 4)))
        for shape in [(3,), (2, 2, 4), (3, 4)]:
            with pytest.raises(tc.ShapeError, match="bias"):
                tc.matmul(a, b, tc.Tensor(np.ones(shape)))

    def test_float64_bias_promotes_a_float32_product(self):
        a = tc.Tensor(np.ones((2, 3), np.float32))
        b = tc.Tensor(np.ones((3, 4), np.float32))
        bias = np.full(4, 1e-9)
        out = tc.matmul(a, b, tc.Tensor(bias))
        assert out.data.dtype == np.float64
        np.testing.assert_array_equal(out.data, np.tile(3.0 + bias, (2, 1)))


class TestElementwise:
    def test_add_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = tc.add(tc.Tensor(x), tc.Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, x)

    def test_shape_mismatch(self):
        with pytest.raises(tc.ShapeError):
            tc.add(tc.Tensor(np.zeros(3)), tc.Tensor(np.zeros(4)))

    def test_scalar_broadcast(self):
        out = tc.add(tc.Tensor(np.array([1.0, 2.0])), tc.Tensor(3.0))
        np.testing.assert_array_equal(out.data, [4.0, 5.0])

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

    def test_float32_stays_float32(self):
        # the same rational functions, rounded at each float32 step: a few
        # float32 ulps from the float64 erf (2.5 at most over these draws)
        x = np.concatenate([np.random.default_rng(3).standard_normal(200_000)
                            * scale for scale in (0.05, 0.7, 1.5, 8.0)])
        x = x.astype(np.float32)
        y = tc.erf(x)
        assert y.dtype == np.float32
        want = scipy_erf(x.astype(np.float64))
        ulps = np.abs(y - want) / np.spacing(np.abs(want).astype(np.float32))
        assert ulps.max() <= 4.0

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
        out = tc.tsum(tc.matmul(x, _transpose(x, (1, 0))))
        out.backward()
        np.testing.assert_allclose(x.grad, 2.0 * xv, rtol=1e-12)

    def test_non_scalar_root_rejected(self):
        x = tc.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(tc.ShapeError):
            tc.add(x, x).backward()

    def test_fanout_accumulation(self):
        xv = np.array([0.7, -1.1])
        x = tc.Tensor(xv, requires_grad=True)
        # f(x) + g(x) with f = sum(x * xv), g = 3*sum(x)
        out = tc.add(weighted_sum(x, xv), tc.scale(tc.tsum(x), 3.0))
        out.backward()
        np.testing.assert_allclose(x.grad, xv + 3.0, rtol=1e-12)

    def test_graph_is_freed_and_leaf_gradients_kept(self):
        xv, wv = np.array([[1.0, -2.0, 0.5]]), np.array([[0.3], [0.2], [-1.0]])
        x = tc.Tensor(xv, requires_grad=True)
        w = tc.Tensor(wv, requires_grad=True)
        h = tc.matmul(x, w)
        sq = tc.scale(h, 2.0)
        out = weighted_sum(sq, h.data)  # sum((x w)^2) * 2
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
        weighted_sum(out, [[1.0, 2.0], [3.0, 4.0]]).backward()
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
        weighted_sum(out, g).backward()
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


def _transpose(a, axes):
    """a with its axes permuted, as a copy: the key transpose of the
    per-head attention graph below."""
    inverse = np.argsort(axes)

    def backward(g):
        a._accumulate(g.transpose(inverse))

    return tc._result(a.data.transpose(axes).copy(), (a,), backward)


def _concat_cols(parts):
    offsets = np.cumsum([0] + [p.data.shape[-1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p._accumulate(g[..., lo:hi])

    return tc._result(np.concatenate([p.data for p in parts], axis=-1),
                      tuple(parts), backward)


_KEEP = np.array([True, False, True])
_AT = np.array([False, True, True, False, True, False])  # 3 rows, 3 fills


OPS = {
    "add": (lambda x, y: _weighted(tc.add(x, y)), 2, (3, 4)),
    "scale": (lambda x: tc.tsum(tc.scale(x, -2.5)), 1, (3, 4)),
    "gelu": (lambda x: tc.tsum(tc.gelu(x)), 1, (3, 4)),
    "cross_entropy": (lambda x: tc.cross_entropy(x, [2, 0, 3]), 1, (3, 4)),
    "matmul": (lambda x, y: _weighted(tc.matmul(x, y)), 2, (3, 3)),
    "softmax": (lambda x: weighted_sum(tc.softmax(x, axis=-1),
                                       np.arange(12.0).reshape(3, 4)), 1, (3, 4)),
    "mean": (lambda x: _weighted(tc.tmean(x)), 1, (3, 4)),
    "sum_axis": (lambda x: _weighted(tc.tsum(x, axis=1)), 1, (3, 4)),
    "reshape": (lambda x: _weighted(tc.reshape(x, (4, 3))), 1, (3, 4)),
    "gather": (lambda x: _weighted(tc.gather_rows(x, _KEEP)), 1, (3, 4)),
    "place_rows": (lambda x, y: _weighted(tc.place_rows(
        x, _AT, tc.tsum(y, axis=0))), 2, (3, 4)),
    "add_rowvec": (lambda x, y: _weighted(tc.add(x, tc.tsum(y, axis=0))),
                   2, (3, 4)),
    # the head split and merge of the per-head reference graph
    "slice_cols": (lambda x: _weighted(_slice_cols(x, 1, 3)), 1, (3, 4)),
    "transpose": (lambda x: _weighted(_transpose(x, (1, 0))), 1, (3, 4)),
    "concat_cols": (lambda x, y: _weighted(_concat_cols([x, y])), 2, (3, 4)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_gradients_match_finite_differences(name):
    build, nargs, shape = OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # stable per name
    arrays = [rng.uniform(-2.0, 2.0, size=shape) for _ in range(nargs)]
    grads = _grad_of(build, *arrays)
    f = _scalar_fn(build)
    for i in range(nargs):
        numeric = finite_diff_grad(f, arrays, wrt=i, h=1e-5)
        assert_grads_close(grads[i], numeric, rel=1e-6, abs_tol=1e-9)


def _weighted(out):
    """Sum of out against a fixed non-symmetric weight of out's shape, so
    a gradient summed or routed along the wrong axis fails the check."""
    return weighted_sum(out, np.random.default_rng(21).normal(size=out.shape))


def _attend(n_heads):
    return lambda q, k, v: _weighted(tc.attention(q, k, v, n_heads))


# The leading-axis forms of the encoder ops, and fused attention in its
# 2-D and leading-axis forms: name -> (build, arg shapes).
BATCHED_OPS = {
    "matmul_shared_right": (lambda x, y: _weighted(tc.matmul(x, y)),
                            [(2, 3, 4), (4, 5)]),
    "matmul_batched_right": (lambda x, y: _weighted(tc.matmul(x, y)),
                             [(2, 3, 4), (2, 4, 5)]),
    # a bias in the product: a 2-D weight, and the head's (..., 1, d) rows
    "matmul_bias_2d": (lambda x, w, b: _weighted(tc.matmul(x, w, b)),
                       [(3, 4), (4, 5), (5,)]),
    "matmul_bias_head_rows": (lambda x, w, b: _weighted(tc.matmul(x, w, b)),
                              [(2, 1, 4), (4, 3), (3,)]),
    "add_rowvec_leading": (lambda x, v: _weighted(tc.add(x, v)),
                           [(2, 3, 4), (4,)]),
    "add_trailing": (lambda x, y: tc.add(_weighted(tc.add(x, y)),
                                         _weighted(tc.add(y, x))),
                     [(2, 3, 4), (3, 4)]),
    "add_spread": (lambda x, y: tc.add(_weighted(tc.add(x, y)),
                                       _weighted(tc.add(y, x))),
                   [(4, 1, 3), (2, 3)]),
    "transpose_last_two": (lambda x: _weighted(_transpose(x, (0, 2, 1))),
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
    # cross-attention: 3 queries to 5 keys and values, and 5 to 2
    "attention_cross_2d_h1": (_attend(1), [(3, 4), (5, 4), (5, 4)]),
    "attention_cross_2d_h2": (_attend(2), [(5, 4), (2, 4), (2, 4)]),
    "attention_cross_leading_h1": (_attend(1), [(2, 5, 4), (2, 2, 4),
                                                (2, 2, 4)]),
    "attention_cross_leading_h2": (_attend(2), [(2, 3, 4), (2, 5, 4),
                                                (2, 5, 4)]),
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
        kt = _transpose(kh, (*range(n - 2), n - 1, n - 2))
        scores = tc.scale(tc.matmul(qh, kt), 1.0 / np.sqrt(dh))
        heads.append(tc.matmul(tc.softmax(scores, axis=-1), vh))
    return _concat_cols(heads) if n_heads > 1 else heads[0]


def _assert_matches_per_head_graph(shape, n_heads, kv_rows=None):
    """tc.attention's output and q/k/v gradients equal the per-head
    graph's bit for bit, and leave in C order. With kv_rows, k and v
    have that many rows in place of q's."""
    rng = np.random.default_rng(shape[-2] * 10 + n_heads)
    kv = shape if kv_rows is None else (*shape[:-2], kv_rows, shape[-1])
    arrays = [rng.normal(size=s) for s in (shape, kv, kv)]
    weight = rng.normal(size=shape)
    results = []
    for attend in (tc.attention, _per_head_attention):
        qkv = [tc.Tensor(a, requires_grad=True) for a in arrays]
        out = attend(*qkv, n_heads)
        weighted_sum(out, weight).backward()
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

    # queries to fewer rows (the decoder's grid to the visible latents),
    # to more, and in row blocks that end inside a head
    @pytest.mark.parametrize("shape, kv_rows", [
        ((12, 64), 3), ((3, 64), 12), ((5, 12, 64), 1), ((200, 64), 50),
        ((5, 12, 64), 7)])
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("block", [None, 89])
    def test_cross_attention_bit_identical_to_per_head_graph(
            self, shape, kv_rows, n_heads, block, monkeypatch):
        if block:
            monkeypatch.setattr(tc, "_BLOCK", block)
        _assert_matches_per_head_graph(shape, n_heads, kv_rows)

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

    @pytest.mark.parametrize("q, k, v", [
        ((3, 4), (5, 4), (4, 4)),            # k and v row counts differ
        ((3, 4), (5, 6), (5, 6)),            # k width is not q's
        ((3, 4), (5, 4), (5, 6)),            # v width is not q's
        ((2, 3, 4), (3, 5, 4), (3, 5, 4)),   # leading axes differ
        ((2, 3, 4), (5, 4), (5, 4)),         # k lacks q's leading axis
        ((3, 4), (2, 5, 4), (2, 5, 4)),      # k has one q lacks
        ((3, 4), (4,), (4,)),                # k is not a matrix
    ])
    def test_cross_attention_shape_errors(self, q, k, v):
        with pytest.raises(tc.ShapeError, match="attention"):
            tc.attention(*(tc.Tensor(np.zeros(s)) for s in (q, k, v)), 2)

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
        out = tc.add(weighted_sum(tc.add(a, b), [5.0, 7.0]),
                     tc.tsum(tc.scale(a, 3.0)))
        out.backward()
        np.testing.assert_array_equal(a.grad, [8.0, 10.0])
        np.testing.assert_array_equal(b.grad, [5.0, 7.0])

    def test_fresh_first_gradient_is_kept_without_copy(self):
        x = tc.Tensor(np.zeros((2, 3)))
        g = np.ones((2, 3))
        x._accumulate(g)
        assert x.grad is g

    @pytest.mark.parametrize("writeable", [True, False])
    def test_three_contributions_are_fresh_sums(self, writeable):
        # x and y share their first gradient, kept even when read-only and
        # never written: x's later gradients each make a fresh sum
        g1, g2, g3 = np.random.default_rng(4).normal(size=(3, 2, 5))
        g1.flags.writeable = writeable
        was = g1.copy()
        x, y = tc.Tensor(np.zeros((2, 5))), tc.Tensor(np.zeros((2, 5)))
        x._accumulate(g1)
        y._accumulate(g1)
        assert x.grad is g1 and y.grad is g1
        x._accumulate(g2)
        x._accumulate(g3)
        assert g1.tobytes() == was.tobytes() and y.grad is g1
        assert x.grad.tobytes() == ((g1 + g2) + g3).tobytes()

    def test_read_only_or_strided_first_gradient_is_copied(self):
        # tsum's backward hands a read-only stride-0 view; keeping it, or
        # any array that is not C-contiguous, would change how later
        # reductions over the gradient round
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("graph, want", [
        # three scaled copies: the first gradient a scalar product, copied
        (lambda a, c: tc.add(tc.add(tc.scale(a, 3), tc.scale(a, 2)),
                             tc.scale(a, 1)), 6.0),
        # the first gradient the 0-d array add hands on, kept
        (lambda a, c: tc.add(tc.add(a, tc.scale(a, 2)), c), 3.0),
    ], ids=["three_scaled", "kept_first"])
    def test_zero_d_sum_stays_an_array(self, dtype, graph, want):
        # numpy adds two 0-d operands into a scalar, not an array
        a = tc.Tensor(np.array(2.0, dtype=dtype), requires_grad=True)
        graph(a, tc.Tensor(np.array(1.0, dtype=dtype))).backward()
        assert type(a.grad) is np.ndarray
        assert (a.grad.dtype, a.grad.shape) == (np.dtype(dtype), ())
        assert a.grad == want


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
        # add is the one binary op
        x = np.arange(1.0, 13.0).reshape(4, 1, 3)
        y = np.arange(2.0, 8.0).reshape(2, 3)
        out = tc.add(tc.Tensor(x), tc.Tensor(y))
        assert out.shape == (4, 2, 3)
        np.testing.assert_array_equal(out.data, x + y)
        with pytest.raises(tc.ShapeError, match=r"add: shapes "
                           r"\(2, 3, 4\) and \(2, 4\) do not broadcast"):
            tc.add(tc.Tensor(np.ones((2, 3, 4))), tc.Tensor(np.ones((2, 4))))


def _objective(y, t, alpha, mask=None, axes=-1, view=None):
    """tc.rec_objective of the rows t against y, over every row unless a
    row mask is given, with spectra along `axes` of `view` (y's shape)."""
    mask = np.ones(y.shape[:-1], bool) if mask is None else mask
    return tc.rec_objective(y, t, mask, alpha,
                            y.shape if view is None else view, axes)


def _mse(y, t, mask):
    """The masked MSE alone: the objective at alpha 1."""
    return _objective(y, t, 1.0, mask)[0]


def _angle(y, t, axes=-1):
    """(mean spectral angle, cosines) of spectra along `axes`: the
    objective at alpha 0."""
    total, _, _, cos = _objective(y, t, 0.0, axes=axes)
    return total, cos


_TARGET = np.random.default_rng(8).normal(size=(3, 4))
# a block view (P, Q, K, i, j, b) = (2, 2, 2, 1, 2, 3): 8 pixels whose
# spectra run along the group and band axes, two of them all zero
_BLOCKS = np.random.default_rng(10).normal(size=(2, 2, 2, 1, 2, 3))
_BLOCKS[0, 1, :, 0, 1, :] = _BLOCKS[1, 0, :, 0, 0, :] = 0.0
_SPECTRA = (-4, -1)
# its 8 token rows of 6 voxels, and a mask of 3 of them
_ROWS = _BLOCKS.reshape(8, 6)
_MASKED = np.array([True, False, False, True, False, True, False, False])


def _token_objective(alpha):
    return lambda t: _objective(_ROWS, t, alpha, _MASKED, _SPECTRA,
                                _BLOCKS.shape)[0]


# the objective against a fixed target: its MSE alone (alpha 1), its
# spectral angle alone (alpha 0), and both over token rows with a partial
# mask and two excluded pixels: name -> (build of y_hat, shape)
LOSS_OPS = {
    "masked_mse_one_row": (lambda t: _mse(
        _TARGET, t, np.array([False, True, False])), (3, 4)),
    "masked_mse_two_rows": (lambda t: _mse(
        _TARGET, t, np.array([True, False, True])), (3, 4)),
    "masked_mse_leading": (lambda t: _mse(
        _BLOCKS.reshape(2, 4, 6), t, np.array([[True, False, True, False],
                                               [False, False, False, True]])),
        (2, 4, 6)),
    "spectral_angle": (lambda t: _angle(_TARGET, t)[0], (3, 4)),
    "spectral_angle_blocks": (lambda t: _angle(np.abs(_BLOCKS) + 0.1, t,
                                               _SPECTRA)[0], _BLOCKS.shape),
    "spectral_angle_excluded": (lambda t: _angle(_BLOCKS, t, _SPECTRA)[0],
                                _BLOCKS.shape),
    **{f"objective_alpha_{a}": (_token_objective(a), _ROWS.shape)
       for a in (0.0, 0.5, 1.0)},
}
@pytest.mark.parametrize("name", sorted(LOSS_OPS))
def test_loss_gradients_match_finite_differences(name):
    build, shape = LOSS_OPS[name]
    y_hat = np.random.default_rng(9).uniform(-2.0, 2.0, size=shape)
    (grad,) = _grad_of(build, y_hat)
    numeric = finite_diff_grad(_scalar_fn(build), [y_hat], wrt=0)
    assert_grads_close(grad, numeric, rel=1e-6, abs_tol=1e-9)
    if name == "masked_mse_one_row":
        assert np.flatnonzero(grad.any(axis=1)).tolist() == [1]
    excluded = np.broadcast_to(~_BLOCKS.any(axis=_SPECTRA, keepdims=True),
                               _BLOCKS.shape)
    if name in ("spectral_angle_excluded", "objective_alpha_0.0"):
        assert not excluded[grad.reshape(_BLOCKS.shape) != 0].any()
    if name == "objective_alpha_1.0":
        assert not grad[~_MASKED].any() and grad[_MASKED].all()
    if name == "objective_alpha_0.5":  # the MSE reaches excluded pixels
        assert grad.reshape(_BLOCKS.shape)[excluded].any()


class TestMaskedMse:
    def test_mean_over_the_masked_rows(self):
        y = np.array([[0.0, 1.0], [2.0, 3.0], [5.0, 5.0]])
        out = _mse(y, tc.Tensor(np.ones((3, 2))),
                   np.array([True, True, False]))
        assert float(out.data) == (1.0 + 0.0 + 1.0 + 4.0) / 4

    def test_perfect_rows_read_zero(self):
        out = _mse(_TARGET, tc.Tensor(_TARGET), np.array([True, False, True]))
        assert float(out.data) == 0.0

    def test_gradient_zero_outside_mask(self):
        mask = np.array([True, False, True])
        y_hat = tc.Tensor(-_TARGET, requires_grad=True)
        _mse(_TARGET, y_hat, mask).backward()
        assert np.all(y_hat.grad[~mask] == 0.0)
        assert np.all(y_hat.grad[mask] != 0.0)

    def test_empty_mask_is_a_domain_error(self):
        # the mean over no voxel was NaN, with only a RuntimeWarning
        with pytest.raises(tc.DomainError, match="selects no row"):
            _mse(_TARGET, tc.Tensor(_TARGET), np.zeros(3, bool))

    @pytest.mark.parametrize("mask", [np.ones(4, bool), np.ones((3, 4), bool),
                                      np.ones(3)])
    def test_mask_must_be_one_bool_per_row(self, mask):
        with pytest.raises(tc.ShapeError):
            _mse(_TARGET, tc.Tensor(_TARGET), mask)


class TestSpectralAngle:
    def test_perfect_pixel_reads_the_clamp(self):
        # the spectral angle of a row and itself: its cosine is clamped
        out, cos = _angle(np.array([[3.0, 4.0]]), tc.Tensor([[3.0, 4.0]]))
        assert float(out.data) == np.arccos(1.0 - tc.ARCCOS_CLAMP)
        assert cos.shape == (1, 1) and cos[0, 0] == 1.0

    def test_domain_error(self, monkeypatch):
        # norms rounded too small for the rows put the cosine past
        # 1 + ARCCOS_SLACK; within the slack it is only clamped
        row, sqrt = np.array([[3.0, 4.0]]), np.sqrt
        monkeypatch.setattr(np, "sqrt", lambda a: sqrt(a) * (1.0 - 1e-6))
        with pytest.raises(tc.DomainError, match="cosines outside"):
            _angle(row, tc.Tensor(row))
        monkeypatch.setattr(
            np, "sqrt", lambda a: sqrt(a) * (1.0 - tc.ARCCOS_SLACK / 4))
        out, _ = _angle(row, tc.Tensor(row))
        assert float(out.data) == np.arccos(1.0 - tc.ARCCOS_CLAMP)

    def test_pixels_and_spectra_of_the_block_view(self):
        # each pixel's angle is that of its spectrum gathered by hand
        y = np.abs(_BLOCKS) + 0.1
        y_hat = np.random.default_rng(4).normal(size=_BLOCKS.shape)
        out, cos = _angle(y, tc.Tensor(y_hat), _SPECTRA)
        assert cos.shape == (2, 2, 1, 1, 2, 1)
        a = y.transpose(0, 1, 3, 4, 2, 5).reshape(8, 6)
        b = y_hat.transpose(0, 1, 3, 4, 2, 5).reshape(8, 6)
        want = (np.sum(a * b, axis=1) / np.linalg.norm(a, axis=1)
                / np.linalg.norm(b, axis=1))
        np.testing.assert_allclose(cos.ravel(), want, rtol=1e-14)
        assert float(out.data) == pytest.approx(np.arccos(want).mean(),
                                                rel=1e-14)

    def test_zero_norm_pixels_are_left_out(self):
        y_hat = np.random.default_rng(5).normal(size=_BLOCKS.shape)
        y_hat[1, 1, :, 0, 0, :] = 1e-14  # a (near-)zero-norm prediction
        t = tc.Tensor(y_hat, requires_grad=True)
        out, cos = _angle(_BLOCKS, t, _SPECTRA)
        out.backward()
        excluded = np.isnan(cos)
        assert excluded.sum() == 3
        assert excluded[0, 1, 0, 0, 1, 0] and excluded[1, 1, 0, 0, 0, 0]
        assert float(out.data) == pytest.approx(
            np.arccos(cos[~excluded]).mean(), rel=1e-14)
        grad = t.grad.transpose(0, 1, 3, 4, 2, 5).reshape(8, 6)
        assert np.array_equal(~grad.any(axis=1), excluded.ravel())

    def test_all_zero_is_a_domain_error(self):
        with pytest.raises(tc.DomainError, match="zero-norm"):
            _angle(np.zeros((2, 4)), tc.Tensor(np.ones((2, 4))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_is_a_numeric_failure(self, bad):
        # a NaN norm is not a zero norm (NaN > eps is False)
        y_hat = _TARGET.copy()
        y_hat[1, 2] = bad
        with pytest.raises(FloatingPointError, match="non-finite"):
            _angle(_TARGET, tc.Tensor(y_hat))

    def test_shape_mismatch(self):
        with pytest.raises(tc.ShapeError):
            _angle(_TARGET, tc.Tensor(_TARGET.T))


class TestRecObjective:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_bits_of_the_two_op_graph(self, alpha, dtype, monkeypatch):
        # total, terms, cosines and the rows' gradient equal the oracle's
        # bit for bit, also in backward blocks of two cells
        monkeypatch.setattr(tc, "_BLOCK", 200)
        rng = np.random.default_rng(int(alpha * 10))
        view = (2, 3, 3, 2, 3, 3, 4)  # a leading axis, then (P, Q, K, i, j, b)
        y = rng.normal(size=(2, 18, 36))
        rows = rng.normal(size=y.shape)
        y.reshape(view)[0, 1, 2, :, 0, 1, :] = 0.0  # a zero-norm truth
        rows.reshape(view)[1, 0, 0, :, 2, 2, :] = 1e-14  # and prediction
        mask = rng.random(size=y.shape[:-1]) < 0.4
        runs = []
        for objective in (tc.rec_objective, two_op_objective):
            t = tc.Tensor(rows.astype(dtype), requires_grad=True)
            total, l_mse, l_sam, cos = objective(y, t, mask, alpha, view,
                                                 _SPECTRA)
            total.backward()
            runs.append((total.data, l_mse, l_sam, cos, t.grad))
        assert runs[0][4].dtype == dtype
        assert np.isnan(runs[0][3]).sum() == 2
        for got, want in zip(*runs):
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("view", [(16, 3), (2, 2, 2, 1, 2, 4)])
    def test_a_view_that_does_not_cut_whole_rows(self, view):
        with pytest.raises(tc.ShapeError, match="view"):
            _objective(_ROWS, tc.Tensor(_ROWS), 0.5, _MASKED, -1, view)

    def test_keeps_no_float64_copy_of_float32_rows(self):
        # backward holds the target, the rows' tensor and per-pixel
        # arrays, not a float64 array of the rows' size
        t = tc.Tensor(np.abs(_ROWS).astype(np.float32) + 1.0,
                      requires_grad=True)
        total = _token_objective(0.5)(t)
        held = [c.cell_contents for c in total._backward.__closure__]
        assert not [a for a in held if isinstance(a, np.ndarray)
                    and a.dtype == np.float64 and a.size == _ROWS.size
                    and not np.shares_memory(a, _ROWS)]


def test_arccos_gradient_away_from_clamp():
    # every cosine of these rows lies well inside (-1, 1)
    y_hat = np.random.default_rng(7).uniform(-2.0, 2.0, size=(5, 4))
    y = np.random.default_rng(17).uniform(-2.0, 2.0, size=(5, 4))
    build = lambda t: _angle(y, t)[0]
    assert np.all(np.abs(np.sum(y * y_hat, axis=1) / np.linalg.norm(y, axis=1)
                         / np.linalg.norm(y_hat, axis=1)) < 0.99)
    (grad,) = _grad_of(build, y_hat)
    numeric = finite_diff_grad(_scalar_fn(build), [y_hat], wrt=0, h=1e-5)
    assert_grads_close(grad, numeric, rel=1e-6, abs_tol=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_spectral_angle_gradient_at_the_clamp(sign):
    # rows (anti)parallel to the target: the clamp keeps the gradient
    # finite, and a perturbation too small to leave it moves nothing
    y_hat = sign * np.array([[2.5], [0.5], [1.0]]) * _TARGET
    build = lambda t: _angle(_TARGET, t)[0]
    (grad,) = _grad_of(build, y_hat)
    assert np.all(np.isfinite(grad))
    numeric = finite_diff_grad(_scalar_fn(build), [y_hat], wrt=0, h=1e-5)
    assert_grads_close(grad, numeric, rel=1e-6, abs_tol=1e-9)


def test_layer_norm_gradients():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, size=(3, 5))
    gain = rng.uniform(0.5, 1.5, size=5)
    bias = rng.uniform(-1, 1, size=5)
    build = lambda a, g, b: weighted_sum(tc.layer_norm(a, g, b, eps=1e-5),
                                         rng_weights)
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


# every public op on small operands: name -> (build, operand shapes)
GRAPH_OPS = {
    "add": (tc.add, [(3, 4), (4,)]),
    "scale": (lambda x: tc.scale(x, -2.5), [(3, 4)]),
    "gelu": (tc.gelu, [(3, 4)]),
    "tsum": (lambda x: tc.tsum(x, axis=0), [(3, 4)]),
    "tmean": (tc.tmean, [(3, 4)]),
    "reshape": (lambda x: tc.reshape(x, (4, 3)), [(3, 4)]),
    "gather_rows": (lambda x: tc.gather_rows(x, _KEEP), [(3, 4)]),
    "place_rows": (lambda r, f: tc.place_rows(r, _AT, f), [(3, 4), (4,)]),
    "matmul": (tc.matmul, [(3, 4), (4, 2)]),
    "matmul with a bias": (tc.matmul, [(3, 4), (4, 2), (2,)]),
    "softmax": (tc.softmax, [(3, 4)]),
    "cross_entropy": (lambda x: tc.cross_entropy(x, [2, 0, 3]), [(3, 4)]),
    "rec_objective": (lambda t: _objective(_TARGET, t, 0.5, _KEEP)[0],
                      [(3, 4)]),
    "attention": (lambda q, k, v: tc.attention(q, k, v, 2),
                  [(3, 4), (5, 4), (5, 4)]),
    "layer_norm": (tc.layer_norm, [(3, 4), (4,), (4,)]),
}


def test_graph_ops_cover_every_public_op():
    # "<op> with ..." names a further case of op
    assert {name.split()[0] for name in GRAPH_OPS} == _public_ops() - {
        "erf", "check_finite"}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", GRAPH_OPS)
def test_ops_keep_their_operands_dtype(name, dtype, monkeypatch):
    # an op computes, and hands its operands' gradients back, in their
    # dtype; the objective computes in float64 and returns a float64
    # total, but hands the rows their gradient in the rows' dtype
    build, shapes = GRAPH_OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    tensors = [tc.Tensor(rng.uniform(0.5, 2.0, size=shape).astype(dtype),
                         requires_grad=True) for shape in shapes]
    out = build(*tensors)
    is_loss = name == "rec_objective"
    assert out.data.dtype == (np.float64 if is_loss else dtype)
    handed, accumulate = [], tc.Tensor._accumulate

    def spy(t, g):  # every gradient the op's graph hands back
        if t is not out:
            handed.append(np.asarray(g).dtype)
        accumulate(t, g)

    monkeypatch.setattr(tc.Tensor, "_accumulate", spy)
    tc.tsum(out).backward()
    assert [t.grad.dtype for t in tensors] == [np.dtype(dtype)] * len(shapes)
    assert set(handed) == {np.dtype(dtype)}


@pytest.mark.parametrize("name, wrt", [(name, None) for name in GRAPH_OPS] + [
    (name, i) for name, (_, shapes) in GRAPH_OPS.items() if len(shapes) > 1
    for i in range(len(shapes))])
def test_graph_only_where_a_gradient_is_needed(name, wrt):
    # with no operand needing a gradient an op keeps no graph, so a
    # one-operand backward runs only for an operand that needs one; with
    # one of several, backward fills that operand's gradient alone
    build, shapes = GRAPH_OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    arrays = [rng.uniform(0.5, 2.0, size=shape) for shape in shapes]
    tensors = [tc.Tensor(a, requires_grad=i == wrt)
               for i, a in enumerate(arrays)]
    out = build(*tensors)
    if wrt is None:
        assert not out.requires_grad
        assert out._backward is None and out._parents == ()
        return
    weights = np.random.default_rng(21).normal(size=out.shape)
    weighted_sum(out, weights).backward()
    full = _grad_of(lambda *ts: weighted_sum(build(*ts), weights), *arrays)
    assert [t.grad is None for t in tensors] == [i != wrt
                                                 for i in range(len(shapes))]
    np.testing.assert_array_equal(tensors[wrt].grad, full[wrt])
