import numpy as np
import pytest

from hsimae import hsidata, model, tokenizer
from hsimae import tensorcore as tc


def _cube(h, w, b, seed=0):
    rng = np.random.default_rng(seed)
    return hsidata.HsiCube(values=rng.normal(size=(h, w, b)),
                           wavelengths=np.linspace(0.4, 2.5, b))


class TestPartition:
    def test_27_cube(self):
        grid = tokenizer.partition(_cube(27, 27, 24))
        assert (grid.P, grid.Q, grid.K) == (3, 3, 3)
        assert grid.patches.shape == (27, 648)

    def test_indian_pines_dims(self):
        grid = tokenizer.partition(_cube(145, 145, 224, seed=1))
        assert (grid.P, grid.Q, grid.K) == (16, 16, 28)
        assert grid.patches.shape[-2] == 7168

    def test_single_token_with_crop(self, caplog):
        cube = _cube(10, 10, 9)
        grid = tokenizer.partition(cube)
        assert grid.patches.shape[-2] == 1
        with caplog.at_level("WARNING", logger="hsimae.tokenizer"):
            tokenizer.report_cropping(cube.values.shape)
        assert caplog.messages == [
            "cropping 1 rows, 1 cols, 1 bands past patch multiples"]
        np.testing.assert_array_equal(
            tokenizer.to_cube(grid.patches.reshape(grid.block_shape)),
            cube.values[:9, :9, :8])

    def test_too_small(self):
        with pytest.raises(ValueError):
            tokenizer.partition(_cube(9, 9, 7))

    def test_patch_contents_and_flatten_order(self):
        cube = _cube(18, 9, 16, seed=2)
        grid = tokenizer.partition(cube)
        t = np.ravel_multi_index((1, 0, 1), (grid.P, grid.Q, grid.K))
        block = cube.values[9:18, 0:9, 8:16]
        # i-outer, j-middle, b-inner
        manual = np.array([block[i, j, b]
                           for i in range(9) for j in range(9) for b in range(8)])
        np.testing.assert_array_equal(grid.patches[t], manual)

    def test_stack_of_windows(self):
        rng = np.random.default_rng(4)
        stack = hsidata.HsiCube(values=rng.normal(size=(3, 19, 9, 17)),
                                wavelengths=np.linspace(0.4, 2.5, 17))
        grid = tokenizer.partition(stack)
        assert grid.patches.shape == (3, 4, 648)
        assert grid.block_shape == (3, 2, 1, 2, 9, 9, 8)
        np.testing.assert_array_equal(
            tokenizer.to_cube(grid.patches.reshape(grid.block_shape)),
            stack.values[:, :18, :9, :16])
        for n in range(3):
            one = tokenizer.partition(hsidata.HsiCube(
                values=stack.values[n], wavelengths=stack.wavelengths))
            np.testing.assert_array_equal(grid.patches[n], one.patches)

    def test_spectral_axes_hold_each_pixels_spectrum(self):
        # a sum over the block view's SPECTRAL_AXES is a per-pixel sum over
        # the bands, and to_cube lays it out as a (9P, 9Q, 1) map
        cube = _cube(20, 19, 17, seed=6)
        grid = tokenizer.partition(cube)
        sums = np.sum(grid.patches.reshape(grid.block_shape),
                      axis=tokenizer.SPECTRAL_AXES, keepdims=True)
        np.testing.assert_allclose(
            tokenizer.to_cube(sums),
            cube.values[:18, :18, :16].sum(axis=-1, keepdims=True),
            rtol=1e-13)

    def test_every_voxel_in_exactly_one_patch(self):
        cube = _cube(20, 19, 17, seed=3)
        grid = tokenizer.partition(cube)
        counts = np.zeros((20, 19, 17), dtype=int)
        for t, (p, q, k) in enumerate(np.ndindex(grid.P, grid.Q, grid.K)):
            for i in range(9 * p, 9 * (p + 1)):
                for j in range(9 * q, 9 * (q + 1)):
                    for b in range(8 * k, 8 * (k + 1)):
                        counts[i, j, b] += 1
        inside = counts[:9 * grid.P, :9 * grid.Q, :8 * grid.K]
        assert np.all(inside == 1)
        counts[:9 * grid.P, :9 * grid.Q, :8 * grid.K] = 0
        assert np.all(counts == 0)


def _lambdas(centers):
    """Group wavelengths partition gives a cube with these band centers."""
    centers = np.asarray(centers)
    cube = hsidata.HsiCube(values=np.zeros((9, 9, centers.size)),
                           wavelengths=centers)
    return tokenizer.partition(cube).lambdas


def _table_row(lam, d):
    return tokenizer.wavelength_table(np.array([lam]), d)[0]


class TestMeanWavelength:
    def test_constant(self):
        # centers symmetric about 1.0, each exact in binary
        assert _lambdas(1.0 + (np.arange(8) - 3.5) / 8)[0] == 1.0

    def test_arithmetic(self):
        centers = 0.4 + 0.01 * np.arange(8)
        assert _lambdas(centers)[0] == pytest.approx(0.435)

    def test_within_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            centers = np.sort(rng.uniform(0.4, 2.5, size=24))
            groups = centers.reshape(3, 8)
            m = _lambdas(centers)
            assert np.all(groups.min(axis=1) <= m)
            assert np.all(m <= groups.max(axis=1))


class TestSpecEnc:
    def test_unit_omega(self):
        v = _table_row(2.0 * np.pi, 8)
        assert v[0] == pytest.approx(np.sin(1.0), abs=1e-6)
        assert v[1] == pytest.approx(np.cos(1.0), abs=1e-6)
        assert v[0] == pytest.approx(0.841471, abs=1e-6)
        assert v[1] == pytest.approx(0.540302, abs=1e-6)

    def test_second_frequency_pair(self):
        v = _table_row(2.0 * np.pi, 4)
        arg = 1.0 / 10000.0 ** 0.5
        assert v[2] == pytest.approx(np.sin(arg), abs=1e-9)
        assert v[3] == pytest.approx(np.cos(arg), abs=1e-9)
        assert v[2] == pytest.approx(0.0099998, abs=1e-6)
        assert v[3] == pytest.approx(0.99995, abs=1e-5)

    @pytest.mark.parametrize("d", [2, 8, 64])
    def test_norm_identity(self, d):
        rng = np.random.default_rng(d)
        table = tokenizer.wavelength_table(rng.uniform(0.35, 2.6, size=10), d)
        np.testing.assert_allclose(np.sum(table * table, axis=1), d / 2,
                                   rtol=0, atol=1e-12)

    def test_injective_over_band_range(self):
        lams = np.arange(0.35, 2.6, 0.001)  # 1 nm spacing
        vecs = tokenizer.wavelength_table(lams, 2)
        d = np.linalg.norm(np.diff(vecs, axis=0), axis=1)
        assert np.all(d > 1e-6)

    def test_invalid_args(self):
        # the table itself checks nothing: an odd width is rejected by
        # the model config, a non-positive wavelength by the cube
        with pytest.raises(ValueError):
            model.ModelConfig(d_model=3, n_heads=1)
        with pytest.raises(ValueError):
            hsidata.HsiCube(values=np.zeros((9, 9, 8)),
                            wavelengths=np.linspace(-1.0, 1.0, 8))


class TestSinusoidalPe:
    """The interleaved sin/cos rows of the wavelength table; a wavelength
    of 2*pi/x gives argument x at the first frequency."""

    def test_pos_zero(self):
        v = _table_row(np.inf, 6)
        np.testing.assert_array_equal(v, [0, 1, 0, 1, 0, 1])

    def test_pos_one_d2(self):
        v = _table_row(2.0 * np.pi, 2)
        np.testing.assert_allclose(v, [np.sin(1.0), np.cos(1.0)], rtol=1e-12)

    def test_norm_identity(self):
        for lam in [np.inf, 2.0 * np.pi, 2.0 * np.pi / 7, 2.0 * np.pi / 100]:
            v = _table_row(lam, 16)
            assert np.sum(v * v) == pytest.approx(8.0, abs=1e-12)

    def test_odd_dim_rejected(self):
        # the encoding pairs sin with cos, so the model width must be even
        with pytest.raises(ValueError, match="even"):
            model.ModelConfig(d_model=5, n_heads=1)


class TestEmbedTokens:
    """Token embeddings as model.embed_for builds them."""

    def _setup(self, d=6, seed=0):
        cube = _cube(27, 27, 24, seed=seed)
        grid = tokenizer.partition(cube)
        params = model.init_params(model.ModelConfig(d_model=d, n_heads=2),
                                   grid.P, grid.Q, grid.K, 2, seed=seed)
        rng = np.random.default_rng(seed + 1)
        tensors = {"patch_proj_w": tc.Tensor(rng.normal(size=(648, d))),
                   "patch_proj_b": tc.Tensor(rng.normal(size=d)),
                   "spatial_pe": tc.Tensor(rng.normal(size=(grid.P * grid.Q, d)))}
        return grid, params, tensors

    def test_output_shape(self):
        grid, params, tensors = self._setup()
        out, rows = model.embed_for(params, grid, tensors)
        assert out.data.shape == rows.data.shape == (27, 6)

    def test_embeddings_are_the_projection_plus_the_rows(self):
        grid, params, tensors = self._setup()
        out, rows = model.embed_for(params, grid, tensors)
        proj = grid.patches @ tensors["patch_proj_w"].data \
            + tensors["patch_proj_b"].data
        np.testing.assert_array_equal(out.data, proj + rows.data)

    def test_zero_patch_zero_table_gives_specenc(self):
        grid, params, tensors = self._setup(d=8)
        grid.patches[:] = 0.0
        for t in tensors.values():
            t.data[:] = 0.0
        out = model.embed_for(params, grid, tensors)[0]
        table = tokenizer.wavelength_table(grid.lambdas, 8)
        for t, (p, q, k) in enumerate(np.ndindex(grid.P, grid.Q, grid.K)):
            np.testing.assert_allclose(out.data[t], table[k])

    def test_same_patch_different_group_differ_by_specenc(self):
        grid, params, tensors = self._setup(d=8)
        t0, t1 = np.ravel_multi_index(([1, 1], [2, 2], [0, 2]),
                                      (grid.P, grid.Q, grid.K))
        grid.patches[t1] = grid.patches[t0]
        out = model.embed_for(params, grid, tensors)[0].data
        table = tokenizer.wavelength_table(grid.lambdas, 8)
        np.testing.assert_allclose(out[t0] - out[t1], table[0] - table[2],
                                   atol=1e-12)
