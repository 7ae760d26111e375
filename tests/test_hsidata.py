import re
import struct

import numpy as np
import pytest

from hsimae import hsidata


def _random_cube(h=6, w=5, b=8, labeled=True, seed=0):
    # HsiCube itself allows any h, w >= 1; only gen_synthetic needs >= 9x9
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(h, w, b))
    wavelengths = np.linspace(0.4, 2.5, b)
    labels = rng.integers(0, 4, size=(h, w)).astype(np.uint16) if labeled else None
    return hsidata.HsiCube(values=values, wavelengths=wavelengths, labels=labels)


def hsc_bytes(h, w, b, labeled):
    """An HSC file of an h x w x b cube, written field by field."""
    raw = hsidata.MAGIC + struct.pack("<IIIB", h, w, b, int(labeled))
    raw += np.linspace(0.4, 2.5, b).astype("<f8").tobytes()
    raw += np.zeros(h * w * b, dtype="<f8").tobytes()
    if labeled:
        raw += np.ones(h * w, dtype="<u2").tobytes()
    return raw


def _min_angle(ems):
    """The smallest angle between two endmember spectra, every pair's norms
    taken anew: the rule that gen_synthetic's draw check replaced."""
    angles = []
    for a in range(ems.shape[0]):
        for b in range(a + 1, ems.shape[0]):
            cos = ems[a] @ ems[b] / (np.linalg.norm(ems[a]) * np.linalg.norm(ems[b]))
            angles.append(np.arccos(np.clip(cos, -1.0, 1.0)))
    return min(angles)


class TestHscFormat:
    @pytest.mark.parametrize("shape, labeled, named", [
        ((0, 9, 8), True, "zero extent H = 0 at offset 4"),
        ((9, 0, 8), False, "zero extent W = 0 at offset 8"),
        ((9, 9, 0), False, "zero extent B = 0 at offset 12"),
    ], ids=["H", "W", "B"])
    def test_zero_extent_rejected(self, tmp_path, shape, labeled, named):
        path = tmp_path / "c.hsc"
        path.write_bytes(hsc_bytes(*shape, labeled))
        with pytest.raises(hsidata.FormatError, match=named):
            hsidata.load_cube(path)

    def test_round_trip_bit_exact(self, tmp_path):
        cube = _random_cube()
        path = tmp_path / "c.hsc"
        hsidata.save_cube(cube, path)
        back = hsidata.load_cube(path)
        assert np.array_equal(cube.values, back.values)
        assert np.array_equal(cube.wavelengths, back.wavelengths)
        assert np.array_equal(cube.labels, back.labels)

    def test_rewrite_is_byte_identical(self, tmp_path):
        cube = _random_cube()
        p1, p2 = tmp_path / "a.hsc", tmp_path / "b.hsc"
        hsidata.save_cube(cube, p1)
        hsidata.save_cube(hsidata.load_cube(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "c.hsc"
        hsidata.save_cube(_random_cube(seed=1), path)
        before = path.read_bytes()

        class Unwritable(np.ndarray):  # fails as a full disk would
            def astype(self, *args, **kwargs):
                raise OSError("disk full")

        cube = _random_cube(seed=2)
        cube.values = cube.values.view(Unwritable)  # after the header
        with pytest.raises(OSError, match="disk full"):
            hsidata.save_cube(cube, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["c.hsc"]

    def test_unlabeled_omits_label_section(self, tmp_path):
        cube = _random_cube(labeled=False)
        path = tmp_path / "c.hsc"
        hsidata.save_cube(cube, path)
        h, w, b = cube.values.shape
        expected = 4 + 13 + b * 8 + h * w * b * 8
        assert path.stat().st_size == expected
        assert hsidata.load_cube(path).labels is None

    def test_header_arithmetic(self, tmp_path):
        cube = hsidata.gen_synthetic(27, 27, 24, n_classes=3, seed=1)
        path = tmp_path / "c.hsc"
        hsidata.save_cube(cube, path)
        back = hsidata.load_cube(path)
        assert (back.height, back.width, back.bands) == (27, 27, 24)
        payload = 27 * 27 * 24 * 8
        assert path.stat().st_size == 4 + 13 + 24 * 8 + payload + 27 * 27 * 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "c.hsc"
        hsidata.save_cube(_random_cube(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XSC1"
        path.write_bytes(bytes(raw))
        with pytest.raises(hsidata.FormatError, match="magic"):
            hsidata.load_cube(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "c.hsc"
        hsidata.save_cube(_random_cube(), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(hsidata.FormatError, match="offset"):
            hsidata.load_cube(path)

    def test_non_increasing_wavelengths(self, tmp_path):
        cube = _random_cube(labeled=False)
        path = tmp_path / "c.hsc"
        hsidata.save_cube(cube, path)
        saved = path.read_bytes()
        # a constant table, and the saved table with one NaN, which every
        # comparison would pass
        for table in (np.ones(cube.bands),
                      np.where(np.arange(cube.bands) == 3, np.nan,
                               cube.wavelengths)):
            raw = bytearray(saved)
            raw[17:17 + 8 * cube.bands] = table.astype("<f8").tobytes()
            path.write_bytes(bytes(raw))
            with pytest.raises(hsidata.FormatError,
                               match="wavelengths .* at offset 17"):
                hsidata.load_cube(path)

    @pytest.mark.parametrize("flag", [2, 255])
    def test_label_flag_must_be_zero_or_one(self, tmp_path, flag):
        raw = bytearray(hsc_bytes(9, 9, 8, labeled=True))
        raw[16] = flag
        path = tmp_path / "c.hsc"
        path.write_bytes(bytes(raw))
        with pytest.raises(hsidata.FormatError,
                           match=f"label flag {flag} at offset 16"):
            hsidata.load_cube(path)


class TestNormalize:
    def test_constant_band_floored(self):
        values = np.ones((4, 4, 2))
        values[:, :, 1] = np.random.default_rng(0).normal(size=(4, 4))
        cube = hsidata.HsiCube(values=values, wavelengths=np.array([0.5, 0.6]))
        normed, (_, std) = hsidata.normalize(cube)
        assert np.all(normed.values[:, :, 0] == 0.0)
        assert std[0] == hsidata.STD_FLOOR

    def test_two_point_band(self):
        values = np.zeros((1, 2, 1))
        values[0, 1, 0] = 2.0
        cube = hsidata.HsiCube(values=values, wavelengths=np.array([0.5]))
        normed, _ = hsidata.normalize(cube)
        np.testing.assert_allclose(normed.values[0, :, 0], [-1.0, 1.0])

    def test_round_trip(self):
        cube = _random_cube(seed=3)
        normed, (mean, std) = hsidata.normalize(cube)
        np.testing.assert_allclose(normed.values * std + mean, cube.values,
                                   rtol=1e-12, atol=1e-12)

    def test_zero_mean_unit_std(self):
        cube = _random_cube(h=16, w=16, seed=4)
        normed, _ = hsidata.normalize(cube)
        np.testing.assert_allclose(normed.values.mean(axis=(0, 1)),
                                   np.zeros(cube.bands), atol=1e-12)
        np.testing.assert_allclose(normed.values.std(axis=(0, 1)),
                                   np.ones(cube.bands), rtol=1e-9)


class TestGenSynthetic:
    def test_deterministic(self):
        a = hsidata.gen_synthetic(12, 10, 16, 3, seed=42)
        b = hsidata.gen_synthetic(12, 10, 16, 3, seed=42)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_endmember_draws_are_capped(self, monkeypatch):
        # seed 3 draws 8 separable endmembers on its third try
        cube = hsidata.gen_synthetic(18, 18, 16, 8, seed=3)
        monkeypatch.setattr(hsidata, "MAX_ENDMEMBER_DRAWS", 3)
        same = hsidata.gen_synthetic(18, 18, 16, 8, seed=3)
        assert np.array_equal(cube.values, same.values)
        monkeypatch.setattr(hsidata, "MAX_ENDMEMBER_DRAWS", 2)
        with pytest.raises(ValueError, match="2 draws of 8 endmember"):
            hsidata.gen_synthetic(18, 18, 16, 8, seed=3)

    @pytest.mark.parametrize("n_classes", [3, 12, 16, 40])
    def test_separable_decides_as_the_min_angle_rule(self, n_classes):
        rng = np.random.default_rng(n_classes)
        wavelengths = np.linspace(0.4, 2.5, 32)
        draws = [hsidata._draw_endmembers(wavelengths, n_classes, rng)
                 for _ in range(40)]
        got = [hsidata._separable(ems) for ems in draws]
        assert got == [_min_angle(ems) > hsidata.MIN_ENDMEMBER_SAM
                       for ems in draws]
        if n_classes == 3:
            assert any(got) and not all(got)

    def test_seed_changes_output(self):
        a = hsidata.gen_synthetic(12, 10, 16, 3, seed=1)
        b = hsidata.gen_synthetic(12, 10, 16, 3, seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_all_classes_present(self):
        cube = hsidata.gen_synthetic(27, 27, 24, 5, seed=9)
        present = set(np.unique(cube.labels).tolist())
        assert present == {1, 2, 3, 4, 5}

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_two_class_endmember_separation(self, seed):
        cube = hsidata.gen_synthetic(18, 18, 32, 2, seed=seed)
        ems = hsidata.class_endmembers(cube)
        a, b = ems[1], ems[2]
        cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert np.arccos(np.clip(cos, -1, 1)) > 0.15

    def test_wavelength_range(self):
        cube = hsidata.gen_synthetic(9, 9, 8, 2, seed=0)
        assert cube.wavelengths[0] == pytest.approx(0.4)
        assert cube.wavelengths[-1] == pytest.approx(2.5)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            hsidata.gen_synthetic(8, 9, 8, 2, seed=0)
        with pytest.raises(ValueError):
            hsidata.gen_synthetic(9, 9, 7, 2, seed=0)
        with pytest.raises(ValueError):
            hsidata.gen_synthetic(9, 9, 8, 1, seed=0)


class TestHsiCube:
    @pytest.mark.parametrize("shape", [(0, 9, 8), (9, 0, 8), (9, 9, 0),
                                       (2, 9, 0, 8)])
    def test_zero_extent_rejected(self, shape):
        with pytest.raises(ValueError,
                           match=re.escape(f"zero extent in shape {shape}")):
            hsidata.HsiCube(values=np.zeros(shape),
                            wavelengths=np.linspace(0.4, 2.5, shape[-1]))

    @pytest.mark.parametrize("wavelengths", [
        [0.4, np.nan, 0.6], [0.4, 0.5, np.inf], [0.0, 0.5, 0.6],
        [0.4, 0.4, 0.6],
    ], ids=["nan", "inf", "zero", "repeated"])
    def test_bad_wavelengths_rejected(self, wavelengths):
        with pytest.raises(ValueError, match="wavelengths must be finite"):
            hsidata.HsiCube(values=np.zeros((2, 2, 3)),
                            wavelengths=np.array(wavelengths))


class TestWindowStack:
    def test_unlabeled_stack_accepted(self):
        stack = hsidata.HsiCube(values=np.zeros((4, 9, 9, 8)),
                                wavelengths=np.linspace(0.4, 2.5, 8))
        assert (stack.height, stack.width, stack.bands) == (9, 9, 8)

    def test_labeled_stack_and_other_ranks_rejected(self):
        with pytest.raises(ValueError, match="3-D"):
            hsidata.HsiCube(values=np.zeros((4, 9, 9, 8)),
                            wavelengths=np.linspace(0.4, 2.5, 8),
                            labels=np.ones((9, 9)))
        with pytest.raises(ValueError, match="3-D"):
            hsidata.HsiCube(values=np.zeros((9, 8)),
                            wavelengths=np.linspace(0.4, 2.5, 8))
