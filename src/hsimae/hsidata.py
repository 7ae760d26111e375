"""Hyperspectral cube data model, HSC file I/O, normalization, synthesis.

The HSC container (little-endian):

    magic  "HSC1"                      4 bytes
    H, W, B                            3 x u32
    label-flag                         u8, 0 or 1 (1 = labels present)
    wavelengths (micrometers)          B x f64, finite, > 0, strictly increasing
    values                             H*W*B x f64, i outer, j middle, b inner
    labels (if flag = 1)               H*W x u16, 0 = unlabeled

Wavelengths are micrometers everywhere in this package.
"""

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"HSC1"
STD_FLOOR = 1e-8


class FormatError(ValueError):
    """HSC file is malformed; message names the byte offset."""


def _valid_wavelengths(w):
    """Finite (so not NaN), positive and strictly increasing."""
    return np.all(np.isfinite(w) & (w > 0)) and np.all(np.diff(w) > 0)


@dataclass
class HsiCube:
    """H x W x B radiance cube with band center wavelengths in micrometers.

    An unlabeled cube may also hold a stack of equal-sized windows,
    (N, H, W, B), that share one set of wavelengths.
    """

    values: np.ndarray          # (H, W, B) float64, or (N, H, W, B)
    wavelengths: np.ndarray     # (B,) float64, see _valid_wavelengths
    labels: np.ndarray | None = None  # (H, W) uint16, 0 = unlabeled

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.wavelengths = np.ascontiguousarray(self.wavelengths, dtype=np.float64)
        if self.values.ndim != 3 and (self.values.ndim != 4
                                      or self.labels is not None):
            raise ValueError(f"values must be 3-D, or a 4-D stack of "
                             f"unlabeled windows, got {self.values.shape}")
        if 0 in self.values.shape[-3:]:
            raise ValueError(f"zero extent in shape {self.values.shape}")
        if self.wavelengths.shape != (self.values.shape[-1],):
            raise ValueError("wavelength count must equal band count")
        if not _valid_wavelengths(self.wavelengths):
            raise ValueError(
                "wavelengths must be finite, positive and strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("cube values must be finite")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.uint16)
            if self.labels.shape != self.values.shape[:2]:
                raise ValueError("labels must be H x W")

    @property
    def height(self):
        return self.values.shape[-3]

    @property
    def width(self):
        return self.values.shape[-2]

    @property
    def bands(self):
        return self.values.shape[-1]


_staged = None  # [(temporary file, path)] while staged_outputs runs


@contextlib.contextmanager
def staged_outputs():
    """Make the files that atomic_write writes inside the block one
    all-or-nothing set: each replaces its path only once the whole block
    has succeeded, and if anything in it fails, none does."""
    global _staged
    _staged = staged = []
    try:
        yield
        while staged:
            os.replace(*staged.pop(0))
    finally:
        _staged = None
        for tmp, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


@contextlib.contextmanager
def atomic_write(path):
    """A binary file whose bytes replace `path` only once the block ends
    (inside staged_outputs, once that block ends); every output but
    pretrain's streamed log is written through it.

    They go to a temporary file in the same directory, which is synced to
    disk and then renamed over `path`. A write that fails leaves the old
    file as it was and removes the temporary one; a process killed
    mid-write leaves the old file and a `*.tmp` file beside it.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        if _staged is None:
            os.replace(tmp, path)
        else:
            _staged.append((tmp, path))
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_cube(cube, path):
    """Write an HSC file, atomically; bit-exact round-trip with load_cube."""
    h, w, b = cube.values.shape
    flag = 1 if cube.labels is not None else 0
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIB", h, w, b, flag))
        fh.write(cube.wavelengths.astype("<f8").tobytes())
        fh.write(cube.values.astype("<f8").tobytes())
        if flag:
            fh.write(cube.labels.astype("<u2").tobytes())


def load_cube(path):
    """Read an HSC file written by save_cube."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r} at offset 0")
    if len(raw) < 17:
        raise FormatError(f"truncated header at offset {len(raw)}")
    h, w, b, flag = struct.unpack_from("<IIIB", raw, 4)
    for axis, n, at in (("H", h, 4), ("W", w, 8), ("B", b, 12)):
        if n == 0:
            raise FormatError(f"zero extent {axis} = 0 at offset {at}")
    if flag not in (0, 1):
        raise FormatError(f"label flag {flag} at offset 16, expected 0 or 1")
    table_end = 17 + b * 8
    values_end = table_end + h * w * b * 8
    end = values_end + flag * h * w * 2
    for section, at in (("wavelength table", table_end),
                        ("value payload", values_end), ("label section", end)):
        if len(raw) < at:
            raise FormatError(f"truncated {section} at offset {len(raw)}")
    if len(raw) != end:
        raise FormatError(f"trailing bytes at offset {end}")
    wavelengths = np.frombuffer(raw, dtype="<f8", count=b, offset=17).copy()
    if not _valid_wavelengths(wavelengths):
        raise FormatError("wavelengths not finite, positive and strictly "
                          "increasing at offset 17")
    values = np.frombuffer(raw, dtype="<f8", count=h * w * b, offset=table_end)
    if not (finite := np.isfinite(values)).all():
        at = table_end + 8 * int(np.argmin(finite))
        raise FormatError(f"non-finite value at offset {at}")
    values = values.reshape(h, w, b).copy()
    labels = (np.frombuffer(raw, dtype="<u2", count=h * w, offset=values_end)
              .reshape(h, w).copy() if flag else None)
    return HsiCube(values=values, wavelengths=wavelengths, labels=labels)


def normalize(cube):
    """Per-band z-score: the normalized cube and its per-band (mean, std),
    the std floored at STD_FLOOR; values * std + mean undoes it."""
    mean = cube.values.mean(axis=(0, 1))
    std = np.maximum(cube.values.std(axis=(0, 1)), STD_FLOOR)
    out = (cube.values - mean) / std
    return (HsiCube(values=out, wavelengths=cube.wavelengths.copy(),
                    labels=None if cube.labels is None else cube.labels.copy()),
            (mean, std))


def _split_rectangles(h, w, n, rng):
    """Partition the h x w grid into n contiguous rectangles."""
    rects = [(0, h, 0, w)]
    while len(rects) < n:
        # split the largest rectangle r along its longer side, r[a:a + 2]
        areas = [(r[1] - r[0]) * (r[3] - r[2]) for r in rects]
        i = int(np.argmax(areas))
        r = rects.pop(i)
        a = 0 if r[1] - r[0] >= r[3] - r[2] else 2
        lo, hi = r[a:a + 2]
        cut = min(hi - 1, lo + int(rng.integers((hi - lo) // 3 + 1,
                                                2 * (hi - lo) // 3 + 2)))
        head, tail = r[:a], r[a + 2:]
        rects.extend([head + (lo, cut) + tail, head + (cut, hi) + tail])
    return rects


def _draw_endmembers(wavelengths, n_classes, rng):
    """Smooth positive spectra, each a sum of 2-4 Gaussian bumps."""
    lo, hi = wavelengths[0], wavelengths[-1]
    ems = np.zeros((n_classes, wavelengths.size))
    for c in range(n_classes):
        n_bumps = int(rng.integers(2, 5))
        spec = np.full(wavelengths.size, 0.05)
        for _ in range(n_bumps):
            center = rng.uniform(lo, hi)
            width = rng.uniform(0.08, 0.5) * (hi - lo)
            amp = rng.uniform(0.3, 1.0)
            spec = spec + amp * np.exp(-0.5 * ((wavelengths - center) / width) ** 2)
        ems[c] = spec
    return ems


def _smooth_field(h, w, rng):
    """Spatially smooth multiplicative brightness in roughly [0.7, 1.3]."""
    fy = rng.uniform(0.5, 2.0)
    fx = rng.uniform(0.5, 2.0)
    py = rng.uniform(0, 2 * np.pi)
    px = rng.uniform(0, 2 * np.pi)
    ii = np.arange(h)[:, None] / max(h - 1, 1)
    jj = np.arange(w)[None, :] / max(w - 1, 1)
    return 1.0 + 0.3 * np.sin(2 * np.pi * fy * ii + py) * np.cos(2 * np.pi * fx * jj + px)


MIN_ENDMEMBER_SAM = 0.15  # radians; redrawn until classes are separable
MAX_ENDMEMBER_DRAWS = 10_000  # then gen_synthetic gives up


def _separable(ems):
    """No two endmember spectra lie MIN_ENDMEMBER_SAM or less apart."""
    norms = [np.linalg.norm(e) for e in ems]
    for a in range(len(ems)):
        for b in range(a + 1, len(ems)):
            cos = ems[a] @ ems[b] / (norms[a] * norms[b])
            if not np.arccos(np.clip(cos, -1.0, 1.0)) > MIN_ENDMEMBER_SAM:
                return False
    return True


def gen_synthetic(h, w, b, n_classes, seed, endmember_seed=None):
    """Labeled synthetic cube: rectangular class segments, smooth endmember
    spectra, a smooth brightness field, and additive Gaussian noise.

    With `endmember_seed`, class spectra come from their own generator so
    several cubes can share one material family while layout, brightness,
    and noise still follow `seed` (a stand-in for pre-training scenes of
    one sensor corpus).
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if b < 8 or h < 9 or w < 9:
        raise ValueError(f"cube too small: {h}x{w}x{b} (need >= 9x9x8)")
    rng = np.random.default_rng(seed)
    wavelengths = np.linspace(0.4, 2.5, b)

    em_rng = rng if endmember_seed is None else np.random.default_rng(endmember_seed)
    for _ in range(MAX_ENDMEMBER_DRAWS):
        ems = _draw_endmembers(wavelengths, n_classes, em_rng)
        if _separable(ems):
            break
    else:
        raise ValueError(f"{MAX_ENDMEMBER_DRAWS} draws of {n_classes} endmember "
                         f"spectra found none {MIN_ENDMEMBER_SAM} rad apart")

    rects = _split_rectangles(h, w, n_classes, rng)
    labels = np.zeros((h, w), dtype=np.uint16)
    for c, (i0, i1, j0, j1) in enumerate(rects):
        labels[i0:i1, j0:j1] = c + 1

    brightness = _smooth_field(h, w, rng)
    clean = ems[labels - 1] * brightness[:, :, None]
    sigma = 0.02 * (clean.max() - clean.min())
    values = clean + rng.normal(0.0, sigma, size=clean.shape)
    return HsiCube(values=values, wavelengths=wavelengths, labels=labels)


def class_endmembers(cube):
    """Mean spectrum per labeled class; diagnostic for synthetic cubes."""
    classes = np.unique(cube.labels)
    classes = classes[classes > 0]
    return {int(c): cube.values[cube.labels == c].mean(axis=0) for c in classes}
