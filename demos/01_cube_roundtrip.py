"""
Synthetic cubes and the HSC container
=====================================

Generate a labeled hyperspectral cube, write it to disk, read it back,
and poke at the numbers. Everything here is float64 end to end, so the
round-trip is bit-exact.
"""

import tempfile
from pathlib import Path

import numpy as np

from hsimae import hsidata

# A 27 x 27 scene with 24 bands and 3 rectangular land-cover classes.
cube = hsidata.gen_synthetic(27, 27, 24, n_classes=3, seed=7)
print("cube:", cube.values.shape, "wavelengths",
      cube.wavelengths[0], "to", cube.wavelengths[-1], "micrometers")
print("class pixel counts:",
      {int(c): int((cube.labels == c).sum()) for c in (1, 2, 3)})

# Each class is a smooth endmember spectrum times a slowly varying
# brightness field, plus a little Gaussian noise.
ems = hsidata.class_endmembers(cube)
for c, spec in ems.items():
    print(f"class {c}: mean reflectance {spec.mean():.3f}, "
          f"peak at band {int(np.argmax(spec))}")

# Round-trip through the HSC binary format.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.hsc"
    hsidata.save_cube(cube, path)
    back = hsidata.load_cube(path)
    print("file size:", path.stat().st_size, "bytes")
print("values identical:", np.array_equal(back.values, cube.values))
print("labels identical:", np.array_equal(back.labels, cube.labels))

# Per-band z-scoring is what the model actually consumes; values * std
# + mean undoes it exactly up to float rounding.
normed, (mean, std) = hsidata.normalize(cube)
restored = normed.values * std + mean
print("max abs error after undoing the z-score:",
      float(np.abs(restored - cube.values).max()))
