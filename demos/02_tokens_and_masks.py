"""
Tokenization, wavelength encoding, and dual masking
===================================================

A cube becomes a grid of 9 x 9 x 8 patches; each patch is one token.
Tokens carry three additive signals: a linear projection of the patch,
a learned spatial position vector, and a sinusoidal encoding of the
patch group's mean wavelength. Masking then hides whole spatial cells
and whole spectral groups at once.
"""

import numpy as np

from hsimae import hsidata, masking, tokenizer

cube = hsidata.gen_synthetic(36, 36, 32, n_classes=3, seed=1)
normed, _ = hsidata.normalize(cube)

# 36 x 36 x 32 is a whole number of patches, so report_cropping, which
# warns about rows, columns and bands past the patch multiples, is silent.
grid = tokenizer.partition(normed)
tokenizer.report_cropping(normed.values.shape)
n_tokens = grid.patches.shape[-2]
print(f"grid: P={grid.P} Q={grid.Q} K={grid.K} -> {n_tokens} tokens "
      f"of length {tokenizer.PATCH_LEN}")

# Every spectral group of 8 bands gets one representative wavelength.
print("group mean wavelengths:", np.round(grid.lambdas, 3))

# The wavelength encoding is an interleaved sin/cos stack whose squared
# norm is d/2 by the sin^2 + cos^2 identity -- for every wavelength.
table = tokenizer.wavelength_table(grid.lambdas, 64)
for lam, enc in zip(grid.lambdas, table):
    print(f"  lambda {lam:.3f} um: ||enc||^2 = {enc @ enc:.12f}")

# Dual masking: half the spatial cells and half the spectral groups.
# A token survives only if both its cell and its group survive, so a
# 50/50 draw leaves about a quarter of the tokens visible.
plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K, 0.5, 0.5, seed=3)
print(f"masked cells {plan.cell_masked.sum()}/{grid.P * grid.Q}, "
      f"masked groups {plan.group_masked.sum()}/{grid.K}")
print(f"visible tokens {plan.visible_ids.size}/{n_tokens} "
      f"({100 * plan.visible_ids.size / n_tokens:.0f}%)")

# The voxel mask marks exactly the voxels of masked tokens, the voxels
# that the masked MSE term of the training loss averages over: it reads
# the masked tokens' rows, each of PATCH_LEN voxels, and nothing else.
vox = masking.voxel_mask(plan, *normed.values.shape)
print("masked voxels:", int(vox.sum()), "=",
      plan.masked_ids.size, "x", tokenizer.PATCH_LEN)

# Plans serialize, so a reconstruction can be replayed exactly.
replay = masking.MaskPlan.from_json(plan.to_json())
print("round-tripped plan identical:",
      np.array_equal(replay.visible_ids, plan.visible_ids))
