"""
Masked-reconstruction pre-training
==================================

Train the autoencoder to fill in hidden tokens on one synthetic cube,
then look at how the reconstruction error falls and where the spectral
angle ends up. A few hundred steps with a fixed mask plan is enough to
memorize a single scene; that is the point of this demo, not a claim
about generalization.
"""

import numpy as np

from hsimae import hsidata, masking, model, tokenizer, training

cube = hsidata.gen_synthetic(27, 27, 24, n_classes=3, seed=7)

settings = training.TrainSettings(steps=300, fixed_plan=True, augment=False)
params, log = training.pretrain([cube], model.ModelConfig(), settings,
                                run_seed=0)

print(f"model: {params.flat.size} parameters "
      f"(d_model={params.config.d_model})")
for entry in log[:: len(log) // 10]:
    print(f"  step {entry['step']:4d}  l_rec {entry['l_rec']:.4f}  "
          f"(mse {entry['l_mse']:.4f}, sam {entry['l_sam']:.4f})")
print(f"loss ratio final/first: {log[-1]['l_rec'] / log[0]['l_rec']:.3f}")

# Reconstruct with a fresh mask and score it per pixel.
normed, _ = hsidata.normalize(cube)
grid = tokenizer.partition(normed)
plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K, 0.5, 0.5, seed=99)
_, report, recon = training.masked_loss(params, grid, plan, 0.5,
                                        params.tensors(trainable=set()))
print("fresh-mask report:", report.to_json())

# The error on the voxels hidden from the encoder, and on those it saw.
vox = masking.voxel_mask(plan, *grid.cropped_values.shape)
err = grid.cropped_values - recon.data
print("masked-voxel RMSE:", float(np.sqrt((err[vox] ** 2).mean())))
print("visible-voxel RMSE:", float(np.sqrt((err[~vox] ** 2).mean())))
