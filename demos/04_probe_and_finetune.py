"""
From reconstruction to classification
=====================================

Pre-train on a small corpus of scenes drawn from one material family,
then classify pixels of a held-out scene two ways: a linear probe
(train only the class head on frozen features) and a full fine-tune.
The probe is the interesting comparison -- against the same probe on a
randomly initialized encoder, it shows how much of the class structure
pre-training packed into the latent space.
"""

from hsimae import hsidata, model, training

# Eight pre-training scenes plus one held-out scene, all sharing one
# endmember family (endmember_seed) but with different layouts,
# brightness fields, and noise.
corpus = [hsidata.gen_synthetic(27, 27, 24, 4, seed=100 + i,
                                endmember_seed=555) for i in range(8)]
held = hsidata.gen_synthetic(27, 27, 24, 4, seed=999, endmember_seed=555)

# A deliberately narrow model: with only 8 latent dimensions a random
# projection loses class information, so pre-training has something to
# show. Spatial-only masking converges fastest at this budget.
cfg = model.ModelConfig(d_model=8, n_heads=2, d_ff=32,
                        n_enc_layers=2, n_dec_layers=1)
settings = training.TrainSettings(steps=2000, rho_s=0.5, rho_b=0.0,
                                  lr=2e-3, weight_decay=0.05)
pretrained, log = training.pretrain(corpus, cfg, settings, run_seed=5)
print(f"pre-trained 2000 steps, final l_rec {log[-1]['l_rec']:.3f}")

rows = training.make_split(held, 0.1, seed=3)
split = ([(i, j, c) for i, j, c, s in rows if s == "train"],
         [(i, j, c) for i, j, c, s in rows if s == "test"])
print(f"held-out split: {len(split[0])} train / {len(split[1])} test pixels")

probe_settings = training.TrainSettings(ft_epochs=20)
for tag, p in [("pretrained", pretrained),
               ("random-init", model.init_params(cfg, 3, 3, 3, 4, seed=77))]:
    report, _ = training.finetune(p, held, split, "probe",
                                  probe_settings, run_seed=1)
    print(f"linear probe, {tag}: OA {report.oa:.2f}  AA {report.aa:.2f}  "
          f"kappa {report.kappa:.3f}")

# Full fine-tuning adapts the encoder too; on an easy 2-class scene it
# should be near-perfect.
two = hsidata.gen_synthetic(27, 27, 24, 2, seed=42)
rows2 = training.make_split(two, 0.3, seed=1)
split2 = ([(i, j, c) for i, j, c, s in rows2 if s == "train"],
          [(i, j, c) for i, j, c, s in rows2 if s == "test"])
report, _ = training.finetune(pretrained, two, split2, "full",
                              training.TrainSettings(ft_epochs=20),
                              run_seed=2)
print(f"full fine-tune, 2 classes: OA {report.oa:.2f}  "
      f"kappa {report.kappa:.3f}")
