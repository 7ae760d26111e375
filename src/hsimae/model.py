"""Transformer encoder/decoder over spatial-spectral tokens.

Pre-norm ViT-style blocks. The encoder sees only visible tokens; the
decoder places encoder latents back at the visible slots of the full
token grid and a learned mask token at the hidden ones, re-adds the
positional encodings (mask tokens are otherwise position-blind), and
maps every token back to its 648 voxel values. A separate head
classifies a cube, or each window of a stack, from the mean-pooled
latents of an unmasked encoding pass.
"""

import json
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import masking, tokenizer
from . import tensorcore as tc
from .hsidata import atomic_write
from .tokenizer import PATCH_B, PATCH_H, PATCH_LEN, PATCH_W

CHECKPOINT_MAGIC = "hsimae-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    d_model: int = 64
    n_enc_layers: int = 4
    n_dec_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256

    def __post_init__(self):
        if min(self.d_model, self.n_enc_layers, self.n_dec_layers,
               self.n_heads, self.d_ff) < 1:
            raise ValueError("all config counts must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError(
                f"d_model {self.d_model} not divisible by {self.n_heads} heads")
        if self.d_model % 2:
            raise ValueError("d_model must be even (wavelength encoding pairs)")

    def to_dict(self):
        return asdict(self)


def micro_config():
    """Smallest useful config; used for finite-difference gradient checks."""
    return ModelConfig(d_model=16, n_enc_layers=1, n_dec_layers=1,
                       n_heads=2, d_ff=32)


def param_shapes(config, P, Q, n_classes):
    """Fixed parameter order; also the checkpoint payload order."""
    d, f = config.d_model, config.d_ff
    shapes = {}
    shapes["patch_proj_w"] = (PATCH_LEN, d)
    shapes["patch_proj_b"] = (d,)
    shapes["spatial_pe"] = (P * Q, d)
    for stack, n_layers in (("enc", config.n_enc_layers),
                            ("dec", config.n_dec_layers)):
        for i in range(n_layers):
            pre = f"{stack}{i}_"
            shapes[pre + "ln1_g"] = (d,)
            shapes[pre + "ln1_b"] = (d,)
            for name in ("q", "k", "v", "o"):
                shapes[pre + f"w{name}"] = (d, d)
                shapes[pre + f"b{name}"] = (d,)
            shapes[pre + "ln2_g"] = (d,)
            shapes[pre + "ln2_b"] = (d,)
            shapes[pre + "ff1_w"] = (d, f)
            shapes[pre + "ff1_b"] = (f,)
            shapes[pre + "ff2_w"] = (f, d)
            shapes[pre + "ff2_b"] = (d,)
        shapes[f"{stack}_lnf_g"] = (d,)
        shapes[f"{stack}_lnf_b"] = (d,)
    shapes["mask_token"] = (d,)
    shapes["recon_w"] = (d, PATCH_LEN)
    shapes["recon_b"] = (PATCH_LEN,)
    shapes["cls_w"] = (d, n_classes)
    shapes["cls_b"] = (n_classes,)
    return shapes


@dataclass
class ModelParams:
    config: ModelConfig
    P: int
    Q: int
    K: int
    n_classes: int
    seed: int
    arrays: dict = field(default_factory=dict)  # name -> np.ndarray, fixed order

    def tensors(self, trainable=None):
        """Wrap arrays as graph leaves; trainable limits which get gradients."""
        return {name: tc.Tensor(arr, requires_grad=(
            trainable is None or name in trainable))
            for name, arr in self.arrays.items()}

    @property
    def n_params(self):
        return sum(a.size for a in self.arrays.values())

    def copy(self):
        return ModelParams(config=self.config, P=self.P, Q=self.Q, K=self.K,
                           n_classes=self.n_classes, seed=self.seed,
                           arrays={k: v.copy() for k, v in self.arrays.items()})


def _truncated_normal(rng, shape, std=0.02):
    """Normal(0, std^2) redrawn until inside +-2 std."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def init_params(config, P, Q, K, n_classes, seed):
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in param_shapes(config, P, Q, n_classes).items():
        if name.endswith("_g"):
            arrays[name] = np.ones(shape)
        elif name == "mask_token" or (len(shape) == 2 and name != "spatial_pe"):
            arrays[name] = _truncated_normal(rng, shape)
        else:
            # biases, LN offsets, and the spatial table start at zero
            arrays[name] = np.zeros(shape)
    return ModelParams(config=config, P=P, Q=Q, K=K, n_classes=n_classes,
                       seed=int(seed), arrays=arrays)


# -- forward passes -------------------------------------------------------


def _attention(x, t, pre, config):
    q = tc.add(tc.matmul(x, t[pre + "wq"]), t[pre + "bq"])
    k = tc.add(tc.matmul(x, t[pre + "wk"]), t[pre + "bk"])
    v = tc.add(tc.matmul(x, t[pre + "wv"]), t[pre + "bv"])
    heads = tc.attention(q, k, v, config.n_heads)
    return tc.add(tc.matmul(heads, t[pre + "wo"]), t[pre + "bo"])


def _feed_forward(x, t, pre):
    h = tc.gelu(tc.add(tc.matmul(x, t[pre + "ff1_w"]), t[pre + "ff1_b"]))
    return tc.add(tc.matmul(h, t[pre + "ff2_w"]), t[pre + "ff2_b"])


def _run_stack(x, t, stack, n_layers, config):
    for i in range(n_layers):
        pre = f"{stack}{i}_"
        normed = tc.layer_norm(x, t[pre + "ln1_g"], t[pre + "ln1_b"])
        x = tc.add(x, _attention(normed, t, pre, config))
        normed = tc.layer_norm(x, t[pre + "ln2_g"], t[pre + "ln2_b"])
        x = tc.add(x, _feed_forward(normed, t, pre))
    return tc.layer_norm(x, t[f"{stack}_lnf_g"], t[f"{stack}_lnf_b"])


def encode(visible_embeddings, tensors, config):
    """Encoder stack over visible tokens (..., n, d); row order preserved."""
    if visible_embeddings.data.shape[-2] < 1:
        raise ValueError("need at least one visible token")
    return _run_stack(visible_embeddings, tensors, "enc",
                      config.n_enc_layers, config)


def _positional_rows(params, P, Q, lambdas, tensors):
    """(P*Q*K, d) rows in token order: each of the spatial table's
    [:P, :Q] cells plus the wavelength encoding of every spectral group."""
    if P > params.P or Q > params.Q:
        raise ValueError(
            f"grid {P}x{Q} exceeds spatial table {params.P}x{params.Q}")
    d = params.config.d_model
    cells = (np.arange(params.P)[:, None] < P) & (np.arange(params.Q) < Q)
    spatial = tc.gather_rows(tensors["spatial_pe"], cells.ravel())
    spectral = tc.Tensor(tokenizer.wavelength_table(lambdas, d))
    rows = tc.add(tc.reshape(spatial, (P * Q, 1, d)), spectral)
    return tc.reshape(rows, (P * Q * lambdas.size, d))


def decode(latents, plan, tensors, params, lambdas):
    """Reconstruct the cropped cube from visible-token latents.

    `lambdas` are the grid's (K,) group wavelengths. Returns a Tensor of
    shape (9P, 9Q, 8K) covering every token, visible and masked alike.
    """
    n_visible = plan.visible_ids.size
    if latents.data.shape[0] != n_visible:
        raise ValueError(
            f"latents rows {latents.data.shape[0]} != visible {n_visible}")
    x = tc.place_rows(latents, ~plan.token_masked.ravel(),
                      tensors["mask_token"])
    x = tc.add(x, _positional_rows(params, plan.P, plan.Q, lambdas, tensors))
    config = params.config
    x = _run_stack(x, tensors, "dec", config.n_dec_layers, config)
    flat = tc.add(tc.matmul(x, tensors["recon_w"]), tensors["recon_b"])
    return _unpatchify(flat, plan.P, plan.Q, plan.K)


def _unpatchify(flat, P, Q, K):
    """(P*Q*K, 648) token rows -> (9P, 9Q, 8K) cube; inverse of partition."""
    blocks = tc.reshape(flat, (P, Q, K, PATCH_H, PATCH_W, PATCH_B))
    cube = tc.transpose(blocks, (0, 3, 1, 4, 2, 5))  # (p, i, q, j, k, b)
    return tc.reshape(cube, (PATCH_H * P, PATCH_W * Q, PATCH_B * K))


def embed_for(params, grid, tensors):
    """Token embeddings: patch projection + spatial row + wavelength encoding."""
    proj = tc.add(tc.matmul(tc.Tensor(grid.patches), tensors["patch_proj_w"]),
                  tensors["patch_proj_b"])
    return tc.add(proj, _positional_rows(params, grid.P, grid.Q, grid.lambdas,
                                         tensors))


def masked_forward(params, grid, plan, tensors):
    """Embed every token, encode the plan's visible ones, decode the cube."""
    emb = embed_for(params, grid, tensors)
    visible, _ = masking.apply_mask(emb, plan)
    latents = encode(visible, tensors, params.config)
    return decode(latents, plan, tensors, params, grid.lambdas)


def features(windows, params, tensors=None):
    """Mean-pooled latents of an unmasked encoding pass.

    `windows` is one cube, giving (d,), or a stack of windows
    (B, h, w, bands), giving (B, d); each window is encoded on its own.
    Without tensors, parameters are frozen and no graph is recorded.
    """
    grid = tokenizer.partition(windows)
    if tensors is None:
        tensors = params.tensors(trainable=set())
    latents = encode(embed_for(params, grid, tensors), tensors,
                     params.config)
    return tc.tmean(latents, axis=-2)


def head(pooled, tensors):
    """Class logits (..., n_classes) of pooled features (..., d)."""
    *lead, d = pooled.shape
    rows = tc.reshape(pooled, (*lead, 1, d))  # one vector-matrix product each
    logits = tc.add(tc.matmul(rows, tensors["cls_w"]), tensors["cls_b"])
    return tc.reshape(logits, (*lead, logits.shape[-1]))


def classify(windows, params, tensors=None):
    """Logits (n_classes,) of one cube, or (B, n_classes) of a stack."""
    if tensors is None:
        tensors = params.tensors(trainable=set())
    return head(features(windows, params, tensors), tensors)


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(params, path):
    """Write a checkpoint atomically: a failed or interrupted save leaves
    the previous file at `path` intact."""
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": params.config.to_dict(),
        "P": params.P, "Q": params.Q, "K": params.K,
        "n_classes": params.n_classes, "seed": params.seed,
        "param_order": list(params.arrays.keys()),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with atomic_write(path) as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in params.arrays.values():
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint; a malformed one raises a ValueError naming it."""
    with open(path, "rb") as fh:
        try:
            return _read_checkpoint(fh)
        except KeyError as exc:
            raise ValueError(f"{path}: checkpoint header lacks {exc}") from None
        except (ValueError, TypeError, struct.error) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_checkpoint(fh):
    (hlen,) = struct.unpack("<I", fh.read(4))
    blob = fh.read(hlen)
    if len(blob) != hlen:
        raise ValueError(f"header of {hlen} bytes runs past the end of file")
    header = json.loads(blob.decode())
    if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file")
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header['version']}")
    config = ModelConfig(**header["config"])
    shapes = param_shapes(config, header["P"], header["Q"],
                          header["n_classes"])
    if list(shapes.keys()) != header["param_order"]:
        raise ValueError("checkpoint parameter order mismatch")
    arrays = {}
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        buf = fh.read(count * 8)
        if len(buf) != count * 8:
            raise ValueError(f"checkpoint truncated in {name}")
        arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    if fh.read(1):
        raise ValueError("trailing bytes in checkpoint")
    return ModelParams(config=config, P=header["P"], Q=header["Q"],
                       K=header["K"], n_classes=header["n_classes"],
                       seed=header["seed"], arrays=arrays)
