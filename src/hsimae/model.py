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
from dataclasses import asdict, dataclass, replace

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


class ParamStore(dict):
    """Named views, in a fixed order, of one contiguous float64 vector
    `flat`; spans[name] is the (lo, hi) range of a name's view in it.
    Assigning to a name copies into its view: no entry leaves the store."""

    def __init__(self, shapes, flat=None):
        ends = np.cumsum([0] + [int(np.prod(s)) for s in shapes.values()])
        self.flat = np.zeros(ends[-1]) if flat is None else flat
        self.spans = dict(zip(shapes, zip(ends.tolist(), ends[1:].tolist())))
        super().__init__((name, self.flat[lo:hi].reshape(shapes[name]))
                         for name, (lo, hi) in self.spans.items())

    def __setitem__(self, name, value):
        self[name][...] = value  # numpy's broadcasting rule applies


@dataclass
class ModelParams:
    config: ModelConfig
    P: int
    Q: int
    K: int
    n_classes: int
    seed: int
    flat: np.ndarray | None = None  # every value, in param_shapes order

    def __post_init__(self):
        shapes = param_shapes(self.config, self.P, self.Q, self.n_classes)
        self.arrays = ParamStore(shapes, self.flat)
        self.flat = self.arrays.flat

    def tensors(self, trainable=None):
        """Wrap arrays as graph leaves; trainable limits which get gradients."""
        return {name: tc.Tensor(arr, requires_grad=(
            trainable is None or name in trainable))
            for name, arr in self.arrays.items()}

    def copy(self):
        return replace(self, flat=self.flat.copy())


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
    params = ModelParams(config=config, P=P, Q=Q, K=K, n_classes=n_classes,
                         seed=int(seed))
    for name, arr in params.arrays.items():
        if name.endswith("_g"):
            arr[...] = 1.0
        elif name == "mask_token" or (arr.ndim == 2 and name != "spatial_pe"):
            arr[...] = _truncated_normal(rng, arr.shape)
        # biases, LN offsets, and the spatial table start at zero
    return params


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
    latents = encode(masking.apply_mask(emb, plan), tensors, params.config)
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
        fh.write(params.flat.astype("<f8", copy=False))


def load_checkpoint(path):
    """Read a checkpoint; a malformed one, or one holding a NaN or an
    infinity, raises a ValueError naming it."""
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
    params = ModelParams(config=ModelConfig(**header["config"]), P=header["P"],
                         Q=header["Q"], K=header["K"],
                         n_classes=header["n_classes"], seed=header["seed"])
    if list(params.arrays) != header["param_order"]:
        raise ValueError("checkpoint parameter order mismatch")
    got = fh.readinto(params.flat)
    for name, (_, hi) in params.arrays.spans.items():
        if hi * 8 > got:
            raise ValueError(f"checkpoint truncated in {name}")
    if fh.read(1):
        raise ValueError("trailing bytes in checkpoint")
    if not np.little_endian:  # the payload is little-endian
        params.flat.byteswap(inplace=True)
    for name, arr in params.arrays.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in {name}")
    return params
