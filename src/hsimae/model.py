"""Transformer encoder/decoder over spatial-spectral tokens.

Pre-norm ViT-style blocks. The encoder sees only visible tokens; the
decoder places encoder latents back at the visible slots of the full
token grid and a learned mask token at the hidden ones, adds the
positional rows the encoder's embeddings were built from, built once
per forward (mask tokens are otherwise position-blind), and
maps every token back to a row of its 648 voxel values, the layout of
the grid's patches. Unlike MAE's decoder, grid tokens never attend to
each other: each layer's queries cross-attend to the latents, as in
CrossMAE (Fu et al., 2024), so its scores are T x n_visible, not T x T;
unlike CrossMAE's, visible slots query too, as the spectral angle
scores every pixel. A separate head
classifies a cube, or each window of a stack, from the mean-pooled
latents of an unmasked encoding pass.
"""

import json
import struct
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import masking, tokenizer
from . import tensorcore as tc
from .hsidata import atomic_write
from .tokenizer import PATCH_LEN

CHECKPOINT_MAGIC = "hsimae-checkpoint"
CHECKPOINT_VERSION = 2  # 2: the decoder cross-attends to the latents
# the dtype pretrain, finetune and reconstruct run the model in; the
# parameter store, the AdamW state and checkpoints stay float64
COMPUTE_DTYPE = np.float32
HEADER_INTS = ("P", "Q", "K", "n_classes", "seed")  # each >= 1 but the seed


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


def check_fields(cls, values, where):
    """Raise a ValueError naming `where` unless each key of the dict values
    is a field of the dataclass cls holding its type (an int may be a float)."""
    types = {f.name: f.type for f in fields(cls)}
    for key, value in values.items():
        if key not in types:
            raise ValueError(f"{where} has no key '{key}'")
        kind = types[key]
        if type(value) is not kind and (kind, type(value)) != (float, int):
            raise ValueError(f"{where}.{key} must be {kind.__name__}, "
                             f"got {json.dumps(value)}")


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

    def tensors(self, trainable=None, dtype=np.float64):
        """Wrap arrays as graph leaves; trainable limits which get gradients.
        float64 leaves are the store's views; leaves of another dtype are
        views of one cast copy of the store, made here."""
        arrays = self.arrays
        if dtype != self.flat.dtype:
            flat = self.flat.astype(dtype)
            arrays = {name: flat[lo:hi].reshape(arrays[name].shape)
                      for name, (lo, hi) in arrays.spans.items()}
        return {name: tc.Tensor(arr, requires_grad=(
            trainable is None or name in trainable))
            for name, arr in arrays.items()}

    def copy(self):
        return replace(self, flat=self.flat.copy())

    def with_classes(self, n_classes, seed):
        """A copy with a new head for n_classes: cls_w drawn from `seed` as
        init_params draws a matrix, cls_b zero; the two end the store."""
        head = _truncated_normal(np.random.default_rng(seed),
                                 (self.config.d_model, n_classes))
        body = self.flat[:self.arrays.spans["cls_w"][0]]
        return replace(self, n_classes=n_classes, flat=np.concatenate(
            (body, head.ravel(), np.zeros(n_classes))))

    def header(self):
        """A checkpoint header's facts but its magic and parameter order."""
        return {"version": CHECKPOINT_VERSION, "config": self.config.to_dict(),
                **{key: getattr(self, key) for key in HEADER_INTS}}


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


def _attention(x, kv, t, pre, config):
    q = tc.matmul(x, t[pre + "wq"], t[pre + "bq"])
    k = tc.matmul(kv, t[pre + "wk"], t[pre + "bk"])
    v = tc.matmul(kv, t[pre + "wv"], t[pre + "bv"])
    heads = tc.attention(q, k, v, config.n_heads)
    return tc.matmul(heads, t[pre + "wo"], t[pre + "bo"])


def _feed_forward(x, t, pre):
    h = tc.gelu(tc.matmul(x, t[pre + "ff1_w"], t[pre + "ff1_b"]))
    return tc.matmul(h, t[pre + "ff2_w"], t[pre + "ff2_b"])


def _run_stack(x, t, stack, n_layers, config, memory=None):
    for i in range(n_layers):
        pre = f"{stack}{i}_"
        normed = tc.layer_norm(x, t[pre + "ln1_g"], t[pre + "ln1_b"])
        x = tc.add(x, _attention(normed, memory or normed, t, pre, config))
        normed = tc.layer_norm(x, t[pre + "ln2_g"], t[pre + "ln2_b"])
        x = tc.add(x, _feed_forward(normed, t, pre))
    return tc.layer_norm(x, t[f"{stack}_lnf_g"], t[f"{stack}_lnf_b"])


def encode(visible_embeddings, tensors, config):
    """Encoder stack over visible tokens (..., n, d); row order preserved."""
    if visible_embeddings.data.shape[-2] < 1:
        raise ValueError("need at least one visible token")
    return _run_stack(visible_embeddings, tensors, "enc",
                      config.n_enc_layers, config)


def _positional_rows(params, grid, tensors):
    """(P*Q*K, d) rows in token order: each of the spatial table's
    [:P, :Q] cells plus the wavelength encoding of every spectral group."""
    P, Q = grid.P, grid.Q
    if P > params.P or Q > params.Q:
        raise ValueError(
            f"grid {P}x{Q} exceeds spatial table {params.P}x{params.Q}")
    d = params.config.d_model
    cells = (np.arange(params.P)[:, None] < P) & (np.arange(params.Q) < Q)
    spatial = tc.gather_rows(tensors["spatial_pe"], cells.ravel())
    spectral = tc.Tensor(tokenizer.wavelength_table(grid.lambdas, d).astype(
        spatial.data.dtype, copy=False))
    rows = tc.add(tc.reshape(spatial, (P * Q, 1, d)), spectral)
    return tc.reshape(rows, (P * Q * grid.lambdas.size, d))


def decode(latents, plan, tensors, rows, config):
    """Reconstruct every token, visible and masked alike, from the
    visible-token latents plus `rows`, the positional rows of embed_for.
    Returns a Tensor of (P*Q*K, 648) rows in the layout of the patches."""
    x = tc.place_rows(latents, ~plan.token_masked.ravel(),
                      tensors["mask_token"])
    x = _run_stack(tc.add(x, rows), tensors, "dec", config.n_dec_layers,
                   config, latents)
    return tc.matmul(x, tensors["recon_w"], tensors["recon_b"])


def embed_for(params, grid, tensors):
    """(token embeddings, the positional rows added to the patch projection),
    in the dtype of the leaves: the patches and wavelengths are cast to it."""
    w = tensors["patch_proj_w"]
    patches = tc.Tensor(grid.patches.astype(w.data.dtype, copy=False))
    proj = tc.matmul(patches, w, tensors["patch_proj_b"])
    rows = _positional_rows(params, grid, tensors)
    return tc.add(proj, rows), rows


def masked_forward(params, grid, plan, tensors):
    """Embed every token, encode the plan's visible ones, decode every
    token's (P*Q*K, 648) rows; one positional build serves both stacks."""
    emb, rows = embed_for(params, grid, tensors)
    latents = encode(masking.apply_mask(emb, plan), tensors, params.config)
    return decode(latents, plan, tensors, rows, params.config)


def features(windows, params, tensors):
    """Mean-pooled latents of an unmasked encoding pass over the caller's
    leaves `tensors`, in their dtype; frozen leaves record no graph.

    `windows` is one cube, giving (d,), or a stack of windows
    (B, h, w, bands), giving (B, d); each window is encoded on its own.
    """
    grid = tokenizer.partition(windows)
    latents = encode(embed_for(params, grid, tensors)[0], tensors,
                     params.config)
    return tc.tmean(latents, axis=-2)


def head(pooled, tensors):
    """Class logits (..., n_classes) of pooled features (..., d)."""
    *lead, d = pooled.shape
    rows = tc.reshape(pooled, (*lead, 1, d))  # one vector-matrix product each
    logits = tc.matmul(rows, tensors["cls_w"], tensors["cls_b"])
    return tc.reshape(logits, (*lead, logits.shape[-1]))


def classify(windows, params, tensors):
    """Logits (n_classes,) of a cube, (B, n_classes) of a stack; as features."""
    return head(features(windows, params, tensors), tensors)


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(params, path):
    """Write a checkpoint atomically: a failed or interrupted save leaves
    the previous file at `path` intact."""
    header = {"magic": CHECKPOINT_MAGIC, **params.header(),
              "param_order": list(params.arrays)}
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
    if not isinstance(header["config"], dict):
        raise ValueError("checkpoint config is not an object")
    check_fields(ModelConfig, header["config"], "checkpoint config")
    ints = {key: header[key] for key in HEADER_INTS}
    for key, value in ints.items():
        if type(value) is not int or key != "seed" and value < 1:
            raise ValueError(f"checkpoint {key} must be an int"
                             f"{'' if key == 'seed' else ' >= 1'}, "
                             f"got {json.dumps(value)}")
    params = ModelParams(config=ModelConfig(**header["config"]), **ints)
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
