"""Dual spatial-spectral masking.

Two-stage sampling: a fraction rho_s of spatial grid cells (p, q) is
hidden with every spectral group at those cells, then a fraction rho_b
of spectral-group indices k is hidden at every spatial location. A
token stays visible only if both its spatial cell and spectral group
survived, so 50/50 masking leaves 25% of tokens visible.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensorcore as tc
from .tokenizer import PATCH_H, PATCH_W, PATCH_B


class NothingVisibleError(ValueError):
    """The requested ratios leave no visible tokens."""


def round_half_up(x):
    return int(math.floor(x + 0.5))


def derive_seed(run_seed, *parts):
    """Stable 64-bit sub-seed from a run seed and context labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(run_seed)).encode())
    for p in parts:
        h.update(b"/")
        h.update(str(p).encode())
    return int.from_bytes(h.digest(), "little")


@dataclass
class MaskPlan:
    cell_masked: np.ndarray   # (P, Q) bool: spatial cells hidden at every group
    group_masked: np.ndarray  # (K,) bool: spectral groups hidden at every cell
    seed: int
    rho_s: float
    rho_b: float

    def __post_init__(self):
        self.P, self.Q = self.cell_masked.shape
        self.K = self.group_masked.size
        # token (p, q, k) is masked when its cell or its group is
        self.token_masked = self.cell_masked[:, :, None] | self.group_masked
        self.visible_ids = np.flatnonzero(~self.token_masked)
        self.masked_ids = np.flatnonzero(self.token_masked)

    def to_json(self):
        return json.dumps({
            "P": self.P, "Q": self.Q, "K": self.K,
            "masked_spatial": np.argwhere(self.cell_masked).tolist(),
            "masked_spectral": np.flatnonzero(self.group_masked).tolist(),
            "seed": self.seed, "rho_s": self.rho_s, "rho_b": self.rho_b,
        })

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        cells = np.zeros((d["P"], d["Q"]), dtype=bool)
        idx = np.array(d["masked_spatial"], dtype=np.int64).reshape(-1, 2)
        cells[idx[:, 0], idx[:, 1]] = True
        groups = np.zeros(d["K"], dtype=bool)
        groups[np.array(d["masked_spectral"], dtype=np.int64)] = True
        return cls(cell_masked=cells, group_masked=groups,
                   seed=d["seed"], rho_s=d["rho_s"], rho_b=d["rho_b"])


def sample_mask_plan(P, Q, K, rho_s, rho_b, seed):
    """Uniform without-replacement sampling of masked cells and groups."""
    if P * Q < 1 or K < 1:
        raise ValueError("grid must contain at least one token")
    if not (0.0 <= rho_s <= 1.0 and 0.0 <= rho_b <= 1.0):
        raise ValueError("mask ratios must lie in [0, 1]")
    n_s = round_half_up(rho_s * P * Q)
    n_b = round_half_up(rho_b * K)
    rng = np.random.default_rng(seed)
    cells = np.zeros(P * Q, dtype=bool)
    cells[rng.choice(P * Q, size=n_s, replace=False)] = True
    groups = np.zeros(K, dtype=bool)
    groups[rng.choice(K, size=n_b, replace=False)] = True
    plan = MaskPlan(cell_masked=cells.reshape(P, Q), group_masked=groups,
                    seed=int(seed), rho_s=float(rho_s), rho_b=float(rho_b))
    if not plan.visible_ids.size:
        raise NothingVisibleError(
            f"mask ratios ({rho_s}, {rho_b}) leave no visible tokens")
    return plan


def apply_mask(embeddings, plan):
    """The visible-token rows of (P*Q*K, d) embeddings, in token order."""
    return tc.gather_rows(embeddings, ~plan.token_masked.ravel())


def voxel_mask(plan, H, W, B):
    """Boolean (H, W, B) array: True on voxels of masked tokens.

    Cropped voxels (past the floor multiples) are always False.
    """
    P, Q, K = plan.P, plan.Q, plan.K
    if H < PATCH_H * P or W < PATCH_W * Q or B < PATCH_B * K:
        raise ValueError("cube extents smaller than the plan's grid")
    blocks = np.broadcast_to(plan.token_masked[:, None, :, None, :, None],
                             (P, PATCH_H, Q, PATCH_W, K, PATCH_B))
    m = np.zeros((H, W, B), dtype=bool)
    m[:PATCH_H * P, :PATCH_W * Q, :PATCH_B * K] = blocks.reshape(
        PATCH_H * P, PATCH_W * Q, PATCH_B * K)
    return m
