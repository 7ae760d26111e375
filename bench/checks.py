"""Correctness checks on the outputs of one hsimae pipeline round.

Every check compares an output with a separate computation or with a
property the method must have, never with a stored copy of an earlier
output. A check raises CheckFailed with a message naming what is wrong.

HSC files are read with this module's own reader, written from the
format described in the docstring of hsimae.hsidata:

    magic  "HSC1"                      4 bytes
    H, W, B                            3 x u32
    label-flag                         u8 (1 = labels present)
    wavelengths (micrometers)          B x f64
    values                             H*W*B x f64, i outer, j middle, b inner
    labels (if flag = 1)               H*W x u16, 0 = unlabeled
"""

import json
import math
import struct

import numpy as np

PATCH_VOXELS = 9 * 9 * 8   # voxels of one token
PIXELS_PER_CELL = 9 * 9    # pixels of one spatial grid cell
ZERO_NORM_EPS = 1e-12      # spectra at or below this norm have no angle
STD_FLOOR = 1e-8           # per-band std floor of the z-score


class CheckFailed(AssertionError):
    """An output of the pipeline is wrong."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_hsc(path):
    """Return (values (H, W, B), wavelengths (B,), labels (H, W) or None)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    _require(raw[:4] == b"HSC1", f"{path}: bad magic {raw[:4]!r}")
    h, w, b, flag = struct.unpack_from("<IIIB", raw, 4)
    off = 17
    wavelengths = np.frombuffer(raw, "<f8", b, off)
    off += 8 * b
    values = np.frombuffer(raw, "<f8", h * w * b, off).reshape(h, w, b)
    off += 8 * h * w * b
    labels = None
    if flag:
        labels = np.frombuffer(raw, "<u2", h * w, off).reshape(h, w)
        off += 2 * h * w
    _require(off == len(raw), f"{path}: {len(raw) - off} unexpected bytes")
    return values, wavelengths, labels


def read_split(path):
    """Rows (i, j, label, split) of a split CSV."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("i,"):
                i, j, label, split = line.split(",")
                rows.append((int(i), int(j), int(label), split))
    return rows


def check_loss_log(path, steps, alpha, must_decrease):
    """Finite lines, one per step, with l_rec = alpha*l_mse + (1-alpha)*l_sam.

    With must_decrease, the mean l_rec over the last tenth of the steps
    must lie below the mean over the first tenth.
    """
    with open(path) as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    _require(len(entries) == steps,
             f"loss log has {len(entries)} lines, expected {steps}")
    for n, e in enumerate(entries):
        _require(e["step"] == n, f"loss log line {n} has step {e['step']}")
        terms = (e["l_mse"], e["l_sam"], e["l_rec"])
        _require(all(math.isfinite(v) for v in terms),
                 f"loss log step {n} is not finite: {terms}")
        want = alpha * e["l_mse"] + (1.0 - alpha) * e["l_sam"]
        _require(abs(e["l_rec"] - want) <= 1e-12 * max(1.0, abs(want)),
                 f"step {n}: l_rec {e['l_rec']!r} != "
                 f"alpha*l_mse + (1-alpha)*l_sam = {want!r}")
    if must_decrease:
        tenth = max(1, steps // 10)
        first = np.mean([e["l_rec"] for e in entries[:tenth]])
        last = np.mean([e["l_rec"] for e in entries[-tenth:]])
        _require(last < first,
                 f"mean l_rec over the last {tenth} steps ({last:.6f}) is not "
                 f"below the first {tenth} ({first:.6f})")


def check_probe_checkpoint(pretrained, probed, head=("cls_w", "cls_b")):
    """Probe fine-tuning changed the classifier head and nothing else.

    Both arguments map parameter names to arrays.
    """
    _require(list(pretrained) == list(probed),
             "probe checkpoint has other parameters than the pretrained one")
    for name in pretrained:
        same = np.array_equal(pretrained[name], probed[name])
        if name in head:
            _require(not same, f"probe left head parameter {name} unchanged")
        else:
            _require(same, f"probe changed frozen parameter {name}")


def check_report(report, split_rows):
    """Confusion matrix, OA, AA and kappa agree with each other and the split.

    `report` is the parsed ClassReport JSON; `split_rows` are the test
    rows (i, j, label, split) it was scored on.
    """
    conf = np.asarray(report["confusion"], dtype=np.int64)
    labels = np.array([r[2] for r in split_rows if r[3] == "test"])
    n_classes = int(labels.max())
    _require(conf.shape == (n_classes, n_classes),
             f"confusion shape {conf.shape}, expected {n_classes} classes")
    _require(conf.min() >= 0, "negative confusion count")
    total = int(conf.sum())
    _require(total == labels.size,
             f"confusion sums to {total}, split has {labels.size} test rows")
    support = np.bincount(labels - 1, minlength=n_classes)
    _require(np.array_equal(conf.sum(axis=1), support),
             f"confusion row sums {conf.sum(axis=1).tolist()} != "
             f"test rows per class {support.tolist()}")
    p_o = np.trace(conf) / total
    recall = np.diag(conf)[support > 0] / support[support > 0]
    p_e = float(conf.sum(axis=1) @ conf.sum(axis=0)) / total ** 2
    kappa = (p_o - p_e) / (1.0 - p_e)
    for key, want in (("oa", 100.0 * p_o), ("aa", 100.0 * recall.mean()),
                      ("kappa", kappa)):
        _require(abs(report[key] - want) <= 1e-9 * max(1.0, abs(want)),
                 f"{key} {report[key]!r} does not match its confusion "
                 f"matrix ({want!r})")


def check_accuracy(report, floor, what):
    _require(report["oa"] > floor,
             f"{what} OA {report['oa']:.2f}% is not above {floor:.2f}%")


def check_same_confusion(a, b):
    _require(a["confusion"] == b["confusion"],
             f"evaluation confusion {b['confusion']} differs from the "
             f"fine-tune report's {a['confusion']}")


def masked_voxels(P, Q, K, rho_s, rho_b):
    """648 * (PQK - (PQ - n_s)(K - n_b)), n_s and n_b rounded half up."""
    n_s = math.floor(rho_s * P * Q + 0.5)
    n_b = math.floor(rho_b * K + 0.5)
    return PATCH_VOXELS * (P * Q * K - (P * Q - n_s) * (K - n_b))


def check_reconstruction(report, cube_path, out_path, sam_path, rho_s, rho_b):
    """Mask counts, and the SAM map against angles recomputed in numpy.

    The pipeline measures angles between the z-scored input and the
    reconstruction, and de-normalizes the reconstruction when it
    writes --out; so the input's per-band statistics take both back
    to the space the angles live in.
    """
    x, _, _ = read_hsc(cube_path)
    out, _, _ = read_hsc(out_path)
    sam, _, _ = read_hsc(sam_path)
    P, Q, K = x.shape[0] // 9, x.shape[1] // 9, x.shape[2] // 8
    h, w, b = 9 * P, 9 * Q, 8 * K
    _require(out.shape == (h, w, b),
             f"--out cube is {out.shape}, expected {(h, w, b)}")
    _require(sam.shape == (h, w, 1),
             f"--sam-map is {sam.shape}, expected {(h, w, 1)}")
    want = masked_voxels(P, Q, K, rho_s, rho_b)
    _require(report["n_masked"] == want,
             f"n_masked {report['n_masked']} != {want}")
    _require(report["n_pixels"] + report["n_excluded"] == PIXELS_PER_CELL * P * Q,
             f"n_pixels {report['n_pixels']} + n_excluded "
             f"{report['n_excluded']} != {PIXELS_PER_CELL * P * Q}")

    mean = x.mean(axis=(0, 1))[:b]
    std = np.maximum(x.std(axis=(0, 1)), STD_FLOOR)[:b]
    y = ((x[:h, :w, :b] - mean) / std).reshape(-1, b)
    y_hat = ((out - mean) / std).reshape(-1, b)
    ny = np.linalg.norm(y, axis=1)
    nyh = np.linalg.norm(y_hat, axis=1)
    valid = (ny > ZERO_NORM_EPS) & (nyh > ZERO_NORM_EPS)
    angles = np.zeros(h * w)
    cos = np.sum(y * y_hat, axis=1)[valid] / (ny * nyh)[valid]
    angles[valid] = np.arccos(np.clip(cos, -1.0, 1.0))
    err = np.abs(angles - sam.reshape(-1))
    worst = int(np.argmax(err))
    _require(err[worst] <= 1e-7,
             f"SAM map pixel {divmod(worst, w)} is {sam.reshape(-1)[worst]!r}, "
             f"recomputed angle is {angles[worst]!r}")
    _require(int(valid.sum()) == report["n_pixels"],
             f"{int(valid.sum())} pixels have an angle, report says "
             f"{report['n_pixels']}")
    mean_angle = float(angles[valid].mean())
    _require(abs(mean_angle - report["l_sam"]) <= 1e-7,
             f"mean SAM-map angle {mean_angle!r} != l_sam {report['l_sam']!r}")
