"""Optimization, augmentation, training loops, metrics and row CSVs.

Pre-training reconstructs masked synthetic (or real, desk-sized) cubes
with the composite MSE + spectral-angle objective under AdamW. Each
cube is z-scored and tokenized once; augmentation flips its token grid.
Fine-tuning trains the classifier head (linear probe) or the whole
model on 9 x 9 full-band windows centered on labeled pixels. Both run
the model on float32 leaves cast from the float64 parameter store
(model.COMPUTE_DTYPE), and AdamW updates the store in float64.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import hsidata, loss, masking, model, tokenizer
from . import tensorcore as tc


BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    m: np.ndarray | None = None  # first moments, flat like the store
    v: np.ndarray | None = None  # second moments
    t: int = 0


def adamw_step(store, grads, state, lr, weight_decay):
    """One AdamW update, in place on the model.ParamStore `store`, of the
    names in the name -> array mapping `grads`: decoupled weight decay
    (a scale by 1 - lr * wd), then the bias-corrected Adam step. The
    gradients are copied into the runs of the store they cover, and each
    run is updated in tc._BLOCK-sized blocks (multi-tensor Adam), by the
    operations, in the order, of a per-array update."""
    if state.m is None:
        state.m, state.v = np.zeros_like(store.flat), np.zeros_like(store.flat)
    state.t += 1
    g, runs = np.empty_like(store.flat), []  # runs: maximal (lo, hi) ranges
    for name, (lo, hi) in store.spans.items():
        if name in grads:
            g[lo:hi] = grads[name].ravel()
            if runs and runs[-1][1] == lo:  # extends the last run
                lo = runs.pop()[0]
            runs.append((lo, hi))
    # one dot product per run; it is also inf when a finite square overflows
    if not all(math.isfinite(g[lo:hi] @ g[lo:hi]) for lo, hi in runs):
        for name, grad in grads.items():
            if not np.all(np.isfinite(grad)):
                raise FloatingPointError(f"non-finite gradient for '{name}' "
                                         f"at optimizer step {state.t}")
    decay = 1.0 - lr * weight_decay
    c1, c2 = 1.0 - BETA1 ** state.t, 1.0 - BETA2 ** state.t
    tmp = np.empty((2, min(tc._BLOCK, g.size)))
    for lo, hi in runs:
        for i in range(lo, hi, tc._BLOCK):
            j = min(i + tc._BLOCK, hi)
            p, gb, m, v = (x[i:j] for x in (store.flat, g, state.m, state.v))
            a, b = tmp[:, :j - i]
            p *= decay  # exact when weight_decay is 0
            m *= BETA1
            m += np.multiply(gb, 1.0 - BETA1, out=a)
            v *= BETA2
            np.multiply(gb, 1.0 - BETA2, out=a)
            v += np.multiply(a, gb, out=a)
            a = np.multiply(np.divide(m, c1, out=a), lr, out=a)  # lr m_hat
            b = np.sqrt(np.divide(v, c2, out=b), out=b)  # sqrt(v_hat)
            b += ADAM_EPS
            p -= np.divide(a, b, out=a)


def augment(grid, seed):
    """grid.flipped(rows, cols), cols drawn first, each True with p = 1/2."""
    rng = np.random.default_rng(seed)
    cols, rows = rng.random() < 0.5, rng.random() < 0.5
    return grid.flipped(rows, cols)


@dataclass
class ClassReport:
    confusion: np.ndarray  # rows = true class, cols = predicted
    oa: float              # percent
    aa: float              # percent
    kappa: float
    degenerate: bool = False
    pred: np.ndarray | None = None  # the scored class ids, in input order

    def to_json(self):
        return json.dumps({
            "confusion": self.confusion.tolist(), "oa": self.oa, "aa": self.aa,
            "kappa": self.kappa, "degenerate": self.degenerate})


def evaluate(pred, true):
    """Confusion matrix, overall/average accuracy, and Cohen's kappa."""
    pred = np.asarray(pred, dtype=np.int64)
    true = np.asarray(true, dtype=np.int64)
    if pred.shape != true.shape or pred.size == 0:
        raise ValueError("prediction and truth must be equal-length, non-empty")
    n_classes = int(max(pred.max(), true.max()))
    if min(pred.min(), true.min()) < 1:
        raise ValueError("class ids must be >= 1 (0 marks unlabeled pixels)")
    confusion = np.bincount((true - 1) * n_classes + pred - 1,
                            minlength=n_classes ** 2).reshape(n_classes, -1)
    total = confusion.sum()
    p_o = np.trace(confusion) / total
    support = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        recalls = np.diag(confusion) / support
    aa = 100.0 * float(np.mean(recalls[support > 0]))
    p_e = float(confusion.sum(axis=1) @ confusion.sum(axis=0)) / total ** 2
    degenerate = bool(p_e >= 1.0 - 1e-15)
    if degenerate:
        kappa = 1.0 if p_o == 1.0 else 0.0
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)
    return ClassReport(confusion=confusion, oa=100.0 * float(p_o), aa=aa,
                       kappa=float(kappa), degenerate=degenerate, pred=pred)


@dataclass
class TrainSettings:
    steps: int = 300
    alpha: float = 0.5
    rho_s: float = 0.5
    rho_b: float = 0.5
    lr: float = 1e-3
    weight_decay: float = 0.05
    augment: bool = True
    fixed_plan: bool = False
    ft_epochs: int = 20
    ft_batch: int = 2

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.ft_epochs < 0:
            raise ValueError(f"ft_epochs must be >= 0, got {self.ft_epochs}")
        if self.ft_batch < 1:
            raise ValueError(f"ft_batch must be >= 1, got {self.ft_batch}")
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        for name in ("alpha", "rho_s", "rho_b"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"{name} must lie in [0, 1], got {getattr(self, name)}")


def masked_loss(params, grid, plan, alpha, tensors):
    """(total, LossReport, reconstructed token rows) of the pre-training
    objective: MSE on the plan's masked tokens and spectral angle, weighted
    by `alpha`. A plan that masks nothing is a ValueError naming the ratios."""
    if not plan.masked_ids.size:
        raise ValueError(f"mask ratios rho_s={plan.rho_s}, rho_b={plan.rho_b}"
                         " leave no masked tokens; the masked MSE is undefined")
    recon = model.masked_forward(params, grid, plan, tensors)
    total, report = loss.rec_loss(grid, recon, plan.token_masked.ravel(),
                                  alpha)
    return total, report, recon


def _descend(objective, tensors, store, state, lr, weight_decay):
    """Backpropagate `objective`, then one AdamW step on every gradient."""
    objective.backward()
    adamw_step(store, {name: t.grad for name, t in tensors.items()
                        if t.grad is not None}, state, lr, weight_decay)


# without numpy's warnings, a diverging run prints one line: a check's error
@np.errstate(all="ignore")
def pretrain(cubes, config, settings, run_seed,
             log_path=None, checkpoint_path=None):
    """Masked-reconstruction pre-training loop.

    Each cube is z-scored and tokenized once, before the loop. Round-robin
    over the cubes' grids; per step: augment (flip the grid), mask, encode
    visible tokens, decode, composite loss, backward, AdamW. Returns
    (ModelParams, list of per-step log dicts).
    """
    if not cubes:
        raise ValueError("need at least one cube")
    grids = [tokenizer.partition(hsidata.normalize(c)[0]) for c in cubes]
    for c in cubes:
        tokenizer.report_cropping(c.values.shape)
    dims = {(g.P, g.Q, g.K) for g in grids}
    if len(dims) != 1:
        raise ValueError(f"all cubes must share one token grid, got {dims}")
    P, Q, K = dims.pop()
    n_classes = max(2, max(int(c.labels.max()) if c.labels is not None else 0
                           for c in cubes))
    params = model.init_params(config, P, Q, K, n_classes,
                               seed=masking.derive_seed(run_seed, "init"))
    state = OptimState()
    log_entries = []
    # one line per step, flushed, so a run that stops early leaves its
    # log up to the last completed step
    with open(log_path or os.devnull, "w") as log:
        for step in range(settings.steps):
            cube_id = step % len(cubes)
            epoch = step // len(cubes)
            grid = grids[cube_id]
            if settings.augment:
                grid = augment(grid, masking.derive_seed(run_seed, "aug", step))
            if settings.fixed_plan:
                plan_seed = masking.derive_seed(run_seed, "plan", 0, 0, 0)
            else:
                plan_seed = masking.derive_seed(run_seed, "plan", epoch, step,
                                                cube_id)
            plan = masking.sample_mask_plan(P, Q, K, settings.rho_s,
                                            settings.rho_b, plan_seed)
            tensors = params.tensors(dtype=model.COMPUTE_DTYPE)
            try:
                total, report, _ = masked_loss(params, grid, plan,
                                               settings.alpha, tensors)
            except FloatingPointError as exc:
                raise FloatingPointError(f"non-finite loss at step {step}; "
                                         f"plan: {plan.to_json()}") from exc
            _descend(total, tensors, params.arrays, state, settings.lr,
                     settings.weight_decay)
            entry = {"step": step, "l_mse": report.l_mse, "l_sam": report.l_sam,
                     "l_rec": report.l_rec, "seed": plan.seed}
            log_entries.append(entry)
            log.write(json.dumps(entry) + "\n")
            log.flush()
    if checkpoint_path:
        model.save_checkpoint(params, checkpoint_path)
    return params, log_entries


def extract_windows(cube):
    """Every 9 x 9 full-band window of the cube, edges replicate-padded.

    Returns a read-only view (H, W, 9, 9, bands) whose [i, j] is the
    window centred on pixel (i, j): the cube is padded once, and only
    the windows picked out of the view are copied.
    """
    size = (tokenizer.PATCH_H, tokenizer.PATCH_W)
    padded = np.pad(cube.values, [(n // 2, n // 2) for n in size] + [(0, 0)],
                    mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, size, axis=(0, 1))
    return view.transpose(0, 1, 3, 4, 2)


def read_rows(path):
    """Yield `path:line`, (i, j, label) and the fields after the label of
    each CSV row `i,j,label,...`, skipping blank lines and a header line
    starting `i,`. A non-integer i, j or label, or a pixel listed twice,
    raises a ValueError naming `path:line`."""
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("i,"):
                continue
            at = f"{path}:{lineno}"
            fields = line.split(",")
            try:
                i, j, label = (int(f) for f in fields[:3])
            except ValueError:
                raise ValueError(f"{at}: bad i,j,label in {line!r}") from None
            if (i, j) in seen:
                raise ValueError(f"{at}: pixel ({i}, {j}) is listed twice")
            seen.add((i, j))
            yield at, (i, j, label), fields[3:]


def read_split(path):
    """CSV rows `i,j,label,split` with split in {train, test}."""
    train, test = [], []
    for at, row, rest in read_rows(path):
        if rest not in (["train"], ["test"]):
            raise ValueError(f"{at}: bad split row, expected train or test")
        (train if rest == ["train"] else test).append(row)
    return train, test


def write_rows(path, header, rows):
    """CSV lines of `header` and each row, atomically; read_rows reads them."""
    with hsidata.atomic_write(path) as fh:
        for fields in (header, *rows):
            fh.write((",".join(map(str, fields)) + "\n").encode())


def make_split(cube, train_fraction, seed):
    """Stratified random train/test split over labeled pixels."""
    rng = np.random.default_rng(seed)
    rows = []
    for c in np.unique(cube.labels):
        if c == 0:
            continue
        coords = np.argwhere(cube.labels == c)
        rng.shuffle(coords)
        n_train = max(1, int(round(train_fraction * len(coords))))
        n_train = min(n_train, len(coords) - 1)
        for idx, (i, j) in enumerate(coords):
            split = "train" if idx < n_train else "test"
            rows.append((int(i), int(j), int(c), split))
    return rows


PROBE_PARAMS = ("cls_w", "cls_b")
# Token rows per no-graph encoder chunk: enough windows to amortise the
# per-op dispatch, few enough to keep a chunk's activations small.
CHUNK_TOKENS = 192


@np.errstate(all="ignore")  # as pretrain
def finetune(params, cube, split, mode, settings, run_seed=0):
    """Train the classifier on labeled windows; returns (ClassReport, params).

    mode 'probe' updates only the classifier head; 'full' updates every
    parameter. Each epoch walks the shuffled train rows in batches of
    settings.ft_batch windows (the last may be shorter): one mean
    cross-entropy and one AdamW step per batch, at the learning rate
    settings.lr * sqrt(ft_batch) (Adam's square-root rule for scaling
    the rate with the batch). A non-finite loss or gradient raises a
    FloatingPointError naming the epoch and the batch. `split` is
    (train_rows, test_rows) of (i, j, label). The probe encodes each
    train window once (none when there is no epoch), with the encoder
    frozen, and trains the head on those cached features; both modes
    classify the test windows in chunks of about CHUNK_TOKENS token
    rows, without recording a graph.
    """
    if mode not in ("probe", "full"):
        raise ValueError(f"mode must be 'probe' or 'full', got {mode}")
    if cube.labels is None:
        raise ValueError("fine-tuning needs a labeled cube")
    train_rows, test_rows = split
    if not train_rows or not test_rows:
        raise ValueError("split must contain train and test pixels")
    h, w = cube.labels.shape
    for i, j, label in train_rows + test_rows:
        if not (0 <= i < h and 0 <= j < w):
            raise ValueError(
                f"split row ({i}, {j}, {label}) lies outside the {h}x{w} cube")
        if label < 1:
            raise ValueError(f"split row ({i}, {j}, {label}): labels must be "
                             ">= 1 (0 marks unlabeled pixels)")
        if label != cube.labels[i, j]:
            raise ValueError(f"split row ({i}, {j}, {label}): the cube labels "
                             f"this pixel {cube.labels[i, j]}")
    n_classes = max(label for _, _, label in train_rows + test_rows)
    params = (params.copy() if params.n_classes == n_classes else
              params.with_classes(n_classes,
                                  masking.derive_seed(run_seed, "head")))
    normed, _ = hsidata.normalize(cube)
    view = extract_windows(normed)
    tokenizer.report_cropping(view.shape)

    def windows(rows):
        ii, jj = np.array([(i, j) for i, j, _ in rows]).T
        return hsidata.HsiCube(values=view[ii, jj],
                               wavelengths=normed.wavelengths)

    def encoded(forward, rows):
        """forward (features or classify) of every row, no graph, chunked."""
        frozen = params.tensors(trainable=set(), dtype=model.COMPUTE_DTYPE)
        per = max(1, CHUNK_TOKENS * tokenizer.PATCH_B // cube.bands)
        return np.concatenate([forward(windows(rows[lo:lo + per]), params,
                                       frozen).data
                               for lo in range(0, len(rows), per)])

    if mode == "probe" and settings.ft_epochs:
        cached = encoded(model.features, train_rows)
    state = OptimState()
    order = np.arange(len(train_rows))
    labels = np.array([label - 1 for _, _, label in train_rows])
    rng = np.random.default_rng(masking.derive_seed(run_seed, "order"))
    lr = settings.lr * math.sqrt(settings.ft_batch)
    for epoch in range(settings.ft_epochs):
        rng.shuffle(order)
        for lo in range(0, len(order), settings.ft_batch):
            idx = order[lo:lo + settings.ft_batch]
            if mode == "probe":
                tensors = {name: tc.Tensor(params.arrays[name].astype(
                    model.COMPUTE_DTYPE), requires_grad=True)
                           for name in PROBE_PARAMS}
                logits = model.head(tc.Tensor(cached[idx]), tensors)
            else:
                tensors = params.tensors(dtype=model.COMPUTE_DTYPE)
                logits = model.classify(windows([train_rows[i] for i in idx]),
                                        params, tensors)
            try:
                objective = tc.cross_entropy(logits, labels[idx])
                tc.check_finite(objective, "in the cross-entropy")
                _descend(objective, tensors, params.arrays, state, lr,
                         settings.weight_decay)
            except FloatingPointError as exc:
                at = f"epoch {epoch}, batch {lo // settings.ft_batch}"
                raise FloatingPointError(f"{at}: {exc}") from exc
    logits = encoded(model.classify, test_rows)
    return (evaluate(np.argmax(logits, axis=1) + 1,
                     [label for _, _, label in test_rows]), params)
