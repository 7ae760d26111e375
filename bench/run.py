"""Benchmark of the hsimae command-line pipeline.

    python3 bench/run.py --workload grid27 --seed 1 --seconds 55 --trace 0

Runs, from the root of a source checkout and with no install, the whole
user workflow on one workload, as rounds of separate commands:

    gen-synth -> pretrain -> finetune --mode probe -> finetune --mode full
    -> finetune --epochs 0 (evaluates the tuned checkpoint) -> reconstruct

With --trace 0 every command is its own `python -m hsimae.cli` process,
run one at a time, and the end-to-end metrics are printed. With
--trace 1 the same commands run in this process through hsimae.cli.main,
alternating an untraced round with a round under bench/tracer.py, and
the per-layer metrics are printed. Either way every round's outputs are
checked (bench/checks.py), and the last line of standard output is
{"correct", "attempted", "failed", "metrics"}. The line before it
records the run's environment and the samples behind each median.
BLAS thread variables are left as the caller set them; the count in
effect is recorded.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
DEADLINE_S = 170      # a command still running this long after the start is killed
SETUP_REPEATS = 5     # setup_s is the median of this many set-ups
ALPHA, RHO_S, RHO_B = 0.5, 0.5, 0.5
PROBE_LR = 0.01       # a linear probe learns its head at a higher rate

# Why each workload is here is in bench/README.md and BENCHMARK.json.
WORKLOADS = {
    # 27 tokens: dispatch-bound steps, many cheap fine-tune windows.
    "grid27": dict(h=27, w=27, b=24, classes=3, train_fraction=0.1,
                   steps=60, probe_epochs=8, full_epochs=2, full_floor=50.0,
                   must_decrease=True),
    # 768 tokens: decoder- and BLAS-bound steps, a split written here.
    "grid768": dict(h=72, w=72, b=96, classes=3, train_per_class=8,
                    test_per_class=40, steps=8, probe_epochs=4, full_epochs=4,
                    full_floor=40.0, must_decrease=False),
}

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "pretrain_step_ms": ("ms", "lower"),
    "probe_s": ("s", "lower"),
    "finetune_full_s": ("s", "lower"),
    "classify_windows_per_s": ("windows/s", "higher"),
    "reconstruct_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_PRETRAIN_OPS = ("tensorcore.matmul", "tensorcore.softmax",
                 "tensorcore.layer_norm", "tensorcore.gelu",
                 "tensorcore.gather_rows", "model.embed_for", "model.encode",
                 "model.decode", "loss.rec_loss", "tensorcore.backward",
                 "tokenizer.partition", "masking.sample_mask_plan",
                 "masking.apply_mask", "masking.voxel_mask",
                 "training.augment", "hsidata.normalize")

# name -> (unit, better). A name is phase.layer.function.statistic;
# bench/README.md maps each to the end-to-end metric it should move.
PER_LAYER = {
    "pretrain.training.adamw_step.ms_per_step": ("ms", "lower"),
    "pretrain.training.adamw_step.arrays_per_step": ("count", "lower"),
    "pretrain.tensorcore.ops_per_step": ("count", "lower"),
    **{f"pretrain.{f}.ms_per_step": ("ms", "lower") for f in _PRETRAIN_OPS},
    "pretrain.training.pretrain.self_ms_per_step": ("ms", "lower"),
    "pretrain.model.save_checkpoint.ms": ("ms", "lower"),
    "probe.model.classify.calls": ("count", "lower"),
    "probe.model.classify.unique_ratio": ("ratio", "higher"),
    "probe.model.classify.ms_per_call": ("ms", "lower"),
    "probe.tensorcore.backward.ms_per_window": ("ms", "lower"),
    "full.model.classify.ms_per_call": ("ms", "lower"),
    "full.tensorcore.backward.ms_per_window": ("ms", "lower"),
    "full.training.adamw_step.ms_per_window": ("ms", "lower"),
    "classify.model.classify.ms_per_call": ("ms", "lower"),
    "classify.model.classify.graph_windows": ("count", "lower"),
    "reconstruct.model.encode.ms": ("ms", "lower"),
    "reconstruct.model.decode.ms": ("ms", "lower"),
    "reconstruct.loss.rec_loss.ms": ("ms", "lower"),
    "reconstruct.cli.cmd_reconstruct.self_ms": ("ms", "lower"),
    "reconstruct.hsidata.save_cube.ms": ("ms", "lower"),
    # pretrain loads no checkpoint, so it has no load_checkpoint metric
    **{f"{phase}.model.load_checkpoint.ms": ("ms", "lower")
       for phase in ("probe", "full", "classify", "reconstruct")},
    **{f"{phase}.hsidata.load_cube.ms": ("ms", "lower")
       for phase in ("pretrain", "probe", "full", "classify", "reconstruct")},
    "setup.hsidata.gen_synthetic.ms": ("ms", "lower"),
    "setup.hsidata.save_cube.ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# -- inputs and commands -------------------------------------------------


class Files:
    """Paths of one round's inputs and outputs."""

    def __init__(self, d):
        self.dir = d
        for name, fname in (("cube", "scene.hsc"), ("split", "split.csv"),
                            ("pre", "pretrained.ckpt"), ("log", "loss.jsonl"),
                            ("probe", "probe.ckpt"), ("full", "full.ckpt"),
                            ("probe_report", "probe.json"),
                            ("full_report", "full.json"),
                            ("eval_report", "eval.json"),
                            ("recon", "recon.hsc"), ("sam", "sam.hsc")):
            setattr(self, name, str(d / fname))

    def stdout(self, phase):
        return str(self.dir / f"{phase}.out")


def setup_command(wl, seed, f):
    argv = ["gen-synth", "--h", str(wl["h"]), "--w", str(wl["w"]),
            "--b", str(wl["b"]), "--classes", str(wl["classes"]),
            "--seed", str(seed), "--out", f.cube]
    if "train_fraction" in wl:
        argv += ["--split-out", f.split,
                 "--train-fraction", str(wl["train_fraction"])]
    return argv


def write_split(wl, seed, f):
    """Stratified split drawn from --seed: fixed train and test rows per class."""
    _, _, labels = checks.read_hsc(f.cube)
    rng = np.random.default_rng([seed, 768])
    n_train, n_test = wl["train_per_class"], wl["test_per_class"]
    with open(f.split, "w") as fh:
        fh.write("i,j,label,split\n")
        for c in range(1, wl["classes"] + 1):
            coords = np.argwhere(labels == c)
            pick = rng.choice(len(coords), size=n_train + n_test, replace=False)
            for n, k in enumerate(pick):
                i, j = coords[k]
                fh.write(f"{i},{j},{c},{'train' if n < n_train else 'test'}\n")


def pipeline(wl, seed, f):
    """(phase, argv) of one round, in order."""
    s = str(seed)
    tune = ["finetune", "--data", f.cube, "--split", f.split, "--seed", s]
    return [
        ("pretrain", ["pretrain", "--data", f.cube, "--out", f.pre,
                      "--log", f.log, "--steps", str(wl["steps"]),
                      "--alpha", str(ALPHA), "--seed", s]),
        ("probe", tune + ["--checkpoint", f.pre, "--mode", "probe",
                          "--epochs", str(wl["probe_epochs"]),
                          "--lr", str(PROBE_LR),
                          "--out", f.probe, "--report", f.probe_report]),
        ("full", tune + ["--checkpoint", f.pre, "--mode", "full",
                         "--epochs", str(wl["full_epochs"]),
                         "--out", f.full, "--report", f.full_report]),
        ("classify", tune + ["--checkpoint", f.full, "--mode", "full",
                             "--epochs", "0", "--report", f.eval_report]),
        ("reconstruct", ["reconstruct", "--checkpoint", f.pre,
                         "--data", f.cube, "--seed", s,
                         "--rho-s", str(RHO_S), "--rho-b", str(RHO_B),
                         "--alpha", str(ALPHA), "--out", f.recon,
                         "--sam-map", f.sam]),
    ]


# -- running commands ----------------------------------------------------


class Subprocesses:
    """Each command as its own `python -m hsimae.cli` process."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def run(self, argv, stdout_path):
        """Returns (exit code, wall seconds, peak RSS in MB)."""
        with open(stdout_path, "w") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "hsimae.cli"] + argv,
                                    cwd=ROOT, env=self.env, stdout=out)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


class InProcess:
    """Each command through hsimae.cli.main in this process."""

    def __init__(self):
        from hsimae import cli
        self.cli = cli

    def run(self, argv, stdout_path):
        with open(stdout_path, "w") as out, contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, not the end
                traceback.print_exc()
                code = -1
            wall = time.perf_counter() - t0
        return code, wall, None


class Round:
    """Timings, exit codes and span marks of one setup plus pipeline."""

    def __init__(self):
        self.wall = {}
        self.rss = []
        self.attempted = 0
        self.failed = 0
        self.marks = {}


def run_setup(wl, seed, f, runner, rnd, tracer=None):
    lo = tracer.mark() if tracer else 0
    t0 = time.perf_counter()
    code, _, rss = runner.run(setup_command(wl, seed, f), f.stdout("setup"))
    if code == 0 and "train_per_class" in wl:
        write_split(wl, seed, f)
    rnd.wall.setdefault("setup", []).append(time.perf_counter() - t0)
    rnd.rss.append(rss)
    rnd.attempted += 1
    rnd.failed += code != 0
    if tracer:
        rnd.marks["setup"] = (lo, tracer.mark())
    return code == 0


def run_pipeline(wl, seed, f, runner, rnd, tracer=None):
    """Runs every command; after a failure the rest count as failed too."""
    ok = True
    for phase, argv in pipeline(wl, seed, f):
        rnd.attempted += 1
        if not ok:
            rnd.failed += 1
            continue
        lo = tracer.mark() if tracer else 0
        code, wall, rss = runner.run(argv, f.stdout(phase))
        if tracer:
            rnd.marks[phase] = (lo, tracer.mark())
        rnd.wall[phase] = wall
        rnd.rss.append(rss)
        if code != 0:
            print(f"{phase} exited {code}: see {f.stdout(phase)}",
                  file=sys.stderr)
            rnd.failed += 1
            ok = False
    return ok


# -- checks --------------------------------------------------------------


def check_round(wl, f):
    """Failure messages of every check on one completed round."""
    from hsimae import model

    def report(path):
        with open(path) as fh:
            return json.load(fh)

    def stdout_report(phase):
        with open(f.stdout(phase)) as fh:
            return json.loads(next(line for line in fh if line.startswith("{")))

    def split():
        return checks.read_split(f.split)

    tests = [
        lambda: checks.check_loss_log(f.log, wl["steps"], ALPHA,
                                      wl["must_decrease"]),
        lambda: checks.check_probe_checkpoint(
            model.load_checkpoint(f.pre).arrays,
            model.load_checkpoint(f.probe).arrays),
        lambda: checks.check_report(report(f.probe_report), split()),
        lambda: checks.check_report(report(f.full_report), split()),
        lambda: checks.check_report(report(f.eval_report), split()),
        lambda: checks.check_accuracy(report(f.probe_report),
                                      100.0 / wl["classes"], "probe (chance)"),
        lambda: checks.check_accuracy(report(f.full_report), wl["full_floor"],
                                      "full fine-tune"),
        lambda: checks.check_same_confusion(report(f.full_report),
                                            report(f.eval_report)),
        lambda: checks.check_reconstruction(stdout_report("reconstruct"),
                                            f.cube, f.recon, f.sam,
                                            RHO_S, RHO_B),
    ]
    failures = []
    for test in tests:
        try:
            test()
        except checks.CheckFailed as exc:
            failures.append(str(exc))
        except (OSError, ValueError, KeyError, IndexError,
                StopIteration) as exc:  # a missing or malformed output
            failures.append(f"{type(exc).__name__}: {exc}")
    return failures


# -- metrics -------------------------------------------------------------


def split_counts(f):
    rows = checks.read_split(f.split)
    return (sum(r[3] == "train" for r in rows),
            sum(r[3] == "test" for r in rows))


def end_to_end(wl, setup, rounds, n_test):
    """name -> samples: one per round, one per set-up for setup_s."""
    ok = [r for r in rounds if r.failed == 0]
    return {
        "setup_s": setup.wall.get("setup", []),
        "pretrain_step_ms": [1e3 * r.wall["pretrain"] / wl["steps"] for r in ok],
        "probe_s": [r.wall["probe"] for r in ok],
        "finetune_full_s": [r.wall["full"] for r in ok],
        "classify_windows_per_s": [n_test / r.wall["classify"] for r in ok],
        "reconstruct_s": [r.wall["reconstruct"] for r in ok],
        "peak_rss_mb": [max(x for r in [setup] + rounds for x in r.rss)],
    }


def per_layer(wl, tracer, rnd, n_train):
    """name -> value (None when the traced function no longer exists)."""
    summary = {phase: tracer.summarize(*span)
               for phase, span in rnd.marks.items()}
    per = {"pretrain": wl["steps"],
           "probe": wl["probe_epochs"] * n_train,
           "full": wl["full_epochs"] * n_train}
    out = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        parts = name.split(".")
        phase, stat = parts[0], parts[-1]
        func = ".".join(parts[1:-1])
        if stat == "ops_per_step":
            calls = sum(v["calls"] for k, v in summary[phase].items()
                        if k.startswith("tensorcore.")
                        and k != "tensorcore.backward")
            out[name] = calls / per[phase]
            continue
        if func not in tracer.installed:
            out[name] = None
            continue
        s = summary[phase].get(func, {"calls": 0, "incl_ms": 0.0,
                                      "self_ms": 0.0, "attrs": []})
        attrs = s["attrs"]
        if stat in ("arrays_per_step", "unique_ratio", "graph_windows") \
                and len(attrs) != s["calls"]:
            out[name] = None  # some calls could not be counted
            continue
        value = {
            "ms": lambda: s["incl_ms"],
            "self_ms": lambda: s["self_ms"],
            "ms_per_step": lambda: s["incl_ms"] / per[phase],
            "self_ms_per_step": lambda: s["self_ms"] / per[phase],
            "ms_per_window": lambda: s["incl_ms"] / per[phase],
            "ms_per_call": lambda: s["incl_ms"] / s["calls"],
            "calls": lambda: s["calls"],
            "arrays_per_step": lambda: sum(a["arrays"] for a in attrs)
            / per[phase],
            "unique_ratio": lambda: len({a["window"] for a in attrs})
            / s["calls"],
            "graph_windows": lambda: sum(a["graph"] for a in attrs),
        }[stat]
        try:
            out[name] = value()
        except (ZeroDivisionError, KeyError, TypeError):
            out[name] = None
    return out


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


# -- environment ---------------------------------------------------------


def blas_info():
    """The BLAS library numpy loaded here, and its thread count in effect."""
    import ctypes
    info = {"library": None, "threads": None, "config": None,
            "env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                if k in os.environ}}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return info
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get is not None:
                get.restype = ctypes.c_int
                info.update(library=os.path.basename(path), threads=get())
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode().strip()
                return info
    return info


def source_ids():
    """Git commit (None outside a git work tree) and a hash of src/."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return sha, digest.hexdigest()


# -- main ----------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hsimae" / "cli.py").is_file():
        print(f"error: no hsimae sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind so that the running command is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    deadline = start + DEADLINE_S
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    f = Files(work)

    rounds, failures, traced, untraced = [], [], [], []
    setup = Round()
    if args.trace:
        runner = InProcess()
        tracer = Tracer()
    else:
        runner = Subprocesses(deadline)
        for _ in range(SETUP_REPEATS):
            run_setup(wl, args.seed, f, runner, setup)
    n_train = n_test = None
    measured = 0.0
    while True:
        t0 = time.monotonic()
        rnd = Round()
        if args.trace:
            # an untraced round, then the same round under the tracer
            run_setup(wl, args.seed, f, runner, rnd)
            ok = run_pipeline(wl, args.seed, f, runner, rnd)
            untraced.append(time.monotonic() - t0)
            rounds.append(rnd)
            rnd = Round()
            t0 = time.monotonic()
            tracer.install()
            try:
                run_setup(wl, args.seed, f, runner, rnd, tracer)
                ok = run_pipeline(wl, args.seed, f, runner, rnd, tracer) and ok
            finally:
                tracer.uninstall()
            traced.append(time.monotonic() - t0)
        else:
            ok = run_pipeline(wl, args.seed, f, runner, rnd)
        rounds.append(rnd)
        if ok:
            n_train, n_test = split_counts(f)
            failures.extend(check_round(wl, f))
        # stop before a round that would end past --seconds
        now = time.monotonic()
        measured += now - t0
        next_end = now + measured / (len(traced) or len(rounds))
        if next_end > start + args.seconds or next_end > deadline:
            break

    attempted = setup.attempted + sum(r.attempted for r in rounds)
    failed = setup.failed + sum(r.failed for r in rounds)
    if args.trace:
        layer_runs = [per_layer(wl, tracer, r, n_train) for r in rounds[1::2]
                      if r.failed == 0]
        samples = {name: [run[name] for run in layer_runs]
                   for name in PER_LAYER if not name.startswith("trace.")}
        samples["trace.overhead_ratio"] = [
            t / u for t, u in zip(traced, untraced)]
        tracer.save(work / "spans.npz")
        units = PER_LAYER
    else:
        samples = end_to_end(wl, setup, rounds, n_test or 0)
        units = END_TO_END

    metrics = {name: {"value": median(samples.get(name, [])),
                      "unit": units[name][0]} for name in units}
    sha, src_sha = source_ids()
    blas = blas_info()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "run_s": time.monotonic() - start,
        "rounds": len(rounds), "attempted": attempted, "failed": failed,
        "train_rows": n_train, "test_rows": n_test,
        "numpy": np.__version__, "python": platform.python_version(),
        "blas": blas, "nproc": os.cpu_count(),
        "git_sha": sha, "src_sha256": src_sha,
        "samples": {k: {"n": len([v for v in vals if v is not None]),
                        "values": vals} for k, vals in samples.items()},
        "check_failures": failures,
    }
    if args.trace:
        record["traced_s"], record["untraced_s"] = traced, untraced
    with open(work / "result.json", "w") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
