"""Accuracy sweep of two source trees over a list of seeds.

    python3 tools/oa_sweep.py --trees PARENT CHANGE --workload grid768 \
        --seeds 201-210

For each seed, and for each tree in turn, it runs the benchmark's
commands as bench/run.py does (bench.run.WORKLOADS, setup_command,
write_split and pipeline): gen-synth, pretrain, the linear probe, the
full fine-tune and reconstruct, each as `python -m hsimae.cli` with
PYTHONPATH=<tree>/src. A tree is any directory holding src/hsimae, such
as a `git archive` export of a commit. Nothing under bench/ is changed.

It prints one line per seed and tree (probe and full OA, the mean
l_rec over the last tenth of the steps, and reconstruct's mean SAM-map
angle), then each tree's means and minima, the second tree's last-tenth
l_rec relative to the first's (mean and worst seed), and last one JSON
object with every value. A command that fails stops the sweep, which
exits 1 naming it; --work keeps the commands' outputs for a look.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402  (bench/checks.py)
import run as bench  # noqa: E402  (bench/run.py)

PHASES = ("pretrain", "probe", "full", "reconstruct")


def seed_list(text):
    """'201-210' or '3,5,8' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_round(tree, wl, seed, work):
    """The workload's commands on one seed with the tree's source; returns
    {probe_oa, full_oa, last_tenth_l_rec, sam_mean}."""
    work.mkdir(parents=True, exist_ok=True)
    f = bench.Files(work)
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))

    def cli(argv, phase):
        with open(f.stdout(phase), "w") as out:
            code = subprocess.call([sys.executable, "-m", "hsimae.cli"] + argv,
                                   cwd=tree, env=env, stdout=out)
        if code != 0:
            sys.exit(f"{tree}: {phase} (seed {seed}) exited {code}")

    cli(bench.setup_command(wl, seed, f), "setup")
    if "train_per_class" in wl:
        bench.write_split(wl, seed, f)
    for phase, argv in bench.pipeline(wl, seed, f):
        if phase in PHASES:
            cli(argv, phase)
    with open(f.log) as fh:
        l_rec = [json.loads(line)["l_rec"] for line in fh]
    with open(f.probe_report) as fh:
        probe = json.load(fh)["oa"]
    with open(f.full_report) as fh:
        full = json.load(fh)["oa"]
    tenth = l_rec[-max(1, len(l_rec) // 10):]
    return {"probe_oa": probe, "full_oa": full,
            "last_tenth_l_rec": float(np.mean(tenth)),
            "sam_mean": float(checks.read_hsc(f.sam)[0].mean())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trees", nargs=2, required=True, metavar="DIR",
                        help="two source trees, each holding src/hsimae")
    parser.add_argument("--workload", choices=sorted(bench.WORKLOADS),
                        required=True)
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="e.g. 201-210 or 3,5,8")
    parser.add_argument("--work", help="directory for the rounds' files "
                                       "(default: a temporary one)")
    args = parser.parse_args(argv)
    wl = bench.WORKLOADS[args.workload]
    results = {tree: {} for tree in args.trees}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp).resolve()
        for seed in args.seeds:
            for n, tree in enumerate(args.trees):
                r = run_round(tree, wl, seed, work / f"tree{n}-seed{seed}")
                results[tree][seed] = r
                print(f"seed {seed} tree {n}: probe {r['probe_oa']:6.2f}  "
                      f"full {r['full_oa']:6.2f}  "
                      f"l_rec {r['last_tenth_l_rec']:.5f}  "
                      f"sam {r['sam_mean']:.5f}", flush=True)
    summary = {}
    for n, tree in enumerate(args.trees):
        runs = results[tree].values()
        summary[tree] = {
            f"{key}_{stat}": float(fn([r[key] for r in runs]))
            for key in ("probe_oa", "full_oa", "last_tenth_l_rec", "sam_mean")
            for stat, fn in (("mean", np.mean), ("min", np.min),
                             ("max", np.max))}
        s = summary[tree]
        print(f"tree {n} ({tree}): probe mean {s['probe_oa_mean']:.2f} "
              f"min {s['probe_oa_min']:.2f}; full mean {s['full_oa_mean']:.2f}"
              f" min {s['full_oa_min']:.2f}; l_rec mean "
              f"{s['last_tenth_l_rec_mean']:.5f}; sam mean "
              f"{s['sam_mean_mean']:.5f}")
    first, second = (results[tree] for tree in args.trees)
    change = [second[s]["last_tenth_l_rec"] / first[s]["last_tenth_l_rec"] - 1
              for s in args.seeds]
    summary["l_rec_change"] = {"mean": float(np.mean(change)),
                               "worst": float(np.max(change))}
    print(f"last-tenth l_rec, tree 1 against tree 0: mean "
          f"{np.mean(change):+.2%}, worst seed {np.max(change):+.2%}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "summary": summary,
                      "runs": {tree: {str(k): v for k, v in r.items()}
                               for tree, r in results.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
