"""Command-line entry point.

Subcommands: gen-synth, pretrain, finetune, eval, reconstruct, inspect.
pretrain and finetune options can also come from a JSON config file
(--config); explicit flags win.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
failure. main checks every output flag (type Output) before any work,
and a command's outputs replace their paths together once it succeeds.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import hsidata, loss, masking, model, tokenizer, training

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _keep_freed_memory():
    """Under glibc, arrays up to 32 MiB (a 768-token step's largest, the
    attention weights, is 9.4 MB in float32) come from the heap, and free
    keeps the heap top, so each step reuses resident pages instead of
    faulting them in. Either option alone turns off glibc's dynamic
    thresholds and faults more than neither."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            import ctypes
            mallopt = ctypes.CDLL(None).mallopt
            mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, its 64-bit maximum
            mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    except (AttributeError, OSError, ValueError):  # no glibc or no mallopt
        pass


SECTIONS = {"model": model.ModelConfig, "train": training.TrainSettings}


def _load_config(path):
    """The --config file as {section: {field: value}}, each key and value
    type checked against its dataclass; an int may stand for a float.
    NaN, Infinity and -Infinity, which json accepts, are rejected."""
    if not path:
        return {}

    def non_finite(word):
        raise ValueError(f"{path}: {word} is not a finite number")

    with open(path) as fh:
        try:
            config = json.load(fh, parse_constant=non_finite)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{path}: the top level is not a JSON object")
    for section, values in config.items():
        if section not in SECTIONS:
            raise ValueError(f"{path}: unknown section '{section}'")
        if not isinstance(values, dict):
            raise ValueError(f"{path}: section '{section}' is not an object")
        model.check_fields(SECTIONS[section], values, f"{path}: {section}")
    return config


def _settings(section, args):
    """The section's dataclass: its defaults, overlaid by the section of
    the --config file, then by every flag whose dest is a field name."""
    cls = SECTIONS[section]
    values = _load_config(args.config).get(section, {})
    for f in dataclasses.fields(cls):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    return cls(**values)


class Output(str):
    """The type of each flag naming a file the command writes."""


def _check_outputs(args):
    """Raise naming an unwritable output, or two outputs naming one file."""
    flags = {}  # real path -> the flag that named it
    for dest, path in vars(args).items():
        if not isinstance(path, Output):
            continue
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        if not os.access(os.path.dirname(path) or ".", os.W_OK | os.X_OK):
            raise OSError(f"cannot write {path}: its directory is missing or "
                          "not writable")
        flag, real = "--" + dest.replace("_", "-"), os.path.realpath(path)
        if flags.setdefault(real, flag) != flag:  # named by an earlier flag
            raise ValueError(f"{flags[real]} and {flag} both name {path}")


def cmd_gen_synth(args):
    if not 0 < args.train_fraction < 1:  # NaN fails this too
        raise ValueError(f"--train-fraction {args.train_fraction} is not "
                         "strictly between 0 and 1")
    cube = hsidata.gen_synthetic(args.height, args.width, args.bands,
                                 args.classes, args.seed)
    hsidata.save_cube(cube, args.out)
    if args.split_out:
        rows = training.make_split(cube, args.train_fraction,
                                   masking.derive_seed(args.seed, "split"))
        training.write_rows(args.split_out, ("i", "j", "label", "split"), rows)
    print(f"wrote {args.out}: {cube.height}x{cube.width}x{cube.bands}, "
          f"{args.classes} classes")
    return EXIT_OK


def cmd_pretrain(args):
    cubes = [hsidata.load_cube(p) for p in args.data]
    params, log = training.pretrain(
        cubes, _settings("model", args), _settings("train", args),
        run_seed=args.seed, log_path=args.log, checkpoint_path=args.out)
    last = log[-1]
    print(f"pretrained {len(log)} steps; final l_rec={last['l_rec']:.6f} "
          f"(l_mse={last['l_mse']:.6f}, l_sam={last['l_sam']:.6f})")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_finetune(args):
    params = model.load_checkpoint(args.checkpoint)
    cube = hsidata.load_cube(args.data)
    split = training.read_split(args.split)
    report, tuned = training.finetune(params, cube, split, args.mode,
                                      _settings("train", args),
                                      run_seed=args.seed)
    if args.out:
        model.save_checkpoint(tuned, args.out)
    print(report.to_json())
    if args.report:
        with hsidata.atomic_write(args.report) as fh:
            fh.write((report.to_json() + "\n").encode())
    if args.pred_out:
        rows = [(*row[:2], label) for row, label in zip(split[1], report.pred)]
        training.write_rows(args.pred_out, ("i", "j", "label"), rows)
    return EXIT_OK


def cmd_eval(args):
    """Score every prediction against the truth. Truth rows whose fourth
    field is train are not scored; every other truth pixel needs a
    prediction, and every prediction a scored truth row."""
    pred = {(i, j): label
            for _, (i, j, label), _ in training.read_rows(args.pred)}
    true = {(i, j): label
            for _, (i, j, label), rest in training.read_rows(args.true)
            if rest[:1] != ["train"]}
    for lacking, have, want in (("truth pixels have no prediction", true, pred),
                                ("predicted pixels have no scored truth row",
                                 pred, true)):
        missing = [k for k in have if k not in want]
        if missing:
            raise ValueError(f"{len(missing)} {lacking}, the first at "
                             f"{missing[0]}")
    keys = sorted(true)
    report = training.evaluate([pred[k] for k in keys], [true[k] for k in keys])
    print(report.to_json())
    return EXIT_OK


def cmd_reconstruct(args):
    params = model.load_checkpoint(args.checkpoint)
    cube = hsidata.load_cube(args.data)
    normed, (mean, std) = hsidata.normalize(cube)
    grid = tokenizer.partition(normed)
    tokenizer.report_cropping(normed.values.shape)
    plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K,
                                    args.rho_s, args.rho_b, args.seed)
    _, report, recon = training.masked_loss(
        params, grid, plan, args.alpha,
        params.tensors(trainable=set(), dtype=model.COMPUTE_DTYPE))
    print(report.to_json())
    if args.out:
        values = tokenizer.to_cube(recon.data.reshape(grid.block_shape))
        bands = values.shape[-1]
        hsidata.save_cube(hsidata.HsiCube(
            values=values * std[:bands] + mean[:bands],
            wavelengths=cube.wavelengths[:bands]), args.out)
        print(f"wrote {args.out}")
    if args.sam_map:
        angles = loss.sam_map(report.cos)
        hsidata.save_cube(hsidata.HsiCube(values=angles,
                                          wavelengths=np.array([1.0])),
                          args.sam_map)
        print(f"wrote {args.sam_map}")
    return EXIT_OK


def _group(name):
    """The parameter group of a checkpoint entry: embed, enc, dec or heads."""
    if name.startswith(("enc", "dec")):
        return name[:3]
    if name == "mask_token":
        return "dec"
    return "heads" if name.startswith(("recon_", "cls_")) else "embed"


def cmd_inspect(args):
    if args.checkpoint:
        params = model.load_checkpoint(args.checkpoint)
        counts = dict.fromkeys(("embed", "enc", "dec", "heads"), 0)
        for name, arr in params.arrays.items():
            counts[_group(name)] += arr.size
        counts["total"] = params.flat.size
        print(json.dumps({**params.header(), "parameters": counts}))
        return EXIT_OK
    cube = hsidata.load_cube(args.data)
    info = {
        "height": cube.height, "width": cube.width, "bands": cube.bands,
        "wavelength_min_um": cube.wavelengths[0],
        "wavelength_max_um": cube.wavelengths[-1],
        "labeled": cube.labels is not None,
    }
    if cube.labels is not None:
        info["n_classes"] = int(cube.labels.max())
        info["labeled_pixels"] = int((cube.labels > 0).sum())
    print(json.dumps(info))
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="hsimae",
                     description="Masked-autoencoder pipeline for "
                                 "hyperspectral cubes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0)

    def add_config(p):
        p.add_argument("--config", help="JSON config file; flags override it")

    p = sub.add_parser("gen-synth", help="generate a labeled synthetic cube")
    add_seed(p)
    p.add_argument("--h", dest="height", type=int, required=True)
    p.add_argument("--w", dest="width", type=int, required=True)
    p.add_argument("--b", dest="bands", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", type=Output, required=True)
    p.add_argument("--split-out", type=Output)
    p.add_argument("--train-fraction", type=float, default=0.3)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("pretrain", help="masked-reconstruction pre-training")
    add_seed(p)
    add_config(p)
    p.add_argument("--data", nargs="+", required=True, help="HSC cube files")
    p.add_argument("--out", type=Output, required=True, help="checkpoint path")
    p.add_argument("--log", type=Output, help="JSON-lines loss log path")
    p.add_argument("--steps", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho-s", type=float)
    p.add_argument("--rho-b", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--d-model", type=int)
    p.add_argument("--no-augment", dest="augment", action="store_false",
                   default=None)
    p.add_argument("--fixed-plan", action="store_true", default=None)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train the classifier on labeled pixels")
    add_seed(p)
    add_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", required=True, help="CSV i,j,label,split")
    p.add_argument("--mode", choices=["probe", "full"], default="full")
    p.add_argument("--out", type=Output, help="tuned checkpoint path")
    p.add_argument("--report", type=Output, help="ClassReport JSON path")
    p.add_argument("--pred-out", type=Output,
                   help="CSV i,j,label of the predicted class of each test pixel")
    p.add_argument("--epochs", dest="ft_epochs", type=int)
    p.add_argument("--batch", dest="ft_batch", type=int,
                   help="train windows per AdamW step")
    p.add_argument("--lr", type=float)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="score a prediction CSV against truth")
    p.add_argument("--pred", required=True, help="CSV i,j,label")
    p.add_argument("--true", required=True, help="CSV i,j,label")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reconstruct",
                       help="mask, reconstruct, and report losses for one cube")
    add_seed(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    train = training.TrainSettings
    p.add_argument("--rho-s", type=float, default=train.rho_s)
    p.add_argument("--rho-b", type=float, default=train.rho_b)
    p.add_argument("--alpha", type=float, default=train.alpha)
    p.add_argument("--out", type=Output,
                   help="reconstructed cube (HSC, de-normalized)")
    p.add_argument("--sam-map", type=Output,
                   help="per-pixel angle map (single-band HSC)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("inspect",
                       help="print the header facts of a cube or a checkpoint")
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--data", help="HSC cube file")
    what.add_argument("--checkpoint",
                      help="checkpoint file: header and parameter counts")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_outputs(args)
        with hsidata.staged_outputs():
            return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
