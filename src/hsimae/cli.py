"""Command-line entry point.

Subcommands: gen-synth, pretrain, finetune, eval, reconstruct, inspect.
pretrain and finetune options can also come from a JSON config file
(--config); explicit flags win.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
failure.
"""

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import hsidata, loss, masking, model, tokenizer, training
from . import tensorcore as tc

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


SECTIONS = {"model": model.ModelConfig, "train": training.TrainSettings}


def _load_config(path):
    """The --config file as {section: {field: value}}, each key and value
    type checked against its dataclass; an int may stand for a float."""
    if not path:
        return {}
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: the top level is not a JSON object")
    for section, values in config.items():
        if section not in SECTIONS:
            raise ValueError(f"{path}: unknown section '{section}'")
        if not isinstance(values, dict):
            raise ValueError(f"{path}: section '{section}' is not an object")
        types = {f.name: f.type for f in dataclasses.fields(SECTIONS[section])}
        for key, value in values.items():
            if key not in types:
                raise ValueError(f"{path}: {section} has no key '{key}'")
            kind = types[key]
            if type(value) is not kind and (kind, type(value)) != (float, int):
                raise ValueError(f"{path}: {section}.{key} must be "
                                 f"{kind.__name__}, got {json.dumps(value)}")
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


def cmd_gen_synth(args):
    cube = hsidata.gen_synthetic(args.height, args.width, args.bands,
                                 args.classes, args.seed)
    hsidata.save_cube(cube, args.out)
    if args.split_out:
        rows = training.make_split(cube, args.train_fraction,
                                   masking.derive_seed(args.seed, "split"))
        training.write_split(args.split_out, rows)
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
        with open(args.report, "w") as fh:
            fh.write(report.to_json() + "\n")
    if args.pred_out:
        with open(args.pred_out, "w") as fh:
            fh.write("i,j,label\n")
            for (i, j, _), label in zip(split[1], report.pred):
                fh.write(f"{i},{j},{label}\n")
    return EXIT_OK


def _read_labels(path):
    return {(i, j): label for _, (i, j, label), _ in training.read_rows(path)}


def cmd_eval(args):
    pred = _read_labels(args.pred)
    true = _read_labels(args.true)
    keys = sorted(set(pred) & set(true))
    if not keys:
        raise ValueError("prediction and truth share no pixels")
    report = training.evaluate([pred[k] for k in keys], [true[k] for k in keys])
    print(report.to_json())
    return EXIT_OK


def cmd_reconstruct(args):
    params = model.load_checkpoint(args.checkpoint)
    cube = hsidata.load_cube(args.data)
    normed, stats = hsidata.normalize(cube)
    grid = tokenizer.partition(normed)
    tokenizer.report_cropping(normed.values.shape)
    plan = masking.sample_mask_plan(grid.P, grid.Q, grid.K,
                                    args.rho_s, args.rho_b, args.seed)
    if not plan.masked_ids.size:
        raise ValueError(
            "mask ratios leave nothing masked, so the masked MSE is "
            "undefined; pass nonzero --rho-s or --rho-b")
    recon = model.masked_forward(params, grid, plan,
                                 params.tensors(trainable=set()))
    mask = masking.voxel_mask(plan, *grid.cropped_values.shape)
    _, report = loss.rec_loss(grid.cropped_values, recon, mask,
                              alpha=args.alpha)
    print(report.to_json())
    if args.out:
        bands = grid.cropped_values.shape[-1]
        band_stats = hsidata.NormStats(mean=stats.mean[:bands],
                                       std=stats.std[:bands])
        out_cube = hsidata.denormalize(
            hsidata.HsiCube(values=recon.data,
                            wavelengths=cube.wavelengths[:bands]),
            band_stats)
        hsidata.save_cube(out_cube, args.out)
        print(f"wrote {args.out}")
    if args.sam_map:
        angles = loss.sam_map(grid.cropped_values, recon.data)[:, :, None]
        hsidata.save_cube(hsidata.HsiCube(values=angles,
                                          wavelengths=np.array([1.0])),
                          args.sam_map)
        print(f"wrote {args.sam_map}")
    return EXIT_OK


def cmd_inspect(args):
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
    p.add_argument("--out", required=True)
    p.add_argument("--split-out")
    p.add_argument("--train-fraction", type=float, default=0.3)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("pretrain", help="masked-reconstruction pre-training")
    add_seed(p)
    add_config(p)
    p.add_argument("--data", nargs="+", required=True, help="HSC cube files")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="JSON-lines loss log path")
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
    p.add_argument("--out", help="tuned checkpoint path")
    p.add_argument("--report", help="ClassReport JSON path")
    p.add_argument("--pred-out",
                   help="CSV i,j,label of the predicted class of each test pixel")
    p.add_argument("--epochs", dest="ft_epochs", type=int)
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
    p.add_argument("--out", help="reconstructed cube (HSC, de-normalized)")
    p.add_argument("--sam-map", help="per-pixel angle map (single-band HSC)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("inspect", help="print cube header facts")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (hsidata.FormatError, tc.DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
