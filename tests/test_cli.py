import argparse
import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from hsimae import cli, hsidata, loss, model, training
from hsimae import tensorcore as tc
from test_hsidata import hsc_bytes
from test_model import rewrite_header
from test_training import nan_at_a_masked_voxel


def run(argv):
    return cli.main(argv)


def _subparsers():
    """{command: its parser} of cli.build_parser()."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


# (command, flag) of every flag declared an output
OUTPUT_FLAGS = [(command, action.option_strings[0])
                for command, parser in _subparsers().items()
                for action in parser._actions if action.type is cli.Output]


@pytest.fixture()
def small_cube(tmp_path):
    path = tmp_path / "cube.hsc"
    split = tmp_path / "split.csv"
    code = run(["gen-synth", "--h", "27", "--w", "27", "--b", "24",
                "--classes", "3", "--seed", "7", "--out", str(path),
                "--split-out", str(split)])
    assert code == 0
    return path, split


class TestGenSynth:
    def test_produces_loadable_cube(self, small_cube):
        path, split = small_cube
        cube = hsidata.load_cube(path)
        assert (cube.height, cube.width, cube.bands) == (27, 27, 24)
        assert split.exists()

    def test_same_seed_identical_bytes(self, tmp_path):
        paths = []
        for name in ("a.hsc", "b.hsc"):
            p = tmp_path / name
            assert run(["gen-synth", "--h", "18", "--w", "18", "--b", "16",
                        "--classes", "2", "--seed", "3", "--out", str(p)]) == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_invalid_dims(self, tmp_path, capsys):
        code = run(["gen-synth", "--h", "4", "--w", "4", "--b", "24",
                    "--classes", "2", "--seed", "0",
                    "--out", str(tmp_path / "x.hsc")])
        assert code == cli.EXIT_DATA
        assert "error" in capsys.readouterr().err

    def test_unseparable_classes_exit_two_without_output(
            self, tmp_path, capsys, monkeypatch):
        # 40 classes would take minutes to reach the cap of 10,000 draws
        monkeypatch.setattr(hsidata, "MAX_ENDMEMBER_DRAWS", 3)
        cube = tmp_path / "x.hsc"
        code = run(["gen-synth", "--h", "18", "--w", "18", "--b", "16",
                    "--classes", "40", "--out", str(cube)])
        assert code == cli.EXIT_DATA
        assert ("3 draws of 40 endmember spectra found none 0.15 rad apart"
                in capsys.readouterr().err)
        assert not cube.exists()

    @pytest.mark.parametrize("fraction", ["-0.5", "0", "1", "7", "nan"])
    def test_train_fraction_outside_zero_one_writes_nothing(
            self, tmp_path, capsys, fraction):
        cube, split = tmp_path / "x.hsc", tmp_path / "split.csv"
        code = run(["gen-synth", "--h", "18", "--w", "18", "--b", "16",
                    "--classes", "2", "--out", str(cube),
                    "--split-out", str(split), "--train-fraction", fraction])
        assert code == cli.EXIT_DATA
        assert "--train-fraction" in capsys.readouterr().err
        assert not cube.exists() and not split.exists()


class TestInspect:
    def test_reports_header(self, small_cube, capsys):
        path, _ = small_cube
        assert run(["inspect", "--data", str(path)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["height"] == 27 and info["bands"] == 24
        assert info["wavelength_min_um"] == pytest.approx(0.4)
        assert info["wavelength_max_um"] == pytest.approx(2.5)
        assert info["labeled"] and info["n_classes"] == 3

    def test_missing_file(self, tmp_path):
        assert run(["inspect", "--data", str(tmp_path / "no.hsc")]) == cli.EXIT_DATA

    @pytest.mark.parametrize("shape, labeled", [((9, 9, 0), False),
                                                ((0, 9, 8), True)])
    def test_zero_extent_exits_two(self, tmp_path, capsys, shape, labeled):
        path = tmp_path / "empty.hsc"
        path.write_bytes(hsc_bytes(*shape, labeled))
        assert run(["inspect", "--data", str(path)]) == cli.EXIT_DATA
        assert "zero extent" in capsys.readouterr().err


    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_value_named_by_offset(self, small_cube, capsys, value):
        path, _ = small_cube
        raw = bytearray(path.read_bytes())
        index = 27 * 24 * 5 + 24 * 3 + 7  # pixel (5, 3), band 7
        at = 17 + 8 * 24 + 8 * index
        raw[at:at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run(["inspect", "--data", str(path)]) == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: non-finite value at offset {at}\n")

    def test_checkpoint_header_and_parameter_counts(self, small_cube,
                                                    tmp_path, capsys):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16", "--seed", "4"])
        capsys.readouterr()
        assert run(["inspect", "--checkpoint", str(ckpt)]) == 0
        info = json.loads(capsys.readouterr().out)
        params = model.load_checkpoint(ckpt)
        assert info["version"] == model.CHECKPOINT_VERSION
        assert info["config"] == params.config.to_dict()
        assert (info["P"], info["Q"], info["K"]) == (3, 3, 3)
        assert (info["n_classes"], info["seed"]) == (3, params.seed)
        d, f = 16, params.config.d_ff
        layer = 4 * d + 4 * (d * d + d) + (d * f + f) + (f * d + d)
        # 648-voxel patches, a 3 x 3 spatial table, 3 classes
        assert info["parameters"] == {
            "embed": 648 * d + d + 9 * d,
            "enc": 4 * layer + 2 * d, "dec": 2 * layer + 2 * d + d,
            "heads": d * 648 + 648 + d * 3 + 3, "total": params.flat.size}
        assert sum(info["parameters"].values()) == 2 * params.flat.size

    def test_checkpoint_prints_the_files_header(self, small_cube, tmp_path,
                                               capsys):
        # every key of the header JSON but the magic and the parameter order
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16", "--seed", "4"])
        raw = ckpt.read_bytes()
        (n,) = struct.unpack_from("<I", raw)
        header = json.loads(raw[4:4 + n])
        del header["magic"], header["param_order"]
        capsys.readouterr()
        assert run(["inspect", "--checkpoint", str(ckpt)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info.pop("parameters")["total"] > 0
        assert info == header

    @pytest.mark.parametrize("damage", ["a cube", "truncated", "empty"])
    def test_malformed_checkpoint_exits_two(self, small_cube, tmp_path,
                                            capsys, damage):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        raw = ckpt.read_bytes()
        ckpt.write_bytes({"a cube": path.read_bytes(), "truncated": raw[:-8],
                          "empty": b""}[damage])
        capsys.readouterr()
        assert run(["inspect", "--checkpoint", str(ckpt)]) == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: [^\n]*\n", captured.err)
        assert str(ckpt) in captured.err

    @pytest.mark.parametrize("argv", [[], ["--data", "c.hsc",
                                           "--checkpoint", "m.ckpt"]])
    def test_one_of_data_or_checkpoint(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(["inspect"] + argv)
        assert exc.value.code == cli.EXIT_USAGE

    def test_first_non_finite_value_named(self, small_cube):
        path, _ = small_cube
        raw = bytearray(path.read_bytes())
        for index in (900, 40):
            at = 17 + 8 * (24 + index)
            raw[at:at + 8] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(hsidata.FormatError,
                           match=f"offset {17 + 8 * (24 + 40)}$"):
            hsidata.load_cube(path)


class TestPretrainCmd:
    def test_runs_and_alpha_endpoint(self, small_cube, tmp_path, capsys):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        log = tmp_path / "log.jsonl"
        code = run(["pretrain", "--data", str(path), "--out", str(ckpt),
                    "--log", str(log), "--steps", "3", "--alpha", "1.0",
                    "--d-model", "16", "--seed", "1"])
        assert code == 0
        for line in log.read_text().splitlines():
            entry = json.loads(line)
            assert entry["l_rec"] == entry["l_mse"]
        assert model.load_checkpoint(ckpt).config.d_model == 16

    def test_missing_input(self, tmp_path):
        code = run(["pretrain", "--data", str(tmp_path / "no.hsc"),
                    "--out", str(tmp_path / "m.ckpt"), "--steps", "1"])
        assert code == cli.EXIT_DATA

    def test_config_file_with_flag_override(self, small_cube, tmp_path):
        path, _ = small_cube
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"d_model": 16, "n_enc_layers": 1,
                                             "n_dec_layers": 1, "n_heads": 2,
                                             "d_ff": 32},
                                   "train": {"steps": 99}}))
        ckpt = tmp_path / "m.ckpt"
        code = run(["pretrain", "--config", str(cfg), "--data", str(path),
                    "--out", str(ckpt), "--steps", "2"])
        assert code == 0  # flag steps=2 wins over config 99
        loaded = model.load_checkpoint(ckpt)
        assert loaded.config.n_enc_layers == 1

    @pytest.mark.parametrize("flags, config", [
        (["--steps", "0"], None),
        (["--steps", "-5"], None),
        ([], {"train": {"steps": -5}}),
    ])
    def test_bad_step_count_exits_two_without_checkpoint(
            self, small_cube, tmp_path, capsys, flags, config):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        argv = ["pretrain", "--data", str(path), "--out", str(ckpt),
                "--d-model", "16"] + flags
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert run(argv) == cli.EXIT_DATA
        assert "steps must be >= 1" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("flags, config, named", [
        (["--lr", "-0.5"], None, "lr must be finite and > 0, got -0.5"),
        (["--lr", "inf"], None, "lr must be finite and > 0, got inf"),
        ([], {"train": {"weight_decay": -0.1}},
         "weight_decay must be finite and >= 0, got -0.1"),
        (["--rho-b", "-0.25"], None, "rho_b must lie in [0, 1], got -0.25"),
    ], ids=["negative_lr", "infinite_lr", "negative_decay", "rho_b"])
    def test_bad_train_setting_exits_two_without_checkpoint(
            self, small_cube, tmp_path, capsys, flags, config, named):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        argv = ["pretrain", "--data", str(path), "--out", str(ckpt),
                "--d-model", "16", "--steps", "1"] + flags
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert run(argv) == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert not ckpt.exists()


class TestConfig:
    @pytest.mark.parametrize("config, named", [
        ([1], "top level"),
        ({"model": 5}, "'model'"),
        ({"train": {"steps": None}}, "train.steps"),
        ({"train": {"steps": [3]}}, "train.steps"),
        ({"model": {"dmodel": 16}}, "'dmodel'"),
        ({"trian": {"steps": 2}}, "'trian'"),
        ({"train": {"beta1": 0.5}}, "'beta1'"),
        ({"model": {"d_model": 16.9}}, "model.d_model"),
        ({"train": {"lr": "0.01"}}, "train.lr"),
        ({"train": {"steps": True}}, "train.steps"),
        ({"train": {"augment": 1}}, "train.augment"),
        # json.dumps writes these as the bare words NaN, Infinity, -Infinity
        ({"train": {"lr": float("nan")}}, "NaN is not a finite number"),
        ({"train": {"lr": float("inf")}}, "Infinity is not a finite number"),
        ({"train": {"weight_decay": -float("inf")}},
         "-Infinity is not a finite number"),
        # a string is written as it is: text that is not JSON
        ('{"train": {"lr": 0.1,}}', "line 1 column 22"),
    ], ids=["list", "section_number", "null", "list_value", "unknown_key",
            "unknown_section", "adam_constant", "float_for_int",
            "string_for_float", "bool_for_int", "int_for_bool", "nan",
            "infinity", "minus_infinity", "not_json"])
    def test_malformed_config_exits_two_without_checkpoint(
            self, small_cube, tmp_path, capsys, config, named):
        path, _ = small_cube
        cfg, ckpt = tmp_path / "cfg.json", tmp_path / "m.ckpt"
        text = config if isinstance(config, str) else json.dumps(config)
        cfg.write_text(text)
        code = run(["pretrain", "--config", str(cfg), "--data", str(path),
                    "--out", str(ckpt), "--steps", "1"])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert str(cfg) in err and named in err
        assert not ckpt.exists()

    @staticmethod
    def _built(tmp_path, config, flags=()):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = cli.build_parser().parse_args(
            ["pretrain", "--config", str(cfg), "--data", "c.hsc",
             "--out", "m.ckpt", *flags])
        return cli._settings("model", args), cli._settings("train", args)

    def test_empty_config_builds_the_defaults(self, tmp_path):
        assert self._built(tmp_path, {}) == (model.ModelConfig(),
                                             training.TrainSettings())

    def test_every_field_round_trips(self, tmp_path):
        config = {
            "model": {"d_model": 24, "n_enc_layers": 3, "n_dec_layers": 1,
                      "n_heads": 3, "d_ff": 48},
            "train": {"steps": 7, "alpha": 0.25, "rho_s": 0.4, "rho_b": 0.6,
                      "lr": 0.002, "weight_decay": 0.1, "augment": False,
                      "fixed_plan": True, "ft_epochs": 3, "ft_batch": 3},
        }
        built = self._built(tmp_path, config)
        for section, settings in zip(("model", "train"), built):
            default = dataclasses.asdict(type(settings)())
            assert set(config[section]) == set(default)
            assert all(config[section][k] != default[k] for k in default)
            assert dataclasses.asdict(settings) == config[section]

    def test_flags_win_over_config(self, tmp_path):
        config = {"train": {"augment": True, "fixed_plan": False, "lr": 0.5},
                  "model": {"d_model": 32}}
        cfg, settings = self._built(
            tmp_path, config,
            ["--no-augment", "--fixed-plan", "--lr", "0.01", "--d-model", "8"])
        assert cfg.d_model == 8
        assert (settings.augment, settings.fixed_plan, settings.lr) == (
            False, True, 0.01)


class TestReconstructCmd:
    def test_reports_and_dumps(self, small_cube, tmp_path, capsys):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "2", "--d-model", "16", "--seed", "2"])
        capsys.readouterr()
        recon = tmp_path / "recon.hsc"
        sam_map = tmp_path / "sam.hsc"
        code = run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path), "--seed", "5", "--out", str(recon),
                    "--sam-map", str(sam_map)])
        assert code == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["n_masked"] > 0
        assert hsidata.load_cube(recon).bands == 24
        assert hsidata.load_cube(sam_map).bands == 1

    def test_sam_map_reuses_the_losss_cosines(self, small_cube, tmp_path,
                                              monkeypatch):
        # pixel norms are computed only by the objective op, and one
        # reconstruct --sam-map runs it once: the map reads its cosines
        path, _ = small_cube
        ckpt, sam_map = tmp_path / "m.ckpt", tmp_path / "sam.hsc"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        calls, objective = [], tc.rec_objective

        def spy(*args):
            calls.append(objective(*args))
            return calls[-1]

        monkeypatch.setattr(tc, "rec_objective", spy)
        assert run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path), "--sam-map", str(sam_map)]) == 0
        assert len(calls) == 1
        np.testing.assert_array_equal(hsidata.load_cube(sam_map).values,
                                      loss.sam_map(calls[0][3]))

    def test_float32_rows_keep_float64_angles(self, small_cube, tmp_path,
                                              monkeypatch):
        # the model runs on float32 leaves; the angles of --sam-map match
        # a float64 recomputation from the written --out within the
        # bound of bench/checks.py::check_reconstruction
        path, _ = small_cube
        ckpt, recon, sam = (tmp_path / n for n in ("m.ckpt", "r.hsc", "s.hsc"))
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "2", "--d-model", "16", "--seed", "2"])
        leaves, masked_loss = [], training.masked_loss
        monkeypatch.setattr(training, "masked_loss", lambda *a: leaves.append(
            {t.data.dtype for t in a[-1].values()}) or masked_loss(*a))
        assert run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path), "--seed", "5", "--out", str(recon),
                    "--sam-map", str(sam)]) == 0
        assert leaves == [{np.dtype(np.float32)}]
        x = hsidata.load_cube(path).values
        out = hsidata.load_cube(recon).values
        mean, std = x.mean(axis=(0, 1)), np.maximum(x.std(axis=(0, 1)), 1e-8)
        y = ((x - mean) / std).reshape(-1, x.shape[-1])
        y_hat = ((out - mean) / std).reshape(-1, x.shape[-1])
        cos = np.sum(y * y_hat, axis=1) / (np.linalg.norm(y, axis=1)
                                           * np.linalg.norm(y_hat, axis=1))
        angles = hsidata.load_cube(sam).values.reshape(-1)
        err = np.abs(np.arccos(np.clip(cos, -1.0, 1.0)) - angles).max()
        # float32 norms would stay within check_reconstruction's 1e-7
        # here (6e-8) but not within float64 rounding (3e-15)
        assert err <= 1e-12

    def test_zero_mask_rejected_with_guidance(self, small_cube, tmp_path,
                                              capsys):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        code = run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path), "--rho-s", "0", "--rho-b", "0"])
        assert code == cli.EXIT_DATA
        assert "rho" in capsys.readouterr().err

    def test_zero_mask_error_is_pretrains(self, small_cube, tmp_path, capsys):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        zero = ["--rho-s", "0", "--rho-b", "0"]
        pretrain = ["pretrain", "--data", str(path), "--out", str(ckpt),
                    "--steps", "1", "--d-model", "16"]
        assert run(pretrain + zero) == cli.EXIT_DATA
        pretrain_err = capsys.readouterr().err
        assert "rho_s=0.0, rho_b=0.0" in pretrain_err and not ckpt.exists()
        run(pretrain)
        capsys.readouterr()
        code = run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path)] + zero)
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == pretrain_err

    def test_non_finite_loss_exits_three(self, small_cube, tmp_path, capsys,
                                         monkeypatch):
        path, _ = small_cube
        ckpt, recon = tmp_path / "m.ckpt", tmp_path / "recon.hsc"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        capsys.readouterr()
        monkeypatch.setattr(model, "masked_forward",
                            nan_at_a_masked_voxel(model.masked_forward, call=1))
        code = run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path), "--out", str(recon)])
        assert code == cli.EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err
        assert not recon.exists()

    def test_grid_past_the_spatial_table_exits_two(self, small_cube,
                                                   tmp_path, capsys):
        # a 27x27 cube trains a 3x3-cell table; a 45x36 one has 5x4 cells
        path, _ = small_cube
        ckpt, big = tmp_path / "m.ckpt", tmp_path / "big.hsc"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        run(["gen-synth", "--h", "45", "--w", "36", "--b", "24",
             "--classes", "3", "--seed", "7", "--out", str(big)])
        capsys.readouterr()
        code = run(["reconstruct", "--checkpoint", str(ckpt),
                    "--data", str(big)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err)
        assert "5x4" in err and "3x3" in err

    @pytest.mark.parametrize("blob", [
        b"",
        b"\x01\x02\x03",
        struct.pack("<I", 30) + b'{"magic": "hsimae-checkpoint"}',
        struct.pack("<I", 1000) + b'{"magic": "hsimae-checkpoint"}',
    ], ids=["empty", "three_bytes", "header_lacks_key", "prefix_too_long"])
    def test_malformed_checkpoint_exits_two(self, small_cube, tmp_path,
                                            capsys, blob):
        path, _ = small_cube
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(blob)
        code = run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path)])
        assert code == cli.EXIT_DATA
        assert str(ckpt) in capsys.readouterr().err


class TestFinetuneEval:
    def test_finetune_and_eval(self, small_cube, tmp_path, capsys):
        path, split = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "2", "--d-model", "16"])
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = run(["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                    "--split", str(split), "--mode", "probe",
                    "--epochs", "1", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["oa"] <= 100.0

    def test_pred_out_scores_like_the_report(self, small_cube, tmp_path,
                                             capsys):
        path, split = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "2", "--d-model", "16"])
        report_path, pred = tmp_path / "report.json", tmp_path / "pred.csv"
        code = run(["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                    "--split", str(split), "--mode", "probe", "--epochs", "2",
                    "--report", str(report_path), "--pred-out", str(pred)])
        assert code == 0
        n_test = sum(line.endswith(",test")
                     for line in split.read_text().splitlines())
        assert len(pred.read_text().splitlines()) == 1 + n_test
        capsys.readouterr()
        assert run(["eval", "--pred", str(pred), "--true", str(split)]) == 0
        scored = json.loads(capsys.readouterr().out)
        report = json.loads(report_path.read_text())
        for key in ("confusion", "oa", "aa", "kappa"):
            assert scored[key] == report[key]

    def test_non_finite_parameter_exits_two(self, small_cube, tmp_path,
                                            capsys):
        path, split = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        params = model.load_checkpoint(ckpt)
        params.arrays["cls_w"][0, 1] = np.nan
        model.save_checkpoint(params, ckpt)
        report = tmp_path / "r.json"
        code = run(["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                    "--split", str(split), "--epochs", "0",
                    "--report", str(report)])
        assert code == cli.EXIT_DATA
        assert (f"{ckpt}: non-finite values in cls_w"
                in capsys.readouterr().err)
        assert not report.exists()

    def test_version_one_checkpoint_exits_two(self, small_cube, tmp_path,
                                              capsys):
        # version 1 decoders self-attended: their weights mean something
        # else to the cross-attending decoder, so they are refused
        path, _ = small_cube
        ckpt, recon = tmp_path / "m.ckpt", tmp_path / "recon.hsc"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        rewrite_header(ckpt, version=1)
        capsys.readouterr()
        code = run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path), "--out", str(recon)])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {ckpt}: unsupported checkpoint version 1\n")
        assert not recon.exists()

    @pytest.mark.parametrize("fields", [{"K": -5}, {"seed": "x"}],
                             ids=["negative_K", "string_seed"])
    def test_malformed_header_exits_two_without_output(
            self, small_cube, tmp_path, capsys, fields):
        path, split = small_cube
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "tuned.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        rewrite_header(ckpt, **fields)
        capsys.readouterr()
        code = run(["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                    "--split", str(split), "--epochs", "0", "--out", str(out)])
        assert code == cli.EXIT_DATA
        assert f"{ckpt}: checkpoint {next(iter(fields))} must be" in (
            capsys.readouterr().err)
        assert not out.exists()

    # where the run diverges depends on the BLAS thread count; at one
    # thread, probe fails at epoch 1, batch 57 (a non-finite loss) and
    # full at epoch 0, batch 14 (a non-finite gradient). The message is
    # all of stderr: no numpy warning comes first (warnings fail here).
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["probe", "full"])
    def test_diverging_finetune_exits_three(self, small_cube, tmp_path,
                                            capsys, mode):
        path, split = small_cube
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "tuned.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "2"])
        capsys.readouterr()
        code = run(["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                    "--split", str(split), "--mode", mode, "--epochs", "3",
                    "--lr", "1000", "--out", str(out)])
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.fullmatch(r"numeric failure: epoch \d+, batch \d+: "
                            r"non-finite[^\n]*\n", err)
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_pretrain_prints_one_line(self, small_cube, tmp_path,
                                                capsys):
        path, _ = small_cube
        capsys.readouterr()
        code = run(["pretrain", "--data", str(path), "--steps", "30",
                    "--lr", "1e6", "--out", str(tmp_path / "m.ckpt")])
        assert code == cli.EXIT_NUMERIC
        # the loss check or the gradient check, whichever trips first
        assert re.fullmatch(r"numeric failure: (non-finite gradient for '\w+' "
                            r"at optimizer step \d+|non-finite loss at step "
                            r"\d+; plan: \{[^\n]*\})\n",
                            capsys.readouterr().err)

    @pytest.mark.parametrize("flags, config", [
        (["--epochs", "-2"], None),
        ([], {"train": {"ft_epochs": -2}}),
    ])
    def test_negative_epochs_exit_two(self, small_cube, tmp_path, capsys,
                                      flags, config):
        self._bad_setting_exits_two(small_cube, tmp_path, capsys, flags,
                                    config, "ft_epochs must be >= 0, got -2")

    @pytest.mark.parametrize("flags, config", [
        (["--batch", "0"], None),
        ([], {"train": {"ft_batch": 0}}),
    ])
    def test_zero_batch_exits_two(self, small_cube, tmp_path, capsys,
                                  flags, config):
        self._bad_setting_exits_two(small_cube, tmp_path, capsys, flags,
                                    config, "ft_batch must be >= 1, got 0")

    @staticmethod
    def _bad_setting_exits_two(small_cube, tmp_path, capsys, flags, config,
                               named):
        path, split = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        capsys.readouterr()
        out = tmp_path / "tuned.ckpt"
        argv = ["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                "--split", str(split), "--out", str(out)] + flags
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        assert run(argv) == cli.EXIT_DATA
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("row, named", [
        ("1,2,x,train", ":3: bad i,j,label in '1,2,x,train'"),
        ("0,0,1,test", ":3: pixel (0, 0) is listed twice"),
    ])
    def test_bad_split_exits_two_before_any_file(self, small_cube, tmp_path,
                                                 capsys, row, named):
        path, _ = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        split = tmp_path / "bad.csv"
        split.write_text(f"i,j,label,split\n0,0,1,train\n{row}\n")
        outs = [tmp_path / name for name in ("t.ckpt", "r.json", "p.csv")]
        code = run(["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                    "--split", str(split), "--out", str(outs[0]),
                    "--report", str(outs[1]), "--pred-out", str(outs[2])])
        assert code == cli.EXIT_DATA
        assert f"{split}{named}" in capsys.readouterr().err
        assert not any(out.exists() for out in outs)

    @pytest.mark.parametrize("row, named", [
        ("1,2,x", ":3: bad i,j,label in '1,2,x'"),
        ("1,2", ":3: bad i,j,label in '1,2'"),
        ("0,0,2", ":3: pixel (0, 0) is listed twice"),
    ])
    def test_bad_label_csv_exits_two(self, tmp_path, capsys, row, named):
        pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
        pred.write_text(f"i,j,label\n0,0,1\n{row}\n")
        true.write_text("i,j,label\n0,0,1\n1,2,1\n")
        assert run(["eval", "--pred", str(pred),
                    "--true", str(true)]) == cli.EXIT_DATA
        assert f"{pred}{named}" in capsys.readouterr().err

    @pytest.mark.parametrize("pred_rows, true_rows, named", [
        ("0,0,1", "0,0,1\n0,1,2\n1,0,1\n1,1,2",
         "3 truth pixels have no prediction, the first at (0, 1)"),
        ("0,0,1\n5,5,2", "0,0,1",
         "1 predicted pixels have no scored truth row, the first at (5, 5)"),
        ("0,0,1\n0,1,2", "0,0,1,test\n0,1,2,train",
         "1 predicted pixels have no scored truth row, the first at (0, 1)"),
    ], ids=["partial_prediction", "pixel_without_truth", "train_pixel"])
    def test_eval_needs_one_prediction_per_scored_pixel(
            self, tmp_path, capsys, pred_rows, true_rows, named):
        pred, true = tmp_path / "pred.csv", tmp_path / "true.csv"
        pred.write_text(f"i,j,label\n{pred_rows}\n")
        true.write_text(f"i,j,label\n{true_rows}\n")
        assert run(["eval", "--pred", str(pred),
                    "--true", str(true)]) == cli.EXIT_DATA
        assert named in capsys.readouterr().err

    def test_eval_identical_csvs(self, tmp_path, capsys):
        csv = tmp_path / "labels.csv"
        csv.write_text("i,j,label\n0,0,1\n0,1,2\n1,0,1\n1,1,2\n")
        code = run(["eval", "--pred", str(csv), "--true", str(csv)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kappa"] == 1.0 and report["oa"] == 100.0


class TestOutputErrors:
    @pytest.mark.parametrize("command, flag", [
        ("pretrain", "--out"), ("finetune", "--report"),
        ("finetune", "--out"), ("reconstruct", "--out")])
    def test_directory_as_output_exits_two(self, small_cube, tmp_path, capsys,
                                           command, flag):
        # an OSError is a data error, one line on stderr, not a traceback
        path, split = small_cube
        ckpt, adir = tmp_path / "m.ckpt", tmp_path / "adir"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        adir.mkdir()
        argv = {"pretrain": ["--data", str(path), "--steps", "1",
                             "--d-model", "16"],
                "finetune": ["--checkpoint", str(ckpt), "--data", str(path),
                             "--split", str(split), "--epochs", "0"],
                "reconstruct": ["--checkpoint", str(ckpt), "--data", str(path)]}
        capsys.readouterr()
        code = run([command] + argv[command] + [flag, str(adir)])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err) and str(adir) in err
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("where", ["a directory", "a missing directory"])
    def test_unwritable_checkpoint_exits_before_the_first_step(
            self, small_cube, tmp_path, capsys, monkeypatch, where):
        path, _ = small_cube
        out = tmp_path / "adir"
        if where == "a directory":
            out.mkdir()
        else:
            out = out / "m.ckpt"
        steps, masked_loss = [], training.masked_loss
        monkeypatch.setattr(training, "masked_loss",
                            lambda *a: steps.append(a) or masked_loss(*a))
        capsys.readouterr()
        code = run(["pretrain", "--data", str(path), "--out", str(out),
                    "--steps", "50", "--d-model", "16"])
        assert code == cli.EXIT_DATA and steps == []
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err) and str(out) in err
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("flag", ["--out", "--report", "--pred-out"])
    def test_unwritable_finetune_output_exits_before_the_first_step(
            self, small_cube, tmp_path, capsys, monkeypatch, flag):
        path, split = small_cube
        ckpt, adir = tmp_path / "m.ckpt", tmp_path / "adir"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        adir.mkdir()
        steps, descend = [], training._descend
        monkeypatch.setattr(training, "_descend",
                            lambda *a: steps.append(a) or descend(*a))
        capsys.readouterr()
        code = run(["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                    "--split", str(split), "--epochs", "3", flag, str(adir)])
        assert code == cli.EXIT_DATA and steps == []
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err) and str(adir) in err
        assert not list(tmp_path.rglob("*.tmp"))


    @pytest.mark.parametrize("flag, bad", [("--out", "adir"),
                                           ("--sam-map", "missing/sam.hsc")])
    def test_unwritable_reconstruct_output_exits_before_the_forward(
            self, small_cube, tmp_path, capsys, monkeypatch, flag, bad):
        # the other output is writable, and stays unwritten
        path, _ = small_cube
        ckpt, bad = tmp_path / "m.ckpt", tmp_path / bad
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        (tmp_path / "adir").mkdir()
        outputs = {"--out": tmp_path / "ok.hsc",
                   "--sam-map": tmp_path / "sam.hsc", flag: bad}
        forwards, masked_loss = [], training.masked_loss
        monkeypatch.setattr(training, "masked_loss",
                            lambda *a: forwards.append(a) or masked_loss(*a))
        capsys.readouterr()
        code = run(["reconstruct", "--checkpoint", str(ckpt), "--data",
                    str(path)] + [str(a) for kv in outputs.items() for a in kv])
        assert code == cli.EXIT_DATA and forwards == []
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err) and str(bad) in err
        assert ".tmp" not in err and not list(tmp_path.rglob("*.tmp"))
        assert not any(p.exists() for p in outputs.values() if p != bad)

    @pytest.mark.parametrize("flag", ["--out", "--split-out"])
    def test_unwritable_gen_synth_output_exits_before_generating(
            self, tmp_path, capsys, monkeypatch, flag):
        outputs = {"--out": tmp_path / "cube.hsc",
                   "--split-out": tmp_path / "split.csv",
                   flag: tmp_path / "missing" / "x"}
        made, gen = [], hsidata.gen_synthetic
        monkeypatch.setattr(hsidata, "gen_synthetic",
                            lambda *a: made.append(a) or gen(*a))
        code = run(["gen-synth", "--h", "18", "--w", "18", "--b", "16",
                    "--classes", "2"]
                   + [str(a) for kv in outputs.items() for a in kv])
        assert code == cli.EXIT_DATA and made == []
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: [^\n]*\n", err)
        assert str(outputs[flag]) in err and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag", ["--report", "--pred-out"])
    def test_failed_finetune_output_keeps_the_old_file(
            self, small_cube, tmp_path, capsys, monkeypatch, flag):
        # the output's bytes are written, then the sync fails: the file
        # at the path is the previous one, and no *.tmp is left
        path, split = small_cube
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "out.txt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        out.write_text("previous\n")

        def fail(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(hsidata.os, "fsync", fail)
        capsys.readouterr()
        code = run(["finetune", "--checkpoint", str(ckpt), "--data", str(path),
                    "--split", str(split), "--epochs", "1", flag, str(out)])
        assert code == cli.EXIT_DATA
        assert "no space left" in capsys.readouterr().err
        assert out.read_text() == "previous\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_split_keeps_the_old_file(self, tmp_path, capsys,
                                             monkeypatch):
        # the cube's sync succeeds; the split's bytes are written, then its
        # sync fails: the file at the path is the previous one, no *.tmp
        cube, split = tmp_path / "x.hsc", tmp_path / "split.csv"
        split.write_text("previous\n")
        syncs, fsync = [], hsidata.os.fsync

        def fail_second(fd):
            syncs.append(fd)
            if len(syncs) == 2:
                raise OSError("no space left on device")
            fsync(fd)

        monkeypatch.setattr(hsidata.os, "fsync", fail_second)
        code = run(["gen-synth", "--h", "18", "--w", "18", "--b", "16",
                    "--classes", "2", "--out", str(cube),
                    "--split-out", str(split)])
        assert code == cli.EXIT_DATA and len(syncs) == 2
        assert "no space left" in capsys.readouterr().err
        assert split.read_text() == "previous\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_every_output_flag_is_declared(self):
        assert OUTPUT_FLAGS == [
            ("gen-synth", "--out"), ("gen-synth", "--split-out"),
            ("pretrain", "--out"), ("pretrain", "--log"),
            ("finetune", "--out"), ("finetune", "--report"),
            ("finetune", "--pred-out"),
            ("reconstruct", "--out"), ("reconstruct", "--sam-map")]

    @pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
    def test_declared_output_at_a_directory_exits_before_the_command(
            self, tmp_path, capsys, monkeypatch, command, flag):
        # the inputs need not exist, as the command never runs
        ran = []
        monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                            ran.append)
        argv = [command]
        for action in _subparsers()[command]._actions:
            if action.required and action.option_strings[0] != flag:
                argv += [action.option_strings[0],
                         "9" if action.type is int else
                         str(tmp_path / action.dest)]
        adir = tmp_path / "adir"
        adir.mkdir()
        code = run(argv + [flag, str(adir)])
        assert code == cli.EXIT_DATA and ran == []
        err = capsys.readouterr().err
        assert err == f"error: cannot write {adir}: it is a directory\n"
        assert list(tmp_path.iterdir()) == [adir]
        assert not list(adir.iterdir())

    @pytest.mark.parametrize("command, flags", [
        ("gen-synth", ("--out", "--split-out")),
        ("pretrain", ("--out", "--log")),
        ("finetune", ("--out", "--report")),
        ("finetune", ("--out", "--pred-out")),
        ("finetune", ("--report", "--pred-out")),
        ("reconstruct", ("--out", "--sam-map")),
    ], ids=["gen-synth", "pretrain", "finetune-out-report",
            "finetune-out-pred-out", "finetune-report-pred-out",
            "reconstruct"])
    def test_one_file_named_by_two_outputs_exits_before_any_work(
            self, small_cube, tmp_path, capsys, monkeypatch, command, flags):
        # the second flag spells the path another way; no scene is drawn,
        # no step or forward pass runs, and no file is written
        path, split = small_cube
        ckpt = tmp_path / "m.ckpt"
        run(["pretrain", "--data", str(path), "--out", str(ckpt),
             "--steps", "1", "--d-model", "16"])
        work = []
        for module, name in ((hsidata, "gen_synthetic"),
                             (training, "masked_loss"),
                             (training, "_descend"), (model, "features")):
            monkeypatch.setattr(module, name, lambda *a, name=name,
                                real=getattr(module, name):
                                work.append(name) or real(*a))
        argv = {"gen-synth": ["--h", "18", "--w", "18", "--b", "16",
                              "--classes", "2"],
                "pretrain": ["--data", str(path), "--steps", "2",
                             "--d-model", "16"],
                "finetune": ["--checkpoint", str(ckpt), "--data", str(path),
                             "--split", str(split), "--epochs", "1"],
                "reconstruct": ["--checkpoint", str(ckpt),
                                "--data", str(path)]}[command]
        first, second = tmp_path / "shared", f"{tmp_path}/./shared"
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        code = run([command] + argv + [flags[0], str(first),
                                       flags[1], second])
        assert code == cli.EXIT_DATA and work == []
        assert capsys.readouterr().err == (
            f"error: {flags[0]} and {flags[1]} both name {second}\n")
        assert sorted(tmp_path.iterdir()) == before


class TestUsage:
    def test_help_exists_for_all_commands(self, capsys):
        for cmd in ["gen-synth", "pretrain", "finetune", "eval",
                    "reconstruct", "inspect"]:
            with pytest.raises(SystemExit) as exc:
                run([cmd, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_bad_usage_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            run(["pretrain"])  # missing required args
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv, flag", [
        (["gen-synth", "--h", "27", "--w", "27", "--b", "24",
          "--classes", "3", "--out", "c.hsc"], "--config"),
        (["eval", "--pred", "p.csv", "--true", "t.csv"], "--config"),
        (["eval", "--pred", "p.csv", "--true", "t.csv"], "--seed"),
        (["reconstruct", "--checkpoint", "m.ckpt", "--data", "c.hsc"],
         "--config"),
        (["inspect", "--data", "c.hsc"], "--config"),
        (["inspect", "--data", "c.hsc"], "--seed"),
    ])
    def test_flag_not_read_by_command_exits_one(self, argv, flag, capsys):
        # only the commands that read --config or --seed accept it
        with pytest.raises(SystemExit) as exc:
            run(argv + [flag, "1"])
        assert exc.value.code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
