"""Tests of the benchmark itself: each correctness check passes on a right
output and fails on a deliberately wrong one, and the tracer's spans add up.

    PYTHONPATH=src python -m pytest -q bench
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from checks import CheckFailed
from tracer import Tracer

from hsimae import cli, hsidata, masking, model, training
from hsimae import tensorcore as tc

ROOT = Path(__file__).resolve().parent.parent


# -- loss log ------------------------------------------------------------


def _write_log(path, entries):
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")


def _good_log(steps=20, alpha=0.5):
    entries = []
    for n in range(steps):
        mse, sam = 1.0 / (n + 1), 2.0 / (n + 2)
        entries.append({"step": n, "l_mse": mse, "l_sam": sam,
                        "l_rec": alpha * mse + (1 - alpha) * sam, "seed": n})
    return entries


def test_loss_log_passes(tmp_path):
    _write_log(tmp_path / "log", _good_log())
    checks.check_loss_log(tmp_path / "log", 20, 0.5, must_decrease=True)


@pytest.mark.parametrize("defect", ["l_rec", "nan", "short", "flat"])
def test_loss_log_fails(tmp_path, defect):
    entries = _good_log()
    if defect == "l_rec":
        entries[7]["l_rec"] += 1e-6
    elif defect == "nan":
        entries[3]["l_sam"] = float("nan")
    elif defect == "short":
        entries.pop()
    else:
        entries = entries[::-1]
        for n, e in enumerate(entries):
            e["step"] = n
    _write_log(tmp_path / "log", entries)
    with pytest.raises(CheckFailed):
        checks.check_loss_log(tmp_path / "log", 20, 0.5, must_decrease=True)


# -- probe checkpoint ----------------------------------------------------


def _round_trip(params, path):
    model.save_checkpoint(params, path)
    return model.load_checkpoint(path).arrays


@pytest.fixture()
def pretrained():
    return model.init_params(model.micro_config(), 2, 2, 2, 3, seed=5)


def test_probe_checkpoint_passes(tmp_path, pretrained):
    probed = pretrained.copy()
    probed.arrays["cls_w"][0, 0] += 0.1
    probed.arrays["cls_b"][1] -= 0.1
    checks.check_probe_checkpoint(_round_trip(pretrained, tmp_path / "a"),
                                  _round_trip(probed, tmp_path / "b"))


@pytest.mark.parametrize("change", ["encoder", "head_untouched"])
def test_probe_checkpoint_fails(tmp_path, pretrained, change):
    probed = pretrained.copy()
    probed.arrays["cls_w"][0, 0] += 0.1
    if change == "encoder":
        probed.arrays["enc0_wq"][3, 2] += 1e-12
    else:
        probed.arrays["cls_b"] = pretrained.arrays["cls_b"].copy()
    with pytest.raises(CheckFailed):
        checks.check_probe_checkpoint(_round_trip(pretrained, tmp_path / "a"),
                                      _round_trip(probed, tmp_path / "b"))


# -- classification reports ----------------------------------------------


@pytest.fixture()
def scored():
    rng = np.random.default_rng(3)
    true = rng.integers(1, 4, size=60)
    pred = np.where(rng.random(60) < 0.7, true, rng.integers(1, 4, size=60))
    rows = [(n, 0, int(t), "test") for n, t in enumerate(true)]
    rows += [(n, 1, 1 + n % 3, "train") for n in range(6)]
    report = json.loads(training.evaluate(pred, true).to_json())
    return report, rows


def test_report_passes(scored):
    report, rows = scored
    checks.check_report(report, rows)
    checks.check_accuracy(report, 100.0 / 3, "probe")


@pytest.mark.parametrize("defect", ["kappa", "oa", "aa", "moved", "dropped"])
def test_report_fails(scored, defect):
    report, rows = scored
    conf = report["confusion"]
    if defect in ("kappa", "oa", "aa"):
        report[defect] *= 1.001
    elif defect == "moved":  # same total, but a row no longer matches its class
        conf[0][0] -= 1
        conf[1][0] += 1
    else:
        conf[2][2] -= 1
    with pytest.raises(CheckFailed):
        checks.check_report(report, rows)


def test_accuracy_floor_and_confusion_match(scored):
    report, _ = scored
    with pytest.raises(CheckFailed):
        checks.check_accuracy(report, report["oa"], "full fine-tune")
    other = json.loads(json.dumps(report))
    checks.check_same_confusion(report, other)
    other["confusion"][0][1] += 1
    other["confusion"][0][0] -= 1
    with pytest.raises(CheckFailed):
        checks.check_same_confusion(report, other)


# -- reconstruction ------------------------------------------------------


@pytest.mark.parametrize("P,Q,K,rho_s,rho_b", [
    (3, 3, 3, 0.5, 0.5), (8, 8, 12, 0.5, 0.5), (2, 3, 5, 0.3, 0.6),
    (4, 4, 4, 0.0, 0.75)])
def test_masked_voxel_formula_matches_plans(P, Q, K, rho_s, rho_b):
    plan = masking.sample_mask_plan(P, Q, K, rho_s, rho_b, seed=9)
    vox = masking.voxel_mask(plan, 9 * P, 9 * Q, 8 * K)
    assert checks.masked_voxels(P, Q, K, rho_s, rho_b) == int(vox.sum())


@pytest.fixture(scope="module")
def reconstructed(tmp_path_factory):
    d = tmp_path_factory.mktemp("recon")
    config = d / "micro.json"
    config.write_text(json.dumps({"model": model.micro_config().to_dict()}))
    paths = {k: str(d / f"{k}") for k in ("cube", "ckpt", "out", "sam")}
    assert cli.main(["gen-synth", "--h", "20", "--w", "19", "--b", "17",
                     "--classes", "2", "--seed", "4",
                     "--out", paths["cube"]]) == 0
    assert cli.main(["pretrain", "--config", str(config), "--data",
                     paths["cube"], "--out", paths["ckpt"],
                     "--steps", "2"]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["reconstruct", "--checkpoint", paths["ckpt"],
                         "--data", paths["cube"], "--seed", "2",
                         "--out", paths["out"], "--sam-map", paths["sam"]]) == 0
    return paths, json.loads(out.getvalue().splitlines()[0])


def _check_recon(paths, report):
    checks.check_reconstruction(report, paths["cube"], paths["out"],
                                paths["sam"], 0.5, 0.5)


def test_reconstruction_passes(reconstructed):
    _check_recon(*reconstructed)


def test_own_reader_matches_hsidata(reconstructed):
    paths, _ = reconstructed
    values, wavelengths, labels = checks.read_hsc(paths["cube"])
    cube = hsidata.load_cube(paths["cube"])
    assert np.array_equal(values, cube.values)
    assert np.array_equal(wavelengths, cube.wavelengths)
    assert np.array_equal(labels, cube.labels)


@pytest.mark.parametrize("defect", ["sam_pixel", "n_masked", "n_pixels",
                                    "l_sam"])
def test_reconstruction_fails(reconstructed, tmp_path, defect):
    paths, report = reconstructed
    paths, report = dict(paths), dict(report)
    if defect == "sam_pixel":
        sam = hsidata.load_cube(paths["sam"])
        sam.values[5, 7, 0] += 1e-4
        paths["sam"] = str(tmp_path / "sam")
        hsidata.save_cube(sam, paths["sam"])
    elif defect == "n_masked":
        report["n_masked"] += 648
    elif defect == "n_pixels":
        report["n_pixels"] -= 1
    else:
        report["l_sam"] += 1e-4
    with pytest.raises(CheckFailed):
        _check_recon(paths, report)


# -- tracer and the benchmark's declared metrics --------------------------


def test_tracer_spans_nest_and_uninstall():
    originals = (tc.tmean, tc.tsum, tc.scale, tc.Tensor.backward)
    tracer = Tracer()
    tracer.install()
    try:
        x = tc.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tc.tmean(x).backward()
    finally:
        tracer.uninstall()
    assert (tc.tmean, tc.tsum, tc.scale, tc.Tensor.backward) == originals
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["tensorcore.tmean", "tensorcore.tsum",
                     "tensorcore.scale", "tensorcore.backward"]
    assert list(tracer.parent) == [-1, 0, 0, -1]
    summary = tracer.summarize(0, tracer.mark())
    mean = summary["tensorcore.tmean"]
    children = (summary["tensorcore.tsum"]["incl_ms"]
                + summary["tensorcore.scale"]["incl_ms"])
    assert mean["self_ms"] == pytest.approx(mean["incl_ms"] - children)
    assert "cli.main" in tracer.installed
    assert np.allclose(x.grad, 1.0 / 6)


def test_removed_function_reports_absent():
    tracer = Tracer()
    rnd = run.Round()
    rnd.marks = {p: (0, 0) for p in ("setup", "pretrain", "probe", "full",
                                     "classify", "reconstruct")}
    values = run.per_layer(run.WORKLOADS["grid27"], tracer, rnd, n_train=10)
    assert set(values) == set(run.PER_LAYER) - {"trace.overhead_ratio"}
    assert values["pretrain.model.decode.ms_per_step"] is None
    assert values["pretrain.tensorcore.ops_per_step"] == 0


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
