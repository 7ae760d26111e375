"""The CLI's allocator policy: under glibc, memory a command frees stays
in the process, so the next step reuses resident pages; without glibc,
or without mallopt, the CLI runs as before."""

import ctypes
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hsimae import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, OSError, ValueError):
        return False


@pytest.mark.skipif(not glibc(), reason="the policy applies only under glibc")
def test_freed_arrays_are_reused_without_page_faults(tmp_path):
    # Four 20 MB arrays, filled and freed three times over: round 1 faults
    # their pages in; rounds 2 and 3 must find them still resident.
    code = ("import json, resource\n"
            "import numpy as np\n"
            "from hsimae import cli\n"
            "assert cli.main(['gen-synth', '--h', '9', '--w', '9', '--b', "
            f"'8', '--classes', '2', '--out', {str(tmp_path / 'c.hsc')!r}]) "
            "== 0\n"
            "faults = []\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    arrays = [np.ones(20_000_000 // 8) for _ in range(4)]\n"
            "    del arrays\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF)"
            ".ru_minflt - before)\n"
            "print(json.dumps(faults))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert faults[1] < 100 and faults[2] < 100, faults


def no_confstr(monkeypatch):
    monkeypatch.delattr(os, "confstr")


def unknown_confstr_name(monkeypatch):
    def confstr(name):
        raise ValueError("unrecognized configuration name")
    monkeypatch.setattr(os, "confstr", confstr)


def other_libc(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: None)


def no_mallopt(monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())


@pytest.mark.parametrize("lookup", [no_confstr, unknown_confstr_name,
                                    other_libc, no_mallopt])
def test_cli_runs_without_glibc(lookup, monkeypatch, tmp_path, capsys):
    lookup(monkeypatch)
    out = tmp_path / "c.hsc"
    assert cli.main(["gen-synth", "--h", "9", "--w", "9", "--b", "8",
                     "--classes", "2", "--out", str(out)]) == cli.EXIT_OK
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
