"""Smoke tests of the example scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_stack_leakage_demo_leakage_falls_with_k(capsys):
    assert _load("stack_leakage_demo").main(["--kmax", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(r.split()[0]) for r in rows] == [1, 2, 3]
    leak = [float(r.split()[1]) for r in rows]
    assert leak[0] > leak[1] > leak[2] > 0.0
