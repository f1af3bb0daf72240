"""Smoke tests of the example scripts under scripts/ and of the README's
library examples."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


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


def test_readme_python_examples_run(capsys):
    # every fenced python block of the README, in order, in one namespace,
    # as a reader pasting them would: a later block uses the earlier imports
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) >= 2
    ns = {}
    for code in blocks:
        exec(compile(code, str(readme), "exec"), ns)
    assert capsys.readouterr().out
