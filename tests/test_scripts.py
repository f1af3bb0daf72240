"""Smoke tests of the example scripts under scripts/ and of the README's
library examples, and a check that the README states the engine's step
error target."""

import importlib.util
import re
from pathlib import Path

from lsbench import engine

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


def test_step_error_target_prose_matches_the_constant():
    # the target the README's Transient section and the engine docstring
    # state is the one the step control divides by
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Transient\n", 1)[1].split("\n## ", 1)[0]
    (micro,) = re.findall(r"under (\d+) uV", section)
    (volts,) = re.findall(r"max\|DD2\(v\)\| / (\S+) V", engine.__doc__)
    assert float(f"{micro}e-6") == float(volts) == engine._LTE_TOL
