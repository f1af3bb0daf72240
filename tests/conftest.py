"""Shared fixtures: simulations reused by several test modules, the CLI run
as a child process, a built-in topology under another stimulus, the device
models of a process corner, and an independent static-power reference on
pinned circuit copies."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lsbench
from lsbench.devmodel import SourceWave
from lsbench.engine import GMIN_DEFAULT, dc_operating_point, transient
from lsbench.netlist import elaborate, parse_netlist
from lsbench.topologies import gen


def gen_with_stimulus(topology, wave, p=None):
    """`gen(topology, p)` with its VIN card driven by `wave`."""
    doc = gen(topology, p)
    return replace(doc, devices=tuple(replace(c, wave=wave) if c.name == "VIN" else c
                                      for c in doc.devices))

# (name, polarity, nominal VTH0 in V, nominal KP in A/V^2) of the corner grid
_CORNER_NOMINAL = (("NCH", "NMOS", 0.50, 190e-6), ("PCH", "PMOS", 0.95, 48e-6))


def corner_models(key):
    """The `.model` cards of perfbench's grid corner `key`, written as
    perfbench/workloads.py writes them: four digits 0..4, one per NCH VTH0,
    NCH KP, PCH VTH0 and PCH KP, 2 at nominal and each step one sigma
    (50 mV of VTH0, 10% of KP)."""
    z = [int(ch) - 2 for ch in key]
    return "".join(f".model {name} {pol} (VTH0={vth0 + z[2 * i] * 0.05:.6g} "
                   f"KP={kp * (1 + z[2 * i + 1] * 0.10):.6g})\n"
                   for i, (name, pol, vth0, kp) in enumerate(_CORNER_NOMINAL))


def pinned(circuit, state):
    """`circuit` with every pulse source pinned at its lo (v1) or hi (v2)
    level: the same structure, DC sources only."""
    return replace(circuit, sources=[
        replace(s, wave=SourceWave("dc", s.wave.v1 if state == "lo" else s.wave.v2))
        if s.wave.kind == "pulse" else s
        for s in circuit.sources
    ])


def pinned_static_power(circuit, state):
    """Static power by a route of its own: the DC operating point of the
    pinned copy, then the power its sources deliver there less the
    synthetic gmin currents, as perfbench/make_refs.py restates it."""
    p = pinned(circuit, state)
    op = dc_operating_point(p)
    v = op.state.v
    total = 0.0
    for k, s in enumerate(p.sources):
        vs = (v[s.p] if s.p >= 0 else 0.0) - (v[s.m] if s.m >= 0 else 0.0)
        total += vs * (-float(op.state.i_branch[k]))
    return total - GMIN_DEFAULT * float(v @ v)

# A minimal inverter driving a known load with a slow squarewave, sized so
# almost all supply energy goes into charging the 10 fF cap: the average
# power must land just above f * C * Vdd^2.
INVERTER_POWER_NETLIST = """\
inverter driving 10 fF from a 10 MHz squarewave
.model NCH NMOS ()
.model PCH PMOS ()
VDD vdd 0 DC 3.3
VIN in 0 PULSE(0 3.3 1n 0.1n 0.1n 49.9n 100n)
MP1 out in vdd vdd PCH W=0.2u L=0.35u
MN1 out in 0 0 NCH W=0.08u L=0.35u
CL out 0 10f
.tran 20p 300n
.end
"""


@pytest.fixture(scope="session")
def inverter_power_run():
    """(circuit, waveforms) for the inverter above, simulated once."""
    circ = elaborate(parse_netlist(INVERTER_POWER_NETLIST))
    waves = transient(circ, circ.tran.tstep, circ.tran.tstop)
    return circ, waves


# First-order RC driven by a pulse train, stepped at tau/1000: the measured
# 50% delay has the closed form RC * ln 2.
RC_DELAY_NETLIST = """\
rc pulse train, tau = 1 ns
VIN in 0 PULSE(0 3.3 0 1p 1p 7.998n 16n)
R1 in out 1k
C1 out 0 1p
.tran 1p 40n
.end
"""


@pytest.fixture(scope="session")
def rc_delay_run():
    """(circuit, waveforms) for the RC pulse train, simulated once."""
    circ = elaborate(parse_netlist(RC_DELAY_NETLIST))
    waves = transient(circ, circ.tran.tstep, circ.tran.tstop)
    return circ, waves


@pytest.fixture
def run_lsbench():
    """Run `python -m lsbench *args` in a child process and return the
    CompletedProcess (text stdout/stderr captured).

    The child's PYTHONPATH starts with the directory holding the package these
    tests imported, so it runs that same code: a relative PYTHONPATH entry
    would break once pytest starts elsewhere, and an installed copy would
    otherwise shadow the source under test."""
    src = str(Path(lsbench.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def run(*args, flags=()):  # flags: the interpreter's own, before -m
        return subprocess.run([sys.executable, *flags, "-m", "lsbench", *args],
                              capture_output=True, text=True, env=env)
    return run
