"""The three benchmark workloads: inputs drawn from a seed, one timed pass,
and the check of a pass's output against the stored references.

bench_six   `lsbench bench all --format csv` at the default 10 ps / 300 ns
            grid: six circuit structures, 30,000 transient steps each.
sweep_vin   `lsbench sweep cls --param vin_hi --from A --to B --steps 8`:
            eight points sharing one structure, three of them non-functional.
dc_corners  DC only: process corners written as `.model` text, fed through
            gen -> serialize -> parse -> elaborate(seed models) and the two
            static-power solves, plus the stack-leakage fixture for k = 1..4.

Every input a workload uses comes from a finite set that the stored
references cover completely, so any seed can be checked:

- sweep_vin's eight points always lie on a 29-point lattice over
  [0.3, 1.6].  The default seed gives the README's linspace exactly; any
  other seed shifts the endpoints inward by whole lattice steps.
- dc_corners gives each of NCH/PCH VTH0 and KP a whole number of sigmas
  within +/-2 sigma, so a corner is one of 5**4 = 625 grid corners.

The program is reached only through the modules' public names, looked up on
the module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from pathlib import Path
from statistics import NormalDist

import numpy as np

from lsbench import cli, engine, measure, netlist, topologies

REFS = Path(__file__).resolve().parent / "refs"

DEFAULT_SEED = 0

# -- reference comparison ---------------------------------------------------

# Relative deviations below this are floored to it, so float roundoff
# (static powers agree with the tight-tolerance solve to ~1e-15) can never
# read as a change in fig_err_max.
RESOLUTION = 1e-9
# A figure further than this from its reference fails its operation.  The
# 10 ps grid's discretization error against the 2.5 ps reference is at most
# 7e-4 on every point the workloads use (backward Euler throughout would
# give up to 1.3e-2); DC figures agree to roundoff.
TRAN_TOL = 2e-3
DC_TOL = 1e-6

# Tight solver options for the DC references.
REF_DC_OPTS = dict(abstol=1e-15, vntol=1e-13, max_iter=400)

# -- bench_six / sweep_vin ----------------------------------------------------

VDDH = 3.3  # default high rail: swings are compared relative to it
FIG_COLUMNS = ("power_avg_w", "power_static_avg_w", "delay_max_s",
               "swing_hi_v", "swing_lo_v", "reduction_ratio")

SWEEP_TOPOLOGY = "cls"
VIN_FROM, VIN_TO, SWEEP_STEPS = 0.3, 1.6, 8
LATTICE_DIV = 4 * (SWEEP_STEPS - 1)        # 28 intervals, 29 lattice points
LATTICE_STEP = (VIN_TO - VIN_FROM) / LATTICE_DIV


def sweep_bounds(seed: int) -> tuple:
    """(from, to) of the sweep.  Off the default seed, the endpoints move in
    by j and 7 - j lattice steps (j drawn from the seed), which keeps every
    linspace point on the lattice."""
    if seed == DEFAULT_SEED:
        return VIN_FROM, VIN_TO
    return shifted_bounds(int(np.random.default_rng(seed).integers(0, SWEEP_STEPS)))


def shifted_bounds(j: int) -> tuple:
    return (VIN_FROM + j * LATTICE_STEP,
            VIN_TO - (SWEEP_STEPS - 1 - j) * LATTICE_STEP)


def lattice_key(v: float) -> str:
    j = round((v - VIN_FROM) / LATTICE_STEP)
    if not (0 <= j <= LATTICE_DIV and abs(VIN_FROM + j * LATTICE_STEP - v) < 1e-9):
        raise ValueError(f"vin_hi={v!r} is off the sweep lattice")
    return str(j)


def bench_argv(out: Path) -> list:
    return ["bench", "all", "--format", "csv", "-o", str(out)]


def sweep_argv(seed: int, out: Path) -> list:
    lo, hi = sweep_bounds(seed)
    return ["sweep", SWEEP_TOPOLOGY, "--param", "vin_hi", "--from", repr(lo),
            "--to", repr(hi), "--steps", str(SWEEP_STEPS), "-o", str(out)]


def read_rows(data: bytes) -> list:
    return list(csv.DictReader(io.StringIO(data.decode())))


def row_key(workload: str, row: dict) -> str:
    """Reference key of an output row; ValueError if the row has none."""
    key = row.get("topology" if workload == "bench_six" else "value")
    if not key:
        raise ValueError(f"row without a key: {row}")
    return key if workload == "bench_six" else lattice_key(float(key))


def cell(row: dict, col: str) -> float:
    """A CSV cell as a number; NaN if it is missing, empty or not a number."""
    try:
        return float(row.get(col) or "nan")
    except ValueError:
        return math.nan


def worst(errs) -> float:
    """Largest deviation, or NaN if any is NaN (max() keeps a finite value
    over a NaN that does not come first)."""
    errs = list(errs)
    return math.nan if any(map(math.isnan, errs)) else max(errs, default=RESOLUTION)


def figure_errors(row: dict, ref: dict) -> list:
    """Deviation of each reported figure from its 2.5 ps reference: powers
    and the reduction ratio relative to their own reference, delay relative
    to the reference delay_max, swings relative to vddh."""
    errs = []
    for col in FIG_COLUMNS:
        want = ref.get(col)
        if want is None:
            continue
        got = cell(row, col)
        if col.startswith("swing"):
            scale = VDDH
        elif col.startswith("delay"):
            scale = abs(ref["delay_max_s"])
        else:
            scale = abs(want)
        errs.append(abs(got - want) / scale)
    return errs


# -- dc_corners ----------------------------------------------------------------

N_CORNERS = 120
FIXTURE_KS = (1, 2, 3, 4)
FIXTURE_W, FIXTURE_VDD = 1e-6, 3.3
# Nominal values and one sigma of each varied parameter; the benchmark
# fixes them itself so that its inputs do not follow program defaults.
NOMINAL = {"NCH": (0.50, 190e-6), "PCH": (0.95, 48e-6)}
SIGMA_VTH0 = 0.05   # V
SIGMA_KP = 0.10     # relative


def draw_corners(seed: int) -> list:
    """N_CORNERS corner keys: four digits 0..4, one per (NCH VTH0, NCH KP,
    PCH VTH0, PCH KP), digit 2 being nominal and each step one sigma.

    A Latin hypercube over the rounded normal: each parameter takes the
    N_CORNERS stratified normal quantiles, rounded to a whole sigma and
    clipped to +/-2, in an order the seed shuffles.  Every seed therefore
    has the same number of corners at each sigma of each parameter (8 at
    -2, 29 at -1, 46 nominal, ...) and differs only in how they combine.
    Independent draws made the DC work of one seed differ from another's
    by 0.09 (quartile spread over seeds 1..10), more than timing noise."""
    rng = np.random.default_rng(seed)
    q = [NormalDist().inv_cdf((i + 0.5) / N_CORNERS) for i in range(N_CORNERS)]
    levels = np.clip(np.rint(q), -2, 2).astype(int) + 2
    z = np.stack([rng.permutation(levels) for _ in range(4)], axis=1)
    return ["".join(map(str, row)) for row in z]


def all_corner_keys() -> list:
    return [f"{a}{b}{c}{d}" for a in range(5) for b in range(5)
            for c in range(5) for d in range(5)]


def corner_text(key: str) -> str:
    return f"* process corner {key}\n" + corner_models([int(ch) - 2 for ch in key])


def corner_models(z) -> str:
    """`.model` cards with each parameter z[i] sigmas off nominal."""
    cards = []
    for name, pol, dv, dk in (("NCH", "NMOS", z[0], z[1]), ("PCH", "PMOS", z[2], z[3])):
        vth0, kp = NOMINAL[name]
        cards.append(f".model {name} {pol} (VTH0={vth0 + dv * SIGMA_VTH0:.6g} "
                     f"KP={kp * (1 + dk * SIGMA_KP):.6g})")
    return "\n".join(cards) + "\n"


def corner_static(topo: str, text: str, opts=None) -> tuple:
    """One corner-circuit operation: (static power lo, hi)."""
    doc = topologies.gen(topo)
    parsed = netlist.parse_netlist(netlist.serialize_netlist(doc))
    circ = netlist.elaborate(parsed, base_models=netlist.parse_seed_models(text))
    return (measure.static_power(circ, "lo", opts),
            measure.static_power(circ, "hi", opts))


def fixture_leakage(nmos, k: int, opts=None) -> float:
    """Off-state leakage of a k-stack of total width FIXTURE_W."""
    doc = topologies.stack_leakage_fixture(k, FIXTURE_W, nmos, FIXTURE_VDD)
    op = engine.dc_operating_point(netlist.elaborate(doc), opts)
    return -float(op.state.i_branch[0])


# -- passes --------------------------------------------------------------------

class Pass:
    """Outcome of one pass: its start and end on the perf_counter clock,
    output bytes, the (start, end) of each timed operation, and the checked
    results.  A timed operation is one corner circuit on dc_corners and the
    whole CLI command on the CLI workloads, whose rows are checked but not
    timed one by one.

    An operation fails when it raises an error its reference does not
    expect, when its status differs from the expected one, or when a figure
    is further from its reference than the tolerance.  A DC solve the
    reference expects to fail (`solver_errors`) is an expected outcome and
    is counted in `expected_errors`; if it converges instead, its figures
    are checked like any other."""

    def __init__(self):
        self.t0 = self.t1 = 0.0
        self.output = b""
        self.op_spans = []
        self.attempted = 0
        self.failed = 0
        self.fig_err = RESOLUTION
        self.expected_errors = 0
        self.problems = []

    @property
    def wall(self) -> float:
        return self.t1 - self.t0

    def fail(self, what: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def figure(self, err: float, tol: float, what: str):
        """Record an operation's worst figure deviation, floored to
        RESOLUTION; fails the operation once if it exceeds tol or is NaN."""
        if not err <= tol:
            self.fail(f"{what}: deviation {err:.3g} exceeds {tol:g}")
        if err > self.fig_err:
            self.fig_err = err


class Workload:
    """Inputs for one (workload, seed), ready before the timed section."""

    def __init__(self, name: str, seed: int, refs: dict, workdir: Path):
        self.name, self.seed, self.refs = name, seed, refs
        if name == "dc_corners":
            self.corners = [(key, corner_text(key)) for key in draw_corners(seed)]
        else:
            self.out = workdir / f"{name}.csv"
            self.argv = (bench_argv(self.out) if name == "bench_six"
                         else sweep_argv(seed, self.out))

    def run(self) -> Pass:
        p = Pass()
        p.t0 = time.perf_counter()
        if self.name == "dc_corners":
            self._dc_pass(p)
        else:
            self._cli_pass(p)
        p.t1 = time.perf_counter()
        if self.name != "dc_corners":
            p.op_spans = [(p.t0, p.t1)]
        return p

    # cli workloads: one in-process CLI call, checked row by row afterwards

    def _cli_pass(self, p: Pass):
        try:
            rc = cli.main(self.argv)
        except Exception as e:  # counted as failed operations, not a crash
            rc = f"{type(e).__name__}: {e}"
        p.output = self.out.read_bytes() if self.out.exists() else b""
        self.out.unlink(missing_ok=True)
        self.check_cli(p, rc)

    def check_cli(self, p: Pass, rc):
        """Check a CLI pass's exit code and output rows against the refs."""
        rows = read_rows(p.output) if p.output else []
        expected = self.refs["points"]
        keys = (list(expected) if self.name == "bench_six"
                else [lattice_key(v) for v in np.linspace(
                    *sweep_bounds(self.seed), SWEEP_STEPS)])
        p.attempted += len(keys)
        if rc != self.refs["exit_code"]:
            p.problems.append(f"exit code {rc}, expected {self.refs['exit_code']}")
        got = {}
        for row in rows:
            try:
                got[row_key(self.name, row)] = row
            except ValueError as e:
                p.problems.append(str(e))
        for key in keys:
            row, ref = got.get(key), expected.get(key)
            if ref is None:
                p.fail(f"{key}: no reference; see make_refs.py")
            elif row is None:
                p.fail(f"{key}: no output row")
            elif row.get("status") != ref["status"]:
                p.fail(f"{key}: status {row.get('status')!r}, expected {ref['status']!r}")
            elif ref["status"] == "ok":
                p.figure(worst(figure_errors(row, ref["figures"])), TRAN_TOL, key)
        if p.problems and p.failed == 0:
            p.failed = p.attempted  # malformed output or wrong exit code

    # dc_corners: the benchmark loops over corner circuits itself

    def _dc_pass(self, p: Pass):
        ref_static, ref_leak = self.refs["static"], self.refs["leakage"]
        expected_errors = self.refs["solver_errors"]
        lines = []
        for key, text in self.corners:
            for topo in topologies.TOPOLOGY_IDS:
                p.attempted += 1
                t0 = time.perf_counter()
                try:
                    lo, hi = corner_static(topo, text)
                except Exception as e:  # counted below, not a crash
                    p.op_spans.append((t0, time.perf_counter()))
                    lines.append(f"{key} {topo} {type(e).__name__}")
                    if isinstance(e, engine.SolverError) and topo in expected_errors.get(key, ()):
                        p.expected_errors += 1
                    else:
                        p.fail(f"{key}/{topo}: {type(e).__name__}: {e}")
                    continue
                p.op_spans.append((t0, time.perf_counter()))
                lines.append(f"{key} {topo} {lo!r} {hi!r}")
                want_lo_hi = ref_static.get(key, {}).get(topo)
                if want_lo_hi is None:
                    p.fail(f"{key}/{topo}: no reference; see make_refs.py")
                    continue
                p.figure(worst(abs(got - want) / abs(want)
                               for got, want in zip((lo, hi), want_lo_hi)),
                         DC_TOL, f"{key}/{topo}")
            nmos = netlist.parse_seed_models(text)["nmos"]
            for k in FIXTURE_KS:
                p.attempted += 1
                try:
                    leak = fixture_leakage(nmos, k)
                except Exception as e:  # counted as a failed operation
                    p.fail(f"{key}/k={k}: {type(e).__name__}: {e}")
                    continue
                lines.append(f"{key} k{k} {leak!r}")
                if key[:2] not in ref_leak:
                    p.fail(f"{key}/k={k}: no reference; see make_refs.py")
                    continue
                want = ref_leak[key[:2]][k - 1]
                p.figure(abs(leak - want) / abs(want), DC_TOL, f"{key}/k={k}")
        p.output = ("\n".join(lines) + "\n").encode()


def load_refs(name: str) -> dict:
    with open(REFS / f"{name}.json") as fh:
        return json.load(fh)
