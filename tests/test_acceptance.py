"""End-to-end acceptance gate.

Each test verifies one shipped guarantee and prints a single PASS/FAIL line
(visible with `pytest -s`).  The guarantees:

 1. all six built-in topologies shift a 1.6 V pulse to a full 3.3 V swing,
    characterized in under 30 s total
 2. every stacked variant consumes less average and less static power than
    its baseline
 3. stacking never speeds the circuit up (delay_max within 1%, or slower)
 4. the leakage fixture orders supply current 1-stack > 2-stack > 3-stack,
    with the middle node matching an independent bisection to 1 uV
 5. analytic conductances match central differences at 1e-4 over the bias
    box, and the subthreshold slope matches 1/(n VT ln 10) within 5%
 6. integrator ground truths: RC delay, divider voltage, per-step KCL
    residuals, and switching power just above f C Vdd^2
 7. the generic stack transform reproduces the shipped stacked variants
    waveform-for-waveform
 8. `lsbench bench all --format csv` is byte-deterministic and fast (run in
    a child process as `python -m lsbench`, so no install is needed)

Beside them, every figure of the six reports must sit within 1e-3 of a
2.5 ps-grid reference, which bounds the time-discretization error.
"""

import json
import math
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

import refmodel as rm
from lsbench import cli
from lsbench.devmodel import VT, MosBias, default_params, effective_vth, mosfet_eval
from lsbench.engine import dc_operating_point, transient
from lsbench.measure import average_power, characterize, static_power
from lsbench.netlist import MosCard, elaborate, parse_netlist
from lsbench.topologies import (TOPOLOGY_IDS, StackSpec, TopoParams,
                                apply_stack, gen, stack_leakage_fixture)

VDDH = 3.3


def _verdict(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def six_runs():
    """topology -> (circuit, waveforms, report), plus the total wall time."""
    t0 = time.perf_counter()
    out = {}
    for topo in TOPOLOGY_IDS:
        circ = elaborate(gen(topo))
        waves = transient(circ, circ.tran.tstep, circ.tran.tstop)
        out[topo] = (circ, waves, characterize(circ, waves=waves))
    return out, time.perf_counter() - t0


# solved steps per topology at the default 10 ps / 300 ns grid and the
# 4e-5 V step target, 13,016 in all (16,289 at 1e-5 V): any change to the
# step control that moves a step shows here, not only in the bench output's
# sha256
STEPS = {"cls": 1892, "cls_stacked": 2377, "ssls": 1215, "ssls_stacked": 1954,
         "cmls": 2524, "cmls_stacked": 3054}


def test_step_sequence_pinned(six_runs):
    runs, _ = six_runs
    assert {t: len(w.solved) - 1 for t, (_, w, _) in runs.items()} == STEPS


PAIRS = (("cls", "cls_stacked"), ("ssls", "ssls_stacked"), ("cmls", "cmls_stacked"))

# The six reports at the default 300 ns window on a 2.5 ps grid (4x finer
# than the shipped 10 ps), from perfbench/refs/bench_six.json at commit
# 55ff20f: power_avg, static power (mean of lo and hi), delay_max,
# swing_hi, swing_lo.
FINE_GRID_REFS = {
    "cls": (5.602011601627097e-05, 6.087430834265452e-10, 1.6044099112640979e-09,
            3.2999999810475154, 1.551725171268636e-13),
    "cls_stacked": (4.258313958649925e-05, 5.806049988071261e-10, 1.8392999277581387e-09,
                    3.299998375602988, 6.87670940497005e-13),
    "ssls": (0.00015824415129012063, 0.00015525058667865166, 6.031156445340138e-10,
             3.299999981047515, 1.5532122533861486e-13),
    "ssls_stacked": (0.00015281759465089905, 0.00015147906939932636, 9.334635574119392e-10,
                     3.299998397295173, 1.0822499687986701e-12),
    "cmls": (1.0378103613586916e-05, 6.087430829771594e-10, 7.796597601221174e-10,
             3.299999981047513, 1.552007839600877e-13),
    "cmls_stacked": (9.852234529861323e-06, 5.512979745744398e-10, 1.0716022619984378e-09,
                     3.2999984252578796, 8.668657528290149e-10),
}


def test_criterion_1_full_swing_all_topologies(six_runs):
    runs, elapsed = six_runs
    bad = [t for t, (_, _, r) in runs.items()
           if not (r.swing_hi >= 0.99 * VDDH and r.swing_lo <= 0.01 * VDDH)]
    ok = not bad and elapsed < 30.0
    worst_hi = min(r.swing_hi for _, _, r in runs.values())
    worst_lo = max(r.swing_lo for _, _, r in runs.values())
    _verdict(1, ok,
             f"six topologies swing {worst_lo:.4f}..{worst_hi:.4f} V "
             f"(need <={0.01 * VDDH:.3f} / >={0.99 * VDDH:.3f}) in {elapsed:.1f} s"
             + (f"; failing: {bad}" if bad else ""))


def test_criterion_2_stacking_cuts_power(six_runs):
    runs, _ = six_runs
    details, ok = [], True
    for base, stacked in PAIRS:
        rb, rs = runs[base][2], runs[stacked][2]
        sb = 0.5 * (rb.power_static_lo + rb.power_static_hi)
        ss = 0.5 * (rs.power_static_lo + rs.power_static_hi)
        ok &= rs.power_avg < rb.power_avg and ss < sb
        details.append(f"{base} avg x{rb.power_avg / rs.power_avg:.3f} "
                       f"static x{sb / ss:.3f}")
    _verdict(2, ok, "stacked < baseline for average and static power: "
             + ", ".join(details))


def test_criterion_3_stacking_never_faster(six_runs):
    runs, _ = six_runs
    details, ok = [], True
    for base, stacked in PAIRS:
        rb, rs = runs[base][2], runs[stacked][2]
        ok &= rs.delay_max >= 0.99 * rb.delay_max
        details.append(f"{base} x{rs.delay_max / rb.delay_max:.3f}")
    _verdict(3, ok, "delay_max(stacked)/delay_max(baseline): " + ", ".join(details))


def test_figures_match_fine_grid_reference(six_runs):
    # bounds the time-discretization error of every reported figure: powers
    # relative to themselves, delay relative to the reference delay_max,
    # swings relative to vddh.  The fixed 10 ps trapezoidal grid read 6.96e-4
    # at worst (cls_stacked power_avg), the step control at a 1e-5 V target
    # 6.942e-4 and at 4e-5 V 6.644e-4 (both cls_stacked power_avg).  A step
    # control change may not spend the margin below the 1e-5 V worst.
    runs, _ = six_runs
    worst, where = 0.0, ""
    for topo, (p_avg, p_static, d_max, s_hi, s_lo) in FINE_GRID_REFS.items():
        r = runs[topo][2]
        static = 0.5 * (r.power_static_lo + r.power_static_hi)
        errs = {
            "power_avg": abs(r.power_avg - p_avg) / p_avg,
            "power_static": abs(static - p_static) / p_static,
            "delay_max": abs(r.delay_max - d_max) / d_max,
            "swing_hi": abs(r.swing_hi - s_hi) / VDDH,
            "swing_lo": abs(r.swing_lo - s_lo) / VDDH,
        }
        for name, e in errs.items():
            if not e <= worst:
                worst, where = e, f"{topo} {name}"
    assert worst <= 1e-3, f"{where} is {worst:.3e} from its 2.5 ps reference"
    assert worst <= 6.942e-4, f"{where} is {worst:.3e} from its 2.5 ps reference"


def test_criterion_4_stack_leakage_fixture():
    nmos = default_params("nmos")
    leak, vms = {}, {}
    for k in (1, 2, 3):
        circ = elaborate(stack_leakage_fixture(k, 1e-6, nmos, VDDH))
        op = dc_operating_point(circ)
        leak[k] = -float(op.state.i_branch[0])
        if k == 2:
            vms[k] = float(op.state.v[circ.node_index["mx1_m1"]])
    ref_vm = rm.stack_vm(rm.RET_NMOS, VDDH, 0.5e-6, gmin=rm.GMIN)
    vm_err = abs(vms[2] - ref_vm)
    ok = (leak[2] < leak[1] and leak[3] < leak[2]
          and 0.0 < vms[2] < 0.3 and vm_err < 1e-6)
    _verdict(4, ok,
             f"leakage {leak[1]:.3e} > {leak[2]:.3e} > {leak[3]:.3e} A, "
             f"vm={vms[2]:.6f} V within {vm_err:.1e} V of bisection")


def test_criterion_5_model_derivatives_and_slope():
    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    for p in (default_params("nmos"), default_params("pmos")):
        for _ in range(500):
            vgs, vds = rng.uniform(0.0, 3.6, size=2)
            vsb = rng.uniform(0.0, 1.0)
            ev = mosfet_eval(p, MosBias(vgs, vds, vsb), 1e-6, 0.35e-6)

            def fd(dg=0.0, dd=0.0, db=0.0):
                a = mosfet_eval(p, MosBias(vgs + dg, vds + dd, vsb + db),
                                1e-6, 0.35e-6).id
                b = mosfet_eval(p, MosBias(vgs - dg, vds - dd, vsb - db),
                                1e-6, 0.35e-6).id
                return (a - b) / (2 * h)

            for got, want in ((ev.gm, fd(dg=h)), (ev.gds, fd(dd=h)),
                              (ev.gmb, -fd(db=h))):
                worst = max(worst, abs(got - want) / max(abs(want), 1e-15))

    p = default_params("nmos")
    vte = effective_vth(p, vds=1.0)
    vg = np.linspace(vte - 0.4, vte - 0.2, 41)
    logi = np.log10([mosfet_eval(p, MosBias(v, 1.0), 1e-6, 0.35e-6).id for v in vg])
    slope = float(np.polyfit(vg, logi, 1)[0])
    want_slope = 1.0 / (p.n_slope * VT * math.log(10.0))
    slope_err = abs(slope - want_slope) / want_slope
    ok = worst < 1e-4 and slope_err < 0.05
    _verdict(5, ok, f"1000-point derivative check worst rel err {worst:.2e} "
             f"(<1e-4), subthreshold slope off by {slope_err * 100:.2f}% (<5%)")


def test_criterion_6_integrator_ground_truths(rc_delay_run, inverter_power_run):
    from lsbench.measure import propagation_delay

    rc_circ, rc_waves = rc_delay_run
    d = propagation_delay(rc_waves.node_v["in"], rc_waves.node_v["out"], rc_waves.t)
    rc_ln2 = 1e3 * 1e-12 * math.log(2.0)
    delay_err = max(abs(d["delay_rise"] - rc_ln2), abs(d["delay_fall"] - rc_ln2)) / rc_ln2

    div = elaborate(parse_netlist(
        "divider\nV1 in 0 DC 5\nR1 in out 1k\nR2 out 0 1k\n.end\n"))
    vout = dc_operating_point(div).state.v[div.node_index["out"]]
    div_err = abs(vout - 2.5)

    inv_circ, inv_waves = inverter_power_run
    kcl = max(float(rc_waves.resid_max.max()), float(inv_waves.resid_max.max()))

    floor = 1e7 * 10e-15 * VDDH**2
    pavg = average_power(inv_waves, (100e-9, 300e-9))

    ok = (delay_err < 0.02 and div_err < 1e-6 and kcl < 1e-9
          and floor <= pavg <= 1.15 * floor)
    _verdict(6, ok,
             f"RC delay err {delay_err * 100:.3f}% (<2%), divider err "
             f"{div_err:.1e} V (<1e-6), KCL residual {kcl:.1e} A (<1e-9), "
             f"switching power {pavg * 1e6:.4f} uW in "
             f"[{floor * 1e6:.4f}, {1.15 * floor * 1e6:.4f}] uW")


def test_criterion_7_transform_matches_shipped_variants(six_runs):
    runs, _ = six_runs
    p = TopoParams()
    specs = {
        "cls": StackSpec(("MNA", "MNB", "MN3"), 2),
        "ssls": StackSpec(("MN2", "MN3"), 2),
        "cmls": StackSpec(("MN3", "MN4", "MN5"), 2),
    }
    worst = 0.0
    for base, stacked in PAIRS:
        doc = gen(base, p)
        if base == "ssls":
            from dataclasses import replace
            doc = replace(doc, devices=tuple(
                replace(c, w=p.w_n_stacked)
                if isinstance(c, MosCard) and c.name == "MN1" else c
                for c in doc.devices))
        circ = elaborate(apply_stack(doc, specs[base]))
        waves = transient(circ, circ.tran.tstep, circ.tran.tstop)
        ref = runs[stacked][1]
        assert set(waves.node_v) == set(ref.node_v)
        for name, arr in waves.node_v.items():
            worst = max(worst, float(np.max(np.abs(arr - ref.node_v[name]))))
    ok = worst < 1e-6
    _verdict(7, ok, f"apply_stack waveforms match shipped stacked variants "
             f"within {worst:.1e} V (<1e-6)")


def test_bench_rows_equal_lone_runs(six_runs, tmp_path):
    # `bench all` characterizes the six topologies as one batch; its rows
    # must equal, float for float, the rows made from lone transients and
    # reports, whose static powers equal lone static_power solves
    runs, _ = six_runs
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "all", "--format", "json", "-o", str(out)]) == 0
    got = json.loads(out.read_text())["rows"]
    want = {}
    for topo, (circ, _, rep) in runs.items():
        assert rep.power_static_lo == static_power(circ, "lo")
        assert rep.power_static_hi == static_power(circ, "hi")
        want[topo] = row = cli.BenchRow(topo)
        cli._fill_row(row, rep, VDDH)
    for base, stacked in PAIRS:
        want[stacked].reduction_ratio = want[base].power_avg / want[stacked].power_avg
    assert [r["topology"] for r in got] == list(TOPOLOGY_IDS)
    for r in got:
        assert r == dict(zip(cli._BENCH_COLUMNS, astuple(want[r["topology"]])))


def test_criterion_8_bench_deterministic(tmp_path, run_lsbench):
    f1, f2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    times = []
    for f in (f1, f2):
        t0 = time.perf_counter()
        res = run_lsbench("bench", "all", "--format", "csv", "-o", str(f))
        times.append(time.perf_counter() - t0)
        assert res.returncode == 0, res.stderr
    same = f1.read_bytes() == f2.read_bytes()
    ok = same and max(times) < 60.0
    _verdict(8, ok, f"bench all byte-identical across runs={same}, "
             f"slowest run {max(times):.1f} s (<60 s)")
