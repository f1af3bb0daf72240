"""Regenerate the references the benchmark checks its output against.

    python3 perfbench/make_refs.py {bench_six,sweep_vin,dc_corners}

Each file is regenerated whole and covers every input any seed can draw:
the six topologies, all 29 points of the sweep lattice (from the default
linspace and the eight shifted sweeps), and all 625 grid corners.

Expected statuses and the exit code come from the CLI itself at the default
10 ps grid; figures come from `characterize` at 2.5 ps (transient) or from
static-power solves with tight SolveOptions (DC).  Each file records the
command, grid, tolerances, and the commit and source digest that made it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import boot

REF_TSTEP, REF_TSTOP = 2.5e-12, 300e-9


def dump(path: Path, obj: dict) -> None:
    """JSON with one line per entry of each top-level table, so that
    regenerated files diff by entry."""
    parts = []
    for k, v in obj.items():
        if isinstance(v, dict) and v and all(isinstance(x, (dict, list)) for x in v.values()):
            body = ",\n".join(f"  {json.dumps(kk)}: {json.dumps(vv)}"
                              for kk, vv in v.items())
            parts.append(f" {json.dumps(k)}: {{\n{body}\n }}")
        else:
            parts.append(f" {json.dumps(k)}: {json.dumps(v)}")
    path.write_text("{\n" + ",\n".join(parts) + "\n}\n")


def meta(argv: list, **extra) -> dict:
    import envinfo
    import workloads as wl
    return {
        "command": " ".join(["python3", "perfbench/make_refs.py"] + argv),
        "commit": envinfo.git_commit(),
        "src_sha256": envinfo.src_digest(),
        "tolerances": {"resolution": wl.RESOLUTION, "transient": wl.TRAN_TOL,
                       "dc": wl.DC_TOL},
        **extra,
    }


def characterize_figures(topo: str, params=None) -> dict:
    """2.5 ps figures in the CLI's CSV columns (reduction_ratio added by the
    caller for stacked rows)."""
    from lsbench import measure, netlist, topologies
    rep = measure.characterize(netlist.elaborate(topologies.gen(topo, params)),
                               tstep=REF_TSTEP, tstop=REF_TSTOP)
    return {
        "power_avg_w": rep.power_avg,
        "power_static_avg_w": 0.5 * (rep.power_static_lo + rep.power_static_hi),
        "delay_max_s": rep.delay_max,
        "swing_hi_v": rep.swing_hi,
        "swing_lo_v": rep.swing_lo,
    }


def cli_rows(workload: str, argv: list, out: Path) -> tuple:
    import workloads as wl
    from lsbench import cli
    rc = cli.main(argv)
    rows = wl.read_rows(out.read_bytes())
    out.unlink()
    return rc, {wl.row_key(workload, r): r for r in rows}


def make_bench_six(argv: list) -> dict:
    import workloads as wl
    boot.OUT.mkdir(exist_ok=True)
    out = boot.OUT / f"ref-{os.getpid()}.csv"
    rc, rows = cli_rows("bench_six", wl.bench_argv(out), out)
    points = {}
    for topo, row in rows.items():
        entry = {"status": row["status"]}
        if row["status"] == "ok":
            t0 = time.perf_counter()
            entry["figures"] = characterize_figures(topo)
            print(f"{topo}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        points[topo] = entry
    for topo, entry in points.items():
        base = points.get(topo.removesuffix("_stacked"))
        if topo.endswith("_stacked") and "figures" in entry and "figures" in (base or {}):
            entry["figures"]["reduction_ratio"] = (base["figures"]["power_avg_w"]
                                                   / entry["figures"]["power_avg_w"])
    return {"meta": meta(argv, grid={"tstep": REF_TSTEP, "tstop": REF_TSTOP},
                         status_command="lsbench " + " ".join(wl.bench_argv(Path("<out>")))),
            "exit_code": rc, "points": points}


def make_sweep_vin(argv: list) -> dict:
    import workloads as wl
    from lsbench.topologies import TopoParams
    # the default linspace plus every shifted sweep
    bounds = {wl.sweep_bounds(wl.DEFAULT_SEED)}
    bounds.update(wl.shifted_bounds(j) for j in range(wl.SWEEP_STEPS))
    boot.OUT.mkdir(exist_ok=True)
    exit_code, points = None, {}
    for lo, hi in sorted(bounds):
        out = boot.OUT / f"ref-{os.getpid()}.csv"
        argv_cli = ["sweep", wl.SWEEP_TOPOLOGY, "--param", "vin_hi", "--from", repr(lo),
                    "--to", repr(hi), "--steps", str(wl.SWEEP_STEPS), "-o", str(out)]
        rc, rows = cli_rows("sweep_vin", argv_cli, out)
        if exit_code is not None and rc != exit_code:
            sys.exit(f"sweep {lo}..{hi} exited {rc}, others exited {exit_code}")
        exit_code = rc
        for key, row in rows.items():
            if key in points and points[key]["status"] != row["status"]:
                sys.exit(f"lattice point {key}: status differs between sweeps")
            points[key] = {"vin_hi": wl.VIN_FROM + int(key) * wl.LATTICE_STEP,
                           "status": row["status"]}
    points = dict(sorted(points.items(), key=lambda kv: int(kv[0])))
    for entry in points.values():
        if entry["status"] == "ok":
            t0 = time.perf_counter()
            entry["figures"] = characterize_figures(
                wl.SWEEP_TOPOLOGY, TopoParams(vin_hi=entry["vin_hi"]))
            print(f"vin_hi={entry['vin_hi']:.4f}: {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr)
    return {"meta": meta(argv, grid={"tstep": REF_TSTEP, "tstop": REF_TSTOP},
                         lattice={"from": wl.VIN_FROM, "to": wl.VIN_TO,
                                  "intervals": wl.LATTICE_DIV}),
            "exit_code": exit_code, "points": points}


def pinned_static_power(circ, state: str, opts, x0=None) -> tuple:
    """measure.static_power, restated so a solve can be warm-started:
    returns (power, solution vector)."""
    from dataclasses import replace
    from lsbench import engine
    from lsbench.devmodel import SourceWave
    pinned = replace(circ, sources=[
        replace(s, wave=SourceWave("dc", s.wave.v1 if state == "lo" else s.wave.v2))
        if s.wave.kind == "pulse" else s for s in circ.sources])
    op = engine.dc_operating_point(pinned, opts, x0=x0)
    v = op.state.v
    total = 0.0
    for k, s in enumerate(pinned.sources):
        vs = (v[s.p] if s.p >= 0 else 0.0) - (v[s.m] if s.m >= 0 else 0.0)
        total += vs * (-float(op.state.i_branch[k]))
    return total - engine.GMIN_DEFAULT * float(v @ v), op.state.as_vector()


def static_by_continuation(topo: str, key: str, opts, steps: int = 20) -> list:
    """Tight static powers at a corner where the program's own DC homotopy
    fails: walk the process parameters from nominal to the corner, each
    solve warm-started from the previous one."""
    import workloads as wl
    from lsbench import netlist, topologies
    z = [int(ch) - 2 for ch in key]
    doc = netlist.parse_netlist(netlist.serialize_netlist(topologies.gen(topo)))
    out = []
    for state in ("lo", "hi"):
        x = None
        for i in range(steps + 1):
            models = netlist.parse_seed_models(wl.corner_models([zi * i / steps for zi in z]))
            power, x = pinned_static_power(
                netlist.elaborate(doc, base_models=models), state, opts, x)
        out.append(power)
    return out


def make_dc_corners(argv: list) -> dict:
    import workloads as wl
    from lsbench import engine, netlist, topologies
    static, leakage, errors = {}, {}, {}
    opts = engine.SolveOptions(**wl.REF_DC_OPTS)
    for key in wl.all_corner_keys():
        text = wl.corner_text(key)
        static[key], failing = {}, []
        for topo in topologies.TOPOLOGY_IDS:
            try:
                wl.corner_static(topo, text)
            except engine.SolverError:
                failing.append(topo)
            try:
                static[key][topo] = list(wl.corner_static(topo, text, opts))
            except engine.SolverError:
                static[key][topo] = static_by_continuation(topo, key, opts)
                print(f"{key}/{topo}: reference by continuation", file=sys.stderr)
        if failing:
            errors[key] = failing
            print(f"{key}: default DC fails on {failing}", file=sys.stderr)
        if key[:2] not in leakage:  # the fixture depends on the NCH digits only
            nmos = netlist.parse_seed_models(text)["nmos"]
            leakage[key[:2]] = [wl.fixture_leakage(nmos, k, opts) for k in wl.FIXTURE_KS]
    return {"meta": meta(argv, dc_options=wl.REF_DC_OPTS,
                         continuation_steps=20,
                         fixture={"w_total": wl.FIXTURE_W, "vdd": wl.FIXTURE_VDD,
                                  "k": list(wl.FIXTURE_KS)}),
            "solver_errors": errors, "static": static, "leakage": leakage}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("bench_six", "sweep_vin", "dc_corners"))
    args = ap.parse_args(argv)
    boot.setup()
    import workloads as wl
    if args.workload == "bench_six":
        refs = make_bench_six(argv)
    elif args.workload == "sweep_vin":
        refs = make_sweep_vin(argv)
    else:
        refs = make_dc_corners(argv)
    wl.REFS.mkdir(exist_ok=True)
    dump(wl.REFS / f"{args.workload}.json", refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
