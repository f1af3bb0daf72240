"""Command line front end.

Subcommands:
    gen    write a generated level-shifter netlist
    run    simulate a netlist, write waveform CSV and (when the circuit has a
           recognizable stimulus/output) a measurement report JSON
    bench  characterize built-in topologies and compare stacked pairs
    sweep  re-characterize one topology across a parameter range

Exit codes: 0 success, 2 usage or netlist error, 3 solver failure,
4 measurement failure, 1 partial bench/sweep failure (failed rows are still
emitted, carrying the diagnostic inline).

The env var LS_SEED_MODEL may name a .model-only file whose cards replace the
built-in default device parameters for every command.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import astuple, dataclass, replace

import numpy as np

from .engine import SolverError, Waveforms, transient
from .measure import MeasureError, Report, characterize, characterize_many
from .netlist import (ElaborationError, ParseError, elaborate, parse_netlist,
                      parse_seed_models, parse_value, serialize_netlist)
from .topologies import TOPOLOGY_IDS, TopoParams, gen, validate_params

EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_MEASURE = 4


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# shared helpers

_PARAM_FLAGS = ("vddh", "vddl", "vin_hi", "l", "w_p", "w_n", "w_n_stacked", "cload")

_SINGLE_SUPPLY = ("ssls", "ssls_stacked")


def _seed_models():
    path = os.environ.get("LS_SEED_MODEL")
    if not path:
        return None
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read LS_SEED_MODEL file: {e}") from None
    try:
        return parse_seed_models(text)
    except ParseError as e:
        raise UsageError(f"LS_SEED_MODEL file {path}: {e}") from None


def _topo_params(args) -> TopoParams:
    kw = {f: getattr(args, f) for f in _PARAM_FLAGS if getattr(args, f, None) is not None}
    return TopoParams(**kw)


_ENG_SCALES = ((1e-15, "f"), (1e-12, "p"), (1e-9, "n"), (1e-6, "u"),
               (1e-3, "m"), (1.0, ""), (1e3, "k"), (1e6, "M"), (1e9, "G"))


def _eng(x: float, unit: str) -> str:
    """Auto-scaled engineering notation: 5.598e-05 W -> '55.98 uW'."""
    if x == 0.0 or not math.isfinite(x):
        return f"{x:g} {unit}"
    scale, suffix = _ENG_SCALES[0]
    for s, suf in _ENG_SCALES:
        if abs(x) >= s * (1.0 - 1e-9):
            scale, suffix = s, suf
    return f"{x / scale:.4g} {suffix}{unit}"


def _csv_num(x) -> str:
    return "" if x is None else repr(float(x))


def _out_stream(path):
    """The file at `path`, or stdout (left open) when no path is given."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


# ---------------------------------------------------------------------------
# gen

def cmd_gen(args) -> int:
    if args.topology not in TOPOLOGY_IDS:
        raise UsageError(
            f"unknown topology {args.topology!r} (valid: {', '.join(TOPOLOGY_IDS)})"
        )
    if args.vddl is not None and args.topology in _SINGLE_SUPPLY:
        print(f"warning: {args.topology} is single-supply; --vddl has no effect",
              file=sys.stderr)
    text = serialize_netlist(gen(args.topology, _topo_params(args)))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# run

def _write_waveform_csv(path: str, waves: Waveforms) -> None:
    nodes = list(waves.node_v)
    srcs = list(waves.supply_i)
    cols = [waves.t] + [waves.node_v[n] for n in nodes] + [waves.supply_i[s] for s in srcs]
    with open(path, "w") as fh:
        fh.write(",".join(["time"] + nodes + [f"i({s})" for s in srcs]) + "\n")
        np.savetxt(fh, np.column_stack(cols), fmt="%.8e", delimiter=",")


def _report_dict(rep: Report) -> dict:
    return {
        "circuit": rep.circuit_name,
        "power_avg_w": rep.power_avg,
        "power_static_lo_w": rep.power_static_lo,
        "power_static_hi_w": rep.power_static_hi,
        "delay_rise_s": rep.delay_rise,
        "delay_fall_s": rep.delay_fall,
        "delay_max_s": rep.delay_max,
        "swing_hi_v": rep.swing_hi,
        "swing_lo_v": rep.swing_lo,
    }


def cmd_run(args) -> int:
    seed = _seed_models()
    with open(args.netlist) as fh:
        doc = parse_netlist(fh.read())
    circ = elaborate(doc, base_models=seed)
    tstep = args.tstep if args.tstep is not None else (doc.tran.tstep if doc.tran else None)
    tstop = args.tstop if args.tstop is not None else (doc.tran.tstop if doc.tran else None)
    if tstep is None or tstop is None:
        raise UsageError("netlist has no .tran directive; give --tstep and --tstop")

    waves = transient(circ, tstep, tstop)
    stem = os.path.splitext(args.netlist)[0]
    out_csv = args.out_csv or stem + ".csv"
    _write_waveform_csv(out_csv, waves)
    print(f"wrote {out_csv}")

    explicit = args.in_node is not None or args.out_node is not None
    in_node = args.in_node or ("in" if "in" in circ.node_index else None)
    out_node = args.out_node or ("out" if "out" in circ.node_index else None)
    has_stimulus = any(s.wave.kind == "pulse" for s in circ.sources)
    if in_node and out_node and (has_stimulus or explicit):
        rep = characterize(circ, in_node=in_node, out_node=out_node, waves=waves)
        _warn_negative_delays(args.netlist, rep)
        report_path = args.report_json or stem + ".report.json"
        with open(report_path, "w") as fh:
            json.dump(_report_dict(rep), fh, indent=2)
            fh.write("\n")
        print(f"wrote {report_path}")
    return 0


# ---------------------------------------------------------------------------
# bench

@dataclass
class BenchRow:
    """One bench or sweep row, its fields in `_BENCH_COLUMNS` order: the CSV
    and JSON rows are built from `astuple`."""
    topology: str
    power_avg: float | None = None
    power_static_avg: float | None = None
    delay_max: float | None = None
    swing_hi: float | None = None
    swing_lo: float | None = None
    reduction_ratio: float | None = None
    status: str = "ok"
    note: str = ""


_BENCH_COLUMNS = ("topology", "power_avg_w", "power_static_avg_w", "delay_max_s",
                  "swing_hi_v", "swing_lo_v", "reduction_ratio", "status", "note")


def _classify(rep: Report, vddh: float) -> tuple[str, str]:
    """(status, note) of a characterized shifter: "ok" only when its output
    swings past the 1% and 99% marks of vddh, else "non-functional"."""
    if rep.swing_hi >= 0.99 * vddh and rep.swing_lo <= 0.01 * vddh:
        return "ok", ""
    return "non-functional", (f"swing {rep.swing_lo:.4g}/{rep.swing_hi:.4g} V misses "
                              f"the 1%/99% marks of vddh={vddh:g} V")


def _fill_row(row: BenchRow, rep, vddh: float) -> None:
    """Fill a bench or sweep row from a characterization: its Report,
    classified, or the error it failed with, which makes the row
    "non-functional" for a MeasureError (the circuit simulates but gives no
    measurable output) and "failed" otherwise."""
    if isinstance(rep, Exception):
        failed = not isinstance(rep, MeasureError)
        row.status, row.note = "failed" if failed else "non-functional", str(rep)
        return
    row.power_avg = rep.power_avg
    row.power_static_avg = 0.5 * (rep.power_static_lo + rep.power_static_hi)
    row.delay_max = rep.delay_max
    row.swing_hi, row.swing_lo = rep.swing_hi, rep.swing_lo
    row.status, row.note = _classify(rep, vddh)


def _warn_negative_delays(name: str, rep) -> None:
    """One stderr line per negative delay of a Report, whose output crossed
    its mid-swing before the input did (an error in its place has none)."""
    for key in ("delay_rise", "delay_fall"):
        d = getattr(rep, key, 0.0)
        if d < 0.0:
            print(f"warning: {name}: {key} is {_eng(d, 's')} (output before input)",
                  file=sys.stderr)


def _bench_rows(topologies, seed) -> list:
    """The rows of `topologies`, characterized as one batch."""
    rows = {t: BenchRow(t) for t in topologies}
    circs = {}
    for topo in topologies:
        try:
            circs[topo] = elaborate(gen(topo), base_models=seed)
        except ElaborationError as e:
            rows[topo].status, rows[topo].note = "failed", str(e)
    reps = characterize_many(circs.values())
    vddh = TopoParams().vddh
    for topo in circs:
        rep = next(reps)
        _warn_negative_delays(topo, rep)
        _fill_row(rows[topo], rep, vddh)
    for topo in topologies:
        base = topo[:-len("_stacked")] if topo.endswith("_stacked") else None
        if base in rows and rows[base].status == "ok" and rows[topo].status == "ok":
            rows[topo].reduction_ratio = rows[base].power_avg / rows[topo].power_avg
    return [rows[t] for t in topologies]


def _bench_pairs(rows) -> list:
    by_id = {r.topology: r for r in rows}
    pairs = []
    for base in ("cls", "ssls", "cmls"):
        rb, rs = by_id.get(base), by_id.get(base + "_stacked")
        if rb and rs and rb.status == "ok" and rs.status == "ok":
            pairs.append({
                "baseline": base,
                "stacked": base + "_stacked",
                "reduction_ratio": rs.reduction_ratio,
                "static_ratio": rb.power_static_avg / rs.power_static_avg,
                "delay_ratio": rs.delay_max / rb.delay_max,
                "power_reduced": rs.power_avg < rb.power_avg,
                "delay_increased": rs.delay_max >= rb.delay_max,
            })
    return pairs


def _row_cells(r: BenchRow) -> list:
    topology, *nums, status, note = astuple(r)
    return [topology, *map(_csv_num, nums), status, note]


def _emit_bench_csv(fh, rows) -> None:
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(_BENCH_COLUMNS)
    for r in rows:
        w.writerow(_row_cells(r))


def _emit_bench_json(fh, rows, pairs) -> None:
    payload = {
        "rows": [dict(zip(_BENCH_COLUMNS, astuple(r))) for r in rows],
        "pairs": pairs,
    }
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def _emit_bench_table(fh, rows, pairs) -> None:
    fh.write(f"{'topology':<14}{'status':<8}{'power_avg':>11}{'static_avg':>12}"
             f"{'delay_max':>11}{'swing_hi':>10}{'swing_lo':>10}{'reduction':>11}\n")
    for r in rows:
        if r.status != "ok":
            fh.write(f"{r.topology:<14}{r.status:<8}{r.note}\n")
            continue
        red = f"{r.reduction_ratio:.3f}x" if r.reduction_ratio is not None else "-"
        fh.write(f"{r.topology:<14}{r.status:<8}{_eng(r.power_avg, 'W'):>11}"
                 f"{_eng(r.power_static_avg, 'W'):>12}{_eng(r.delay_max, 's'):>11}"
                 f"{r.swing_hi:>9.3f}V{r.swing_lo:>9.4f}V{red:>11}\n")
    if pairs:
        fh.write("\n")
    for p in pairs:
        fh.write(f"{p['baseline']}/{p['stacked']}: power reduced "
                 f"{'yes' if p['power_reduced'] else 'NO'} "
                 f"({p['reduction_ratio']:.3f}x, static {p['static_ratio']:.3f}x), "
                 f"delay increased {'yes' if p['delay_increased'] else 'no'} "
                 f"({p['delay_ratio']:.3f}x)\n")
    if pairs:
        fh.write("ratios > 1 mean the stacked variant wins on power / loses on delay\n")


def cmd_bench(args) -> int:
    requested = args.topologies
    bad = [t for t in requested if t not in TOPOLOGY_IDS and t != "all"]
    if bad:
        raise UsageError(f"unknown topology {bad[0]!r} (valid: all, {', '.join(TOPOLOGY_IDS)})")
    topologies = [t for t in TOPOLOGY_IDS if t in requested or "all" in requested]
    seed = _seed_models()
    rows = _bench_rows(topologies, seed)
    pairs = _bench_pairs(rows)
    with _out_stream(args.out) as fh:
        if args.format == "csv":
            _emit_bench_csv(fh, rows)
        elif args.format == "json":
            _emit_bench_json(fh, rows, pairs)
        else:
            _emit_bench_table(fh, rows, pairs)
    return 1 if any(r.status != "ok" for r in rows) else 0


# ---------------------------------------------------------------------------
# sweep

_SWEEP_PARAMS = ("vddh", "vddl", "vin_hi", "cload", "w_n_stacked")

_SWEEP_COLUMNS = ("topology", "param", "value") + _BENCH_COLUMNS[1:]
# points characterized as one batch: each point holds its solved states
# until its transient ends, so the batch size bounds a sweep's memory
_SWEEP_BATCH = 8
# points per sweep, checked before anything is allocated: every elaborated
# point is held until the rows are written
_SWEEP_MAX_STEPS = 10_000


def cmd_sweep(args) -> int:
    topo = args.topology
    if topo not in TOPOLOGY_IDS:
        raise UsageError(f"unknown topology {topo!r} (valid: {', '.join(TOPOLOGY_IDS)})")
    param = args.param
    if param == "vddl" and topo in _SINGLE_SUPPLY:
        raise UsageError(f"vddl is not a parameter of {topo}: single-supply topology")
    if param == "w_n_stacked" and not topo.endswith("_stacked"):
        raise UsageError(f"w_n_stacked has no effect on {topo}")
    if not args.sweep_from < args.sweep_to:
        raise UsageError("--from must be less than --to")
    if not 2 <= args.steps <= _SWEEP_MAX_STEPS:
        raise UsageError(f"--steps must be at least 2 and at most {_SWEEP_MAX_STEPS:,}")

    seed = _seed_models()
    rows, points = [], []  # points: (row, params, circuit) of the valid values
    for v in np.linspace(args.sweep_from, args.sweep_to, args.steps):
        v = float(v)
        p = replace(TopoParams(), **{param: v})
        row = BenchRow(topo)
        rows.append((v, row))
        try:
            validate_params(p)
        except ValueError as e:
            row.status, row.note = "invalid", str(e)
            continue
        points.append((row, p, elaborate(gen(topo, p), base_models=seed)))

    for lo in range(0, len(points), _SWEEP_BATCH):
        batch = points[lo:lo + _SWEEP_BATCH]
        reps = characterize_many([c for _, _, c in batch])
        for row, p, _ in batch:
            rep = next(reps)
            _warn_negative_delays(f"{topo} {param}={getattr(p, param)!r}", rep)
            _fill_row(row, rep, p.vddh)

    with _out_stream(args.out) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_SWEEP_COLUMNS)
        for v, r in rows:
            w.writerow([topo, param, repr(v)] + _row_cells(r)[1:])
    return 1 if any(r.status == "failed" for _, r in rows) else 0


# ---------------------------------------------------------------------------
# parser / entry point

def _add_param_flags(sp) -> None:
    helps = {
        "vddh": "high supply rail (V)",
        "vddl": "low supply rail (V)",
        "vin_hi": "input pulse high level (V)",
        "l": "channel length (m)",
        "w_p": "PMOS width (m)",
        "w_n": "NMOS width (m)",
        "w_n_stacked": "width of each series NMOS in stacked variants (m)",
        "cload": "output load capacitance (F)",
    }
    for f in _PARAM_FLAGS:
        sp.add_argument("--" + f.replace("_", "-"), dest=f, type=parse_value,
                        default=None, metavar="V", help=helps[f])


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lsbench",
        description="Level-shifter generation, simulation, and characterization.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a generated topology netlist")
    g.add_argument("topology", help=f"one of: {', '.join(TOPOLOGY_IDS)}")
    _add_param_flags(g)
    g.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="simulate a netlist")
    r.add_argument("netlist", help="netlist file")
    r.add_argument("--tstep", type=parse_value, default=None,
                   help="time step (overrides .tran)")
    r.add_argument("--tstop", type=parse_value, default=None,
                   help="stop time (overrides .tran)")
    r.add_argument("-o", "--out-csv", default=None,
                   help="waveform CSV path (default <netlist>.csv)")
    r.add_argument("--report-json", default=None,
                   help="report path (default <netlist>.report.json)")
    r.add_argument("--in-node", default=None, help="stimulus node for the report")
    r.add_argument("--out-node", default=None, help="output node for the report")
    r.set_defaults(func=cmd_run)

    b = sub.add_parser("bench", help="characterize built-in topologies")
    b.add_argument("topologies", nargs="*", default=["all"],
                   help="topology ids; 'all' (the default) adds every one")
    b.add_argument("--format", choices=("table", "json", "csv"), default="table")
    b.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("sweep", help="characterize one topology across a range")
    s.add_argument("topology", help=f"one of: {', '.join(TOPOLOGY_IDS)}")
    s.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    s.add_argument("--from", dest="sweep_from", type=parse_value, required=True,
                   metavar="A", help="range start")
    s.add_argument("--to", dest="sweep_to", type=parse_value, required=True,
                   metavar="B", help="range end")
    s.add_argument("--steps", type=int, required=True,
                   help=f"number of points (2 to {_SWEEP_MAX_STEPS:,})")
    s.add_argument("-o", "--out", default=None, help="output CSV (default stdout)")
    s.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # UsageError, ParseError, ElaborationError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except MeasureError as e:
        print(f"measurement error: {e}", file=sys.stderr)
        return EXIT_MEASURE


if __name__ == "__main__":
    sys.exit(main())
