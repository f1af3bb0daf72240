"""Self-check of the benchmark's tracing, on small inputs (about 20 s).

    python3 perfbench/selfcheck.py

Checks that
- a traced and an untraced pass write byte-identical workload output, for a
  CLI workload (`bench cls`) and for a few dc_corners corners;
- every wrapper is removed afterwards;
- the deterministic counts repeat exactly between two traced passes;
- wrapping a name that does not exist reports it as unmeasured instead of
  failing;
- the output check fails an operation, without crashing, when a figure
  cell is blank or NaN or a figure column is missing;
- the speed probe rescales a stretch to the reference speed, leaves its
  own time out, and restores the timer and the signal handler.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import math
import shutil
import sys

import boot

DETERMINISTIC = ("engine.tran_steps", "engine.compile_calls", "devmodel.eval_calls",
                 "engine.dc_newton_iters", "engine.solve_calls")


def small_workloads(workdir):
    import workloads as wl
    bench_refs = wl.load_refs("bench_six")
    bench = wl.Workload("bench_six", wl.DEFAULT_SEED,
                        dict(bench_refs, points={"cls": bench_refs["points"]["cls"]}),
                        workdir)
    bench.argv = ["bench", "cls", "--format", "csv", "-o", str(bench.out)]
    dc = wl.Workload("dc_corners", 1, wl.load_refs("dc_corners"), workdir)
    dc.corners = dc.corners[:3]
    return {"bench cls": bench, "dc_corners[:3]": dc}


def doctored(output: bytes, change) -> bytes:
    """The CSV `output` rewritten with the columns `change(fields, rows)`
    returns; `change` may also edit the rows."""
    rows = list(csv.DictReader(io.StringIO(output.decode())))
    fields = change(list(rows[0]), rows)
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue().encode()


def bad_output_cases(output: bytes):
    """(label, doctored output) pairs that must each fail the one `cls` row.
    The blanked and NaN cells sit after columns that still match."""
    def set_cell(col, value):
        def change(fields, rows):
            rows[0][col] = value
            return fields
        return change
    return [
        ("blank delay_max_s cell", doctored(output, set_cell("delay_max_s", ""))),
        ("nan swing_lo_v cell", doctored(output, set_cell("swing_lo_v", "nan"))),
        ("missing swing_hi_v column",
         doctored(output, lambda fields, rows: [f for f in fields if f != "swing_hi_v"])),
    ]


def main() -> int:
    boot.setup()
    import tracing
    import workloads as wl
    problems = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    workdir = boot.OUT / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for label, w in small_workloads(workdir).items():
            plain = w.run()
            counts = []
            for _ in range(2):
                tracer = tracing.Tracer()
                with tracer.installed():
                    traced = w.run()
                check(traced.output == plain.output and plain.output,
                      f"{label}: traced output is byte-identical to untraced")
                check(not tracing.leftovers(), f"{label}: every wrapper removed")
                check(not tracer.unmeasured, f"{label}: every traced name exists")
                check(plain.failed == traced.failed == 0,
                      f"{label}: outputs match the references")
                layer = tracer.per_layer()
                counts.append({k: layer[k] for k in DETERMINISTIC})
            check(counts[0] == counts[1], f"{label}: counts repeat exactly {counts[0]}")
            if label == "bench cls":
                check(layer["engine.tran_steps"] == 30000, "bench cls: 30,000 grid steps")
                check(layer["engine.compile_calls"] == 4, "bench cls: 4 compiles")
                for what, data in bad_output_cases(plain.output):
                    bad = wl.Pass()
                    bad.output = data
                    w.check_cli(bad, w.refs["exit_code"])
                    check(bad.failed == 1 and math.isfinite(bad.fig_err),
                          f"bench cls: {what} fails the row")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    nan_last = wl.Pass()
    nan_last.figure(wl.worst([1e-12, math.nan]), wl.DC_TOL, "dc hi")
    check(nan_last.failed == 1, "a NaN figure after a finite one fails")

    import signal
    import speed
    ref = speed.REF_PROBE_S
    probe = speed.Probe()
    probe._ends, probe._durs = [1.0, 2.0, 3.0], [ref, ref, 2 * ref]
    probe.finish()  # the running median reads ref for every piece
    check(abs(probe.rescale(0.5, 2.0) - (1.5 - 2 * ref)) < 1e-12,
          "speed probe: at reference speed a stretch is its wall time less the probes")
    probe._ends, probe._durs = [1.0, 2.0], [2 * ref, 2 * ref]
    probe.finish()
    check(abs(probe.rescale(2.0, 3.0) - 0.5) < 1e-12,
          "speed probe: at half the reference speed a stretch counts half")
    with speed.Probe() as live:
        speed.burst(400)
    check(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
          and signal.getsignal(signal.SIGALRM) == signal.SIG_DFL and live.samples > 2,
          f"speed probe: {live.samples} probes ran, timer and handler restored")

    p = tracing.Patcher()
    fake = lambda fn: fn
    wrapped = [p.wrap("lsbench.engine", "no_such_function", fake),
               p.wrap("lsbench.engine", "_System.no_such_method", fake),
               p.wrap("lsbench.no_such_module", "anything", fake)]
    p.restore()
    check(wrapped == [False] * 3 and len(p.unmeasured) == 3,
          f"missing names reported as unmeasured: {p.unmeasured}")
    print("selfcheck " + ("passed" if not problems else f"FAILED: {len(problems)}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
