"""lsbench's benchmark.

    python3 perfbench/run.py --workload {bench_six,sweep_vin,dc_corners}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src`.
Everything runs in this one process on one thread (BLAS pinned to one),
except the set-up probes: `setup_s` is the median, over SETUP_PROBES fresh
interpreters, of the time from starting the interpreter until the
workload's inputs and references are ready.  Half the probes run before the
timed passes and half after them.

--trace 0 repeats whole passes of the workload while the next one is
expected to finish within --seconds (at least one pass) and reports the
end-to-end metrics.  Their times are seconds at the reference machine
speed (see speed.py): the passes run under a speed probe, and each set-up
time is rescaled by probe bursts run just before and just after it.  The
raw wall times are in the `info` line.  --trace 1 runs one untraced and one traced pass,
checks that both wrote byte-identical output and that every wrapper was
removed, and reports the per-layer metrics.  Every pass is checked against
the stored references in perfbench/refs.

Prints an `env` line, an `info` line, one line per metric, and as the last
line the result JSON: {"correct", "attempted", "failed", "metrics"}.  The
same record, with the environment, goes to perfbench/out/, next to the
span file of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import boot

SETUP_PROBES = 16
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p98_s": "s",
                    "ok_frac": "ratio", "fig_err_max": "ratio", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="lsbench benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("bench_six", "sweep_vin", "dc_corners"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def prepare(args, workdir):
    import workloads as wl
    return wl.Workload(args.workload, args.seed, wl.load_refs(args.workload), workdir)


def measure_setup(args, count: int) -> list:
    """Start `count` interpreters in turn; each reports the monotonic clock
    once its inputs are ready, and then a probe burst.  Returns (raw,
    rescaled) set-up times, rescaled by the mean of the burst before the
    start and the burst after the inputs were ready."""
    import speed
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(count):
        before = speed.burst()
        t0 = time.perf_counter()
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        ready, after = map(float, r.stdout.split()[-2:])
        raw = ready - t0
        samples.append((raw, raw * speed.REF_PROBE_S / ((before + after) / 2)))
    return samples


def op_latencies(passes, probe) -> list:
    """Latency of each operation at the reference speed: the median over
    the passes of that operation's time.  A single slow reading (a garbage
    collection, an interrupt) then cannot put an operation in the tail,
    which on dc_corners most of the readings beyond a pooled p98 are."""
    per_pass = [[probe.rescale(a, b) for a, b in p.op_spans] for p in passes]
    return [statistics.median(op) for op in zip(*per_pass)]


def percentile_report(lat: list) -> dict:
    import numpy as np
    a = np.asarray(lat)
    p98 = float(np.percentile(a, 98))
    return {"samples": len(lat), "p50": float(np.median(a)), "p98": p98,
            "beyond_p98": int(np.count_nonzero(a > p98))}


def untraced(wl_run, seconds) -> list:
    passes = []
    t_start = time.perf_counter()
    while True:
        p = wl_run()
        if passes and p.output != passes[0].output:
            p.fail("output differs from the first pass")
        if passes and len(p.op_spans) != len(passes[0].op_spans):
            p.fail("operation count differs from the first pass")
        passes.append(p)
        if time.perf_counter() - t_start + p.wall > seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    boot.setup()
    workdir = boot.OUT / f"work-{os.getpid()}"
    if args.setup_probe:
        prepare(args, workdir)
        ready = time.perf_counter()
        import speed
        print(ready, speed.burst())
        return 0

    setup_samples = measure_setup(args, SETUP_PROBES // 2) if args.trace == 0 else []
    import envinfo
    import speed
    import tracing
    env = envinfo.environment(args.workload, args.seed)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = prepare(args, workdir)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
        if args.trace == 0:
            with speed.Probe() as probe:
                passes = untraced(wl.run, args.seconds)
            setup_samples += measure_setup(args, SETUP_PROBES - len(setup_samples))
            pct = percentile_report(op_latencies(passes, probe))
            attempted = sum(p.attempted for p in passes)
            failed = sum(p.failed for p in passes)
            metrics = {
                "setup_s": statistics.median(s for _, s in setup_samples),
                "wall_s": statistics.median(probe.rescale(p.t0, p.t1) for p in passes),
                "op_p50_s": pct["p50"],
                "op_p98_s": pct["p98"],
                "ok_frac": 1.0 - failed / attempted,
                "fig_err_max": max(p.fig_err for p in passes),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            run_s = passes[-1].t1 - passes[0].t0
            info.update(passes=len(passes),
                        pass_walls=[probe.rescale(p.t0, p.t1) for p in passes],
                        raw_pass_walls=[p.wall for p in passes],
                        raw_wall_s=statistics.median(p.wall for p in passes),
                        raw_setup_s=statistics.median(r for r, _ in setup_samples),
                        setup_samples=setup_samples, op_latency=pct,
                        probes=probe.samples, probe_median_s=probe.median_probe_s,
                        probe_share=probe.probe_s / run_s,
                        fail_frac=failed / attempted)
        else:
            base = wl.run()
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = wl.run()
            passes = [base, traced]
            remaining = tracing.leftovers()
            identical = base.output == traced.output
            if not identical:
                traced.fail("traced output differs from untraced output")
            if remaining:
                traced.fail(f"wrappers left installed: {remaining}")
            attempted = base.attempted + traced.attempted
            failed = base.failed + traced.failed
            metrics = tracer.per_layer()
            metrics["trace.overhead_frac"] = traced.wall / base.wall - 1.0
            units = tracing.PER_LAYER_UNITS
            info.update(untraced_wall_s=base.wall, traced_wall_s=traced.wall,
                        outputs_identical=identical, wrappers_left=remaining,
                        unmeasured=tracer.unmeasured, spans=len(tracer.spans),
                        fail_frac=failed / attempted,
                        per_op=tracer.per_op_summary())
            with open(boot.OUT / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
                for rec in tracer.span_records():
                    fh.write(json.dumps(rec) + "\n")
        info.update(expected_solver_errors=sum(p.expected_errors for p in passes),
                    problems=[x for p in passes for x in p.problems][:20])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(boot.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "info": info, "result": result}, fh, indent=1)
    print("env " + json.dumps(env))
    print("info " + json.dumps({k: v for k, v in info.items() if k != "per_op"}))
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
