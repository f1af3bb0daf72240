"""Figures of merit from simulated waveforms: propagation delay, average and
static power, and output swing, plus a one-call characterization report.

Delay is measured between 50% crossings, each waveform against the midpoint
of its own swing (input and output live in different voltage domains).
Input edges pair 1:1 with output transitions in time order; because a
receiving stage's switching threshold can sit far from the input midpoint,
the output's crossing may precede the input's and a delay may come out
slightly negative.  The first input edge of each polarity is treated as
startup and excluded from the averages.

Average power integrates the power delivered by every source (the stimulus
delivers real energy too) with trapezoidal quadrature over a whole number of
stimulus periods.  Static power pins pulse sources at one of their two
levels, solves DC, and excludes the synthetic gmin currents, leaving device
dissipation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .engine import GMIN_DEFAULT, SolveOptions, Waveforms
from .netlist import Circuit


class MeasureError(RuntimeError):
    pass


def _crossings(t, w):
    """(time, direction) for each crossing of w's 50% level, the midpoint of
    its own min and max, linearly interpolated."""
    w = np.asarray(w, dtype=float)
    s = w - 0.5 * (w.min() + w.max())
    rise = (s[:-1] < 0) & (s[1:] >= 0)
    fall = (s[:-1] > 0) & (s[1:] <= 0)
    out = []
    for i in np.nonzero(rise | fall)[0]:
        tc = t[i] - s[i] * (t[i + 1] - t[i]) / (s[i + 1] - s[i])
        out.append((float(tc), 1 if rise[i] else -1))
    return out


def propagation_delay(in_wave, out_wave, t):
    """Per-direction propagation delays from 50% crossings, each waveform
    against the midpoint of its own min/max.  Returns {"delay_rise": s,
    "delay_fall": s}, keyed by the input edge direction and averaged over
    all measured edges.
    """
    in_edges = _crossings(t, in_wave)
    out_times = [tc for tc, _ in _crossings(t, out_wave)]

    delays = {1: [], -1: []}
    seen = {1: 0, -1: 0}
    op = 0
    for j, (ti, d) in enumerate(in_edges):
        t_next = in_edges[j + 1][0] if j + 1 < len(in_edges) else math.inf
        if op >= len(out_times) and j == len(in_edges) - 1:
            break  # response to the final edge truncated by the record end
        if op >= len(out_times) or out_times[op] >= t_next:
            kind = "rising" if d > 0 else "falling"
            raise MeasureError(
                f"no output transition for the {kind} input edge at {ti:.6g} s"
            )
        seen[d] += 1
        if seen[d] > 1:  # first edge of each polarity is startup
            delays[d].append(out_times[op] - ti)
        op += 1
    if not delays[1] or not delays[-1]:
        raise MeasureError(
            "need at least two input edges of each polarity (the first is "
            "excluded as startup)"
        )
    return {
        "delay_rise": float(np.mean(delays[1])),
        "delay_fall": float(np.mean(delays[-1])),
    }


def _window_integral(t, y, t0, t1):
    y0 = float(np.interp(t0, t, y))
    y1 = float(np.interp(t1, t, y))
    i0 = int(np.searchsorted(t, t0, side="right"))
    i1 = int(np.searchsorted(t, t1, side="left"))
    ts = np.concatenate(([t0], t[i0:i1], [t1]))
    ys = np.concatenate(([y0], y[i0:i1], [y1]))
    return float(np.trapezoid(ys, ts))


def source_power(waves: Waveforms) -> np.ndarray:
    """Instantaneous power delivered by all sources."""
    p = np.zeros_like(waves.t)
    for nm, ib in waves.supply_i.items():
        pn, mn = waves.source_nodes[nm]
        vs = (waves.node_v[pn] if pn != "0" else 0.0) - (
            waves.node_v[mn] if mn != "0" else 0.0
        )
        p = p + vs * (-ib)  # branch current is into the + terminal
    return p


def average_power(waves: Waveforms, window) -> float:
    """Mean power delivered by all sources over window=(t0, t1), trapezoidal
    quadrature.  The gmin shunt dissipation is numerical, not physical, and
    is removed."""
    t = waves.t
    t0, t1 = window
    if t0 < t[0] or t1 > t[-1] or t0 >= t1:
        raise MeasureError(
            f"window [{t0:.6g}, {t1:.6g}] s outside simulated range "
            f"[{t[0]:.6g}, {t[-1]:.6g}] s"
        )
    p = source_power(waves)
    for v in waves.node_v.values():
        p = p - GMIN_DEFAULT * v * v
    return _window_integral(t, p, t0, t1) / (t1 - t0)


def _static_requests(sys_, j: int, input_state: str, opts: SolveOptions = SolveOptions()):
    """Member j's static power as one generator of Newton requests: its DC
    solve in member j itself, with every pulse source at its lo (v1) or hi
    (v2) level, then the power its sources deliver there, less the
    synthetic gmin currents.  Returns the power; a SolverError propagates."""
    hi = input_state == "hi"
    src = [w.v2 if hi and w.kind == "pulse" else w.v1 for w in sys_.waves[j]]
    op = yield from engine._dc_requests(sys_, j, opts, src=src)
    v = op.state.v
    total = 0.0
    for k, s in enumerate(sys_.circuits[j].sources):
        vs = (v[s.p] if s.p >= 0 else 0.0) - (v[s.m] if s.m >= 0 else 0.0)
        total += vs * (-float(op.state.i_branch[k]))
    return total - GMIN_DEFAULT * float(np.dot(v, v))


def static_power(circuit: Circuit, input_state: str,
                 opts: SolveOptions | None = None) -> float:
    """DC power with every pulse source pinned at its lo (v1) or hi (v2)
    level, solved as `characterize` solves it: a batch of one, in the
    circuit's own compiled member at the pinned source values.  The gmin
    currents are numerical, not physical, and are excluded."""
    if input_state not in ("lo", "hi"):
        raise ValueError(f"input_state must be 'lo' or 'hi', got {input_state!r}")
    opts = opts or SolveOptions()
    return engine._run_one(circuit, lambda s, j: _static_requests(s, j, input_state, opts),
                           opts)


def output_swing(out_wave, t, settle):
    """Settled low/high output levels as (swing_lo, swing_hi).

    The waveform's own 50% crossings delimit state windows; samples inside
    [crossing + settle, next crossing) are pooled per state and the medians
    reported.  A state with no window of at least 10 samples is an error.
    """
    w = np.asarray(out_wave, dtype=float)
    edges = _crossings(t, w)
    pools = {"hi": [], "lo": []}
    for j, (te, d) in enumerate(edges):
        end = edges[j + 1][0] if j + 1 < len(edges) else math.inf
        mask = (t >= te + settle) & (t < end)
        if int(np.count_nonzero(mask)) >= 10:
            pools["hi" if d > 0 else "lo"].append(w[mask])
    for state in ("lo", "hi"):
        if not pools[state]:
            raise MeasureError(
                f"no settled window of at least 10 samples for the {state} state"
            )
    return _median(np.concatenate(pools["lo"])), _median(np.concatenate(pools["hi"]))


def _median(a) -> float:
    """`np.median` of a non-empty 1-D float array, bit for bit, without the
    `numpy.ma` import of its NaN check: the same partition, then the middle
    value or the mean of the middle two, or the NaN the partition ends in.
    The mean's sum starts at +0.0, which turns a -0.0 median into +0.0."""
    k, odd = divmod(len(a), 2)
    s = np.partition(a, [k, -1] if odd else [k - 1, k, -1])
    if math.isnan(s[-1]):
        return float(s[-1])
    return float(s[k] + 0.0) if odd else float((s[k - 1] + s[k] + 0.0) / 2.0)


@dataclass(frozen=True)
class Report:
    circuit_name: str
    power_avg: float
    power_static_lo: float
    power_static_hi: float
    delay_rise: float
    delay_fall: float
    delay_max: float
    swing_lo: float
    swing_hi: float


def _stimulus_period(circuit: Circuit) -> float:
    for s in circuit.sources:
        if s.wave.kind == "pulse":
            return s.wave.per
    raise MeasureError("circuit has no pulse stimulus source")


def _tstep_tstop(circuit: Circuit, tstep: float | None, tstop: float | None) -> tuple:
    """(tstep, tstop) of a circuit's transient: the given values, else its
    .tran card's; ValueError when neither gives them."""
    if tstep is None or tstop is None:
        tr = circuit.tran
        if tr is None:
            missing = [n for n, v in (("tstep", tstep), ("tstop", tstop)) if v is None]
            raise ValueError(f"no {' or '.join(missing)} given and the netlist has no .tran")
        tstep = tstep if tstep is not None else tr.tstep
        tstop = tstop if tstop is not None else tr.tstop
    return tstep, tstop


def _figures(circuit: Circuit, waves: Waveforms, in_node: str, out_node: str):
    """The Report of one transient without its static powers (NaN), or the
    MeasureError its measurement raised, without the traceback that would
    hold the grid."""
    try:
        per = _stimulus_period(circuit)
        n_per = int(math.floor(waves.t[-1] / per + 1e-9))
        if n_per < 2:
            raise MeasureError(
                f"simulation covers {n_per} stimulus period(s); need at least 2"
            )
        for node in (in_node, out_node):
            if node not in waves.node_v:
                raise MeasureError(f"no node named {node!r} in waveforms")
        vin = waves.node_v[in_node]
        vout = waves.node_v[out_node]
        delays = propagation_delay(vin, vout, waves.t)
        # n_per * per may round past t[-1], which the 1e-9 slack above admits
        p_avg = average_power(waves, (per, min(n_per * per, waves.t[-1])))
        s_lo, s_hi = output_swing(vout, waves.t, 0.2 * per)
    except MeasureError as e:
        return e.with_traceback(None)
    return Report(
        circuit_name=circuit.title,
        power_avg=p_avg,
        power_static_lo=math.nan,
        power_static_hi=math.nan,
        delay_rise=delays["delay_rise"],
        delay_fall=delays["delay_fall"],
        delay_max=max(delays["delay_rise"], delays["delay_fall"]),
        swing_lo=s_lo,
        swing_hi=s_hi,
    )


def _characterize_requests(sys_, j: int, t, waves=None, in_node: str = "in",
                           out_node: str = "out"):
    """Member j's characterization as one generator of Newton requests, in
    the order of a lone run: its transient over the grid t from its
    DC operating point (or the given `waves`), the measurements, then the
    static powers with its pulse sources pinned lo and hi, solved in
    member j itself: a pinned circuit has the same devices and matrices,
    only other source values.  A batch fills in and measures each grid as
    soon as its last step is solved, and drops it before the next one is
    filled.  Returns the Report, or the MeasureError; a SolverError
    propagates."""
    if waves is None:
        waves = yield from engine._transient_requests(sys_, j, t)
    rep = _figures(sys_.circuits[j], waves, in_node, out_node)
    del waves  # the grid is dropped before the next member's is filled
    if isinstance(rep, MeasureError):
        return rep
    lo = yield from _static_requests(sys_, j, "lo")
    hi = yield from _static_requests(sys_, j, "hi")
    return replace(rep, power_static_lo=lo, power_static_hi=hi)


def characterize_many(circuits):
    """`characterize` of several circuits, of any structures, as one batch:
    each on the grid of its own .tran card, from node "in" to node "out".
    Yields, in order, each circuit's Report, equal to its lone
    `characterize`, or the SolverError, MeasureError or ValueError that one
    would raise."""
    circuits = list(circuits)
    jobs, grids, times, errors = [], [], {}, {}
    for i, c in enumerate(circuits):
        try:  # the errors of a lone run, in its order
            g = _tstep_tstop(c, None, None)
            if g not in times:  # grid times, shared by the circuits on one grid
                times[g] = engine._grid(*g)
        except ValueError as e:
            errors[i] = e
            continue
        jobs.append(c)
        grids.append(times[g])
    done = iter(engine._run(jobs, lambda s, j: _characterize_requests(s, j, grids[j]))
                if jobs else ())
    for i in range(len(circuits)):
        yield errors[i] if i in errors else next(done)


def characterize(circuit: Circuit, tstep: float | None = None,
                 tstop: float | None = None, *, in_node: str = "in",
                 out_node: str = "out", waves: Waveforms | None = None) -> Report:
    """Simulate (or reuse `waves`) and extract the full report: a batch of
    one, so the transient, its DC start and the two static-power solves
    share one compiled system.

    Average power integrates complete stimulus periods from the second one
    on; the settle margin for swing extraction is 20% of the period.
    """
    t = None if waves is not None else engine._grid(*_tstep_tstop(circuit, tstep, tstop))
    return engine._run_one(
        circuit, lambda s, j: _characterize_requests(s, j, t, waves, in_node, out_node))
