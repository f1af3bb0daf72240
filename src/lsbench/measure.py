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
from .devmodel import SourceWave
from .engine import GMIN_DEFAULT, SolveOptions, SolverError, Waveforms, dc_operating_point
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
        p = p - waves.gmin * v * v
    return _window_integral(t, p, t0, t1) / (t1 - t0)


def _pinned(circuit: Circuit, input_state: str) -> Circuit:
    """`circuit` with every pulse source pinned at its lo (v1) or hi (v2)
    level: the same structure, DC sources only."""
    if input_state not in ("lo", "hi"):
        raise ValueError(f"input_state must be 'lo' or 'hi', got {input_state!r}")
    return replace(circuit, sources=[
        replace(s, wave=SourceWave("dc", s.wave.v1 if input_state == "lo" else s.wave.v2))
        if s.wave.kind == "pulse" else s
        for s in circuit.sources
    ])


def _static(circuit: Circuit, op) -> float:
    """The power the sources of `circuit` deliver at the DC operating point
    `op`, less the synthetic gmin currents."""
    v = op.state.v
    total = 0.0
    for k, s in enumerate(circuit.sources):
        vs = (v[s.p] if s.p >= 0 else 0.0) - (v[s.m] if s.m >= 0 else 0.0)
        total += vs * (-float(op.state.i_branch[k]))
    return total - GMIN_DEFAULT * float(np.dot(v, v))


def static_power(circuit: Circuit, input_state: str,
                 opts: SolveOptions | None = None) -> float:
    """DC power with every pulse source pinned at its lo (v1) or hi (v2)
    level.  The gmin currents are numerical, not physical, and are excluded."""
    pinned = _pinned(circuit, input_state)
    return _static(pinned, dc_operating_point(pinned, opts))


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
            raise ValueError("no timestep given and the netlist has no .tran")
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
        p_avg = average_power(waves, (per, n_per * per))
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


def _characterize_requests(sys_, j: int, t, waves, opts: SolveOptions,
                           in_node: str, out_node: str):
    """Member j's characterization as one generator of Newton requests, in
    the order of a lone run: its transient over the grid t from its
    DC operating point (or the given `waves`), the measurements, then the
    static DC solves with its sources at the values of its lo and hi
    pinned copies.  Those run in member j itself: a pinned copy has the
    same devices and matrices, only other source values.  Returns the
    Report, or the MeasureError; a SolverError propagates."""
    c = sys_.circuits[j]
    if waves is None:
        waves = engine._waveforms(c, t, GMIN_DEFAULT, (yield from engine._Stepper(
            sys_, j, t, opts, GMIN_DEFAULT).run("auto")))
    rep = _figures(c, waves, in_node, out_node)
    del waves  # the grid is dropped before the next member's is filled
    if isinstance(rep, MeasureError):
        return rep
    src_lo, src_hi = ([s.wave.v1 for s in _pinned(c, st).sources] for st in ("lo", "hi"))
    lo = yield from engine._dc_requests(sys_, j, opts, GMIN_DEFAULT, None, src_lo)
    hi = yield from engine._dc_requests(sys_, j, opts, GMIN_DEFAULT, None, src_hi)
    return replace(rep, power_static_lo=_static(c, lo), power_static_hi=_static(c, hi))


def characterize_many(circuits, tstep: float | None = None, tstop: float | None = None, *,
                      in_node: str = "in", out_node: str = "out",
                      opts: SolveOptions | None = None, waves: list | None = None):
    """`characterize` of several circuits, of any structures, as one batch.

    Each circuit is one member of one compiled system.  A circuit's
    transient, from its DC start, its measurements and its two static DC
    solves, in its own member at its pinned source values, are one
    generator of Newton requests, and the requests of all circuits run in
    lock-step.  A grid is filled in and measured as soon as its last step
    is solved, and dropped before the next one is filled.  `waves`, one
    Waveforms per circuit, replaces the transients.  Yields, in order, each
    circuit's Report, equal to its lone `characterize`, or the SolverError,
    MeasureError or ValueError that one would raise.
    """
    opts = opts or SolveOptions()
    circuits = list(circuits)
    jobs, times, errors = [], {}, {}  # jobs: (circuit, grid, waves), one per member
    for i, c in enumerate(circuits):
        t = None
        if waves is None:
            try:  # the errors of a lone run, in its order
                g = _tstep_tstop(c, tstep, tstop)
                if g not in times:  # grid times, shared by the circuits on one grid
                    times[g] = engine._grid(*g)
            except ValueError as e:
                errors[i] = e
                continue
            t = times[g]
        jobs.append((c, t, None if waves is None else waves[i]))
    results = []
    if jobs:
        sys_ = engine._System([c for c, _, _ in jobs])
        results = engine._drive(sys_, [_characterize_requests(sys_, j, t, w, opts, in_node,
                                                              out_node)
                                       for j, (_, t, w) in enumerate(jobs)], opts)
        del sys_
    done = iter(results)
    for i in range(len(circuits)):
        yield errors[i] if i in errors else next(done)


def characterize(circuit: Circuit, tstep: float | None = None,
                 tstop: float | None = None, *, in_node: str = "in",
                 out_node: str = "out", waves: Waveforms | None = None,
                 opts: SolveOptions | None = None) -> Report:
    """Simulate (or reuse `waves`) and extract the full report: a batch of
    one in `characterize_many`, so the transient, its DC start and the two
    static-power solves share one compiled system.

    Average power integrates complete stimulus periods from the second one
    on; the settle margin for swing extraction is 20% of the period.
    """
    (rep,) = characterize_many([circuit], tstep, tstop, in_node=in_node, out_node=out_node,
                               opts=opts, waves=None if waves is None else [waves])
    if isinstance(rep, Exception):
        raise rep
    return rep
