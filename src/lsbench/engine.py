"""Modified nodal analysis, Newton DC solves, and error-controlled implicit
transient, for one circuit or a batch of circuits.

Unknown vector layout: x = [node voltages (n), source branch currents (ns)].
KCL rows hold the sum of currents leaving each node (a gmin conductance from
every node to ground is included); each voltage source adds one branch-current
unknown and one constraint row (v+ - v-) - V(t) = 0.  Branch currents are
positive into the + terminal.

DC operating points run damped Newton (per-iteration node updates clamped to
+/-0.5 V), converged when both max|dv| < vntol and the worst KCL residual is
below abstol, within _PLAIN_ITERS = 50 iterations (converging solves take
under 30).  Otherwise the solver falls back to pseudo-transient continuation,
which follows the circuit's own trajectory to a stable state: backward-Euler
steps from zero with 1 fF added to every node, h from 1 ps, doubled after
each converged step (up to 1 s) and quartered after a failed one, until no
node moves 1 nV on a step longer than 1 us; plain Newton then polishes that
state.  The stage takes at most _PTC_STEPS steps and ends when a step
shorter than _PTC_MIN_H fails.

Transient samples the uniform grid 0, tstep, ..., tstop through one
step-size controller.  Every step spans m grid intervals, m a power of two
from 1 to 64, so every solved point is a grid sample.  A grid interval that
holds a PULSE corner is always a single step, and m restarts at 1 after it.
Single-interval steps use trapezoidal companions after one backward-Euler
startup step.  Longer steps are backward Euler: trapezoid on 640 ps steps
leaves supply currents ringing at the uA level through quiet stretches,
which L-stable backward Euler damps.  Each member has one table of Newton
divided differences of the full solved state over the last four solved
points since the last corner, newest first, kept by the driver (see `_mna`);
a corner resets it to the point just solved.  The step predictor and the
error estimate share it.  Newton starts from the table's polynomial at the
new time, evaluated by Horner: cubic once the table holds four points, of
lower order before, and none at all (the last solved state) on the step
after a corner or the DC start.  A start that does not converge within
_STEP_ITERS = 60 iterations is retried from the last solved state before
the step is halved.  After each solve the
table is extended, and r = h^2 max|DD2(v)| / 4e-5 V, where DD2 is the
second divided difference of the node voltages over the last three solved
points (h^2 DD2 estimates backward Euler's local error h^2 v''/2).  A step
with r > 1 and m > 1 is rejected, its extension discarded, and retried with
m halved; otherwise the next m is the largest power of two <= m sqrt(0.5/r),
at most 2m.  Samples between solved points are linear interpolations;
`Waveforms.solved` lists the solved grid indices, and an interpolated
sample's `resid_max` is the larger residual of the two solves around it.
Steps that fail to converge are retried with halved substeps, up to 8
halvings deep.  The grid is capped at 1,000,000 intervals, checked before
anything is allocated.  All capacitances here are constant, so companions
reduce to a fixed matrix alpha*C plus a history current, which the driver
forms from each step's start, halved substeps too.

The compiled system and the driver that runs the Newton requests of a
batch in lock-step are in `_mna`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._mna import SolverError, _drive, _System
from .devmodel import source_value
from .netlist import Circuit

GMIN_DEFAULT = 1e-12


@dataclass(frozen=True)
class SolveOptions:
    abstol: float = 1e-9   # A, KCL residual bound
    vntol: float = 1e-6    # V, Newton update bound
    # Newton iterations per request of `dc_operating_point`: its plain Newton
    # stops at _PLAIN_ITERS, and every pseudo-transient step gets max_iter.
    # Transients and characterizations run at the defaults, and a transient
    # step stops at _STEP_ITERS
    max_iter: int = 200

    def __post_init__(self):  # a request ends when its count equals max_iter
        if type(self.max_iter) is not int or self.max_iter < 1:  # bool too
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class SysState:
    v: np.ndarray         # node voltages
    i_branch: np.ndarray  # source branch currents

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.v, self.i_branch])


@dataclass
class OpPoint:
    state: SysState
    residual_max: float
    iterations: int
    homotopy_used: str  # "none" (plain Newton) | "ptc" (pseudo-transient)


@dataclass
class Waveforms:
    t: np.ndarray
    node_v: dict          # name -> ndarray over the grid
    supply_i: dict        # source name -> branch current (into + terminal)
    source_nodes: dict    # source name -> (plus node name, minus node name), "0" = ground
    # KCL residual per grid point: a solver state's own, or for an
    # interpolated sample the larger of its two bracketing solves'
    resid_max: np.ndarray | None = None
    solved: np.ndarray | None = None     # grid indices that are solver states



def _state_from_vector(n: int, x: np.ndarray) -> SysState:
    return SysState(v=x[:n].copy(), i_branch=x[n:].copy())


_PTC_C = 1e-15      # F, added to every node's capacitance in the pseudo-transient
_PTC_STEPS = 200    # steps the pseudo-transient may take
_PTC_MIN_H = 4e-18  # s, a failed pseudo-transient step shorter than this ends it
_PLAIN_ITERS = 50   # plain Newton iterations before pseudo-transient continuation


def _dc_requests(sys_: _System, j: int, opts: SolveOptions = SolveOptions(),
                 x0: np.ndarray | None = None, src: list | None = None):
    """Member j's DC operating point with its sources at the values `src`,
    or at their t = 0 values where src is None, as a generator of Newton
    requests: plain Newton, then pseudo-transient continuation (see the
    module docstring).  Returns an OpPoint; raises SolverError when both
    fail."""
    lim, n, N, C = opts.max_iter, sys_.n[j], sys_.N[j], sys_.C[j]
    if src is None:
        src = [source_value(w, 0.0) for w in sys_.waves[j]]
    base, rhs = sys_.base_matrix(j, GMIN_DEFAULT), sys_.rhs(j, src)
    y, total, res, ok, _ = yield (np.zeros(N) if x0 is None else x0, base, rhs, None,
                                  min(lim, _PLAIN_ITERS))
    if ok:
        return OpPoint(_state_from_vector(n, y), res, total, "none")
    x, h = np.zeros(N), 1e-12
    for _ in range(_PTC_STEPS):
        a, v = 1.0 / h, x[:n]
        y, it, res, ok, why = yield (x, sys_.base_matrix(j, GMIN_DEFAULT + a * _PTC_C, a),
                                     sys_.rhs(j, src, a * (C.dot(v) + _PTC_C * v)), None, lim)
        total += it
        if ok and h > 1e-6 and np.abs(y[:n] - v).max() < 1e-9:
            y, it, res, ok, why = yield (y, base, rhs, None, lim)
            if ok:
                return OpPoint(_state_from_vector(n, y), res, total + it, "ptc")
            break
        if not ok and h < _PTC_MIN_H:
            break
        x, h = (y, min(2.0 * h, 1.0)) if ok else (x, h / 4.0)
    else:
        why = f"{_PTC_STEPS} steps spent"
    circuit = sys_.circuits[j]
    _, f = _System([circuit]).assemble_one(0, y, base, rhs)  # not sys_: the drive's plan
    node = circuit.node_names[np.argmax(np.abs(f[:n]))]
    hint = f"; {'; '.join(circuit.warnings)}" if circuit.warnings else ""
    raise SolverError(
        f"DC operating point did not converge: plain Newton and pseudo-transient "
        f"continuation failed ({why} at h={h:.3g}s; largest residual at node "
        f"{node!r}{hint})")


def dc_operating_point(circuit: Circuit, opts: SolveOptions | None = None,
                       x0: np.ndarray | None = None) -> OpPoint:
    """Solve the DC operating point with sources at their t=0 values.

    Tries plain Newton first, then pseudo-transient continuation (see the
    module docstring).  Raises SolverError when both fail.
    """
    opts = opts or SolveOptions()
    sys_ = _System([circuit])
    (op,) = _drive(sys_, [_dc_requests(sys_, 0, opts, x0)], opts)
    if isinstance(op, SolverError):
        raise op
    return op


_MAX_HALVINGS = 8
_STEP_ITERS = 60             # Newton iterations of a step start before a fallback
_MAX_GRID_STEPS = 1_000_000  # grid intervals; bounds every waveform allocation
_MAX_MULT = 64               # longest step, in grid intervals
_LTE_TOL = 4e-5              # V, per-step error target of the step control
_FILL_ROWS = 512             # grid rows interpolated per block
_BLOCK = 128                 # solved points recorded per block


def _corner_intervals(waves, t: np.ndarray) -> list:
    """Sorted indices j of the intervals [t[j], t[j+1]] of the grid t that hold
    a PULSE corner (td + k*per + {0, tr, tr+pw, tr+pw+tf}), then n_steps as a
    sentinel.  A corner on a grid point marks the interval that starts there.
    The work is O(grid size): a period no longer than tstep puts a corner
    into every interval from td on, and a longer one repeats fewer times
    than there are intervals."""
    n_steps, tstep, tstop = len(t) - 1, t[1], t[-1]  # t[1] is exactly tstep
    marks = [np.array([n_steps])]
    for w in waves:
        if w.kind != "pulse" or w.td > tstop:
            continue
        if w.per <= tstep:
            marks.append(np.arange(min(int(w.td / tstep), n_steps - 1), n_steps))
            continue
        starts = w.td + w.per * np.arange(int((tstop - w.td) / w.per) + 1)
        c = (starts[:, None] + [0.0, w.tr, w.tr + w.pw, w.tr + w.pw + w.tf]).ravel()
        marks.append(np.minimum((c[c <= tstop] / tstep).astype(np.intp), n_steps - 1))
    return sorted(set(np.concatenate(marks).tolist()))  # np.unique imports numpy.ma


class _Stepper:
    """Member j's transient on the grid t, its DC start included, as one
    generator of Newton requests (`run`)."""

    def __init__(self, sys_: _System, j: int, t: np.ndarray):
        self.sys, self.j, self.t = sys_, j, t
        self.n = sys_.n[j]
        self.corners = _corner_intervals(sys_.waves[j], t)
        self.bases: dict = {}  # alpha -> base matrix

    def step(self, x_from, ic_from, t0, t1, use_trap, depth, w=(1.0,) * 3, lev=0, table=0):
        """One implicit step t0 -> t1 from x_from, halving on failure.  The
        driver applies the table op `table`, starts at the table's polynomial
        of level `lev`, then at x_from, forms the rhs and, on convergence, the
        history, and extends the table over w = t1 - t_i (ones for a first
        half, whose extension the second half's replaces; see `_mna`).
        Returns (x, ic, worst accepted residual, max|DD2| over the node rows)."""
        h = t1 - t0
        alpha = 2.0 / h if use_trap else 1.0 / h
        ic_hist = ic_from if use_trap else None
        base = self.bases.get(alpha)
        if base is None:
            base = self.bases[alpha] = self.sys.base_matrix(self.j, GMIN_DEFAULT, alpha)
        for lv in (lev, 1) if lev > 1 else (lev,):
            y = yield (x_from, base, None, ic_hist, _STEP_ITERS, (*w, lv, alpha, t1), table)
            table = 0
            if y[3]:
                return y[0], y[6], y[2], y[5]
        if depth >= _MAX_HALVINGS:
            raise SolverError(
                f"transient step at t={t1:.6g}s failed to converge after "
                f"{_MAX_HALVINGS} halvings (min substep {h:.3g}s)"
            )
        tm = 0.5 * (t0 + t1)
        x_mid, ic_mid, r1, _ = yield from self.step(x_from, ic_from, t0, tm, use_trap,
                                                    depth + 1)
        x_new, ic_new, r2, dd2 = yield from self.step(x_mid, ic_mid, tm, t1, use_trap,
                                                      depth + 1, w)
        return x_new, ic_new, max(r1, r2), dd2

    def run(self):
        """Step over the grid from the DC operating point; returns the blocks
        of the solved grid indices, the states there and their residuals."""
        op = yield from _dc_requests(self.sys, self.j)
        n, t, corners = self.n, self.t, self.corners
        n_steps = len(t) - 1
        x = op.state.as_vector()
        # the solved points in blocks of (grid indices, states, residuals);
        # each block starts with the last point of the one before
        ib, xb, rb = np.empty(_BLOCK, np.intp), np.empty((_BLOCK, len(x))), np.empty(_BLOCK)
        ib[0], xb[0], rb[0] = 0, x, op.residual_max
        blocks, nb = [(ib, xb, rb)], 1
        ic_cur = None  # capacitor currents at the current solved point
        # the driver keeps the Newton divided differences of the solved states
        # since the last corner, newest first: `lev` rows, at most four, row k
        # over the newest k+1 points; ts holds their times but the oldest, and
        # `table` is the next step's op (2 restarts the table at x, 1 commits)
        ts, lev, table = [0.0], 1, 2
        i, m, c = 0, 1, 0  # grid index, step multiple, next corner in `corners`
        while i < n_steps:
            while corners[c] < i:
                c += 1
            at_corner = corners[c] == i
            k = 1 if at_corner else min(m, 1 << ((corners[c] - i).bit_length() - 1))
            t0, t1 = t.item(i), t.item(i + k)
            w = [t1 - tk for tk in ts] + [1.0] * (3 - len(ts))
            x_new, ic_new, res, dd2 = yield from self.step(
                x, ic_cur, t0, t1, k == 1 and i > 0, 0, w, lev, table)
            table = 0
            if at_corner:
                ts, lev, table, m = [t1], 1, 2, 1
            else:
                grow = k  # no estimate yet: hold the step
                if lev > 1 and n:
                    r = (t1 - t0) ** 2 * dd2 / _LTE_TOL
                    if r > 1.0 and k > 1:
                        m = k // 2  # reject: retry from the same point, half the step
                        continue
                    # sqrt(0.5/r) >= 2 exactly when r <= 1/8: only then is
                    # the step doubled, and 0.5/r never overflows
                    grow = (min(_MAX_MULT, k * math.sqrt(0.5 / r)) if r > 0.125
                            else min(2 * k, _MAX_MULT))
                ts, lev, table = [t1, *ts[:2]], min(lev + 1, 4), 1
                m = 1 << max(int(grow).bit_length() - 1, 0)
            x, ic_cur, i = x_new, ic_new, i + k
            if nb == _BLOCK:
                ib, xb, rb = np.empty_like(ib), np.empty_like(xb), np.empty_like(rb)
                ib[0], xb[0], rb[0] = (a[-1] for a in blocks[-1])
                blocks.append((ib, xb, rb))
                nb = 1
            ib[nb], xb[nb], rb[nb] = i, x, res
            nb += 1
        blocks[-1] = (ib[:nb], xb[:nb], rb[:nb])
        return blocks


def _waveforms(circuit: Circuit, t: np.ndarray, blocks: list) -> Waveforms:
    """The grid record of one member from the blocks of its solved points:
    samples between two solves lie on the line joining them,
    x + w*(x_new - x), and carry the larger of the two residuals."""
    rec = np.empty((len(t), blocks[0][1].shape[1]))  # one row per grid sample
    rrec = np.empty(len(t))
    for ix, xs, rs in blocks:
        for lo in range(ix[0], ix[-1], _FILL_ROWS):  # bounded temporaries
            hi = min(lo + _FILL_ROWS, ix[-1])
            s = np.searchsorted(ix, np.arange(lo, hi), side="right") - 1  # solve before
            a, b = ix[s], ix[s + 1]
            w = ((t[lo:hi] - t[a]) / (t[b] - t[a]))[:, None]
            rec[lo:hi] = xs[s] + w * (xs[s + 1] - xs[s])
            rrec[lo:hi] = np.maximum(rs[s], rs[s + 1])
        rec[ix], rrec[ix] = xs, rs
    n = circuit.n_nodes
    names = circuit.node_names
    gname = lambda i: "0" if i < 0 else names[i]
    return Waveforms(
        t=t,
        node_v={nm: rec[:, j] for j, nm in enumerate(names)},
        supply_i={s.name: rec[:, n + k] for k, s in enumerate(circuit.sources)},
        source_nodes={s.name: (gname(s.p), gname(s.m)) for s in circuit.sources},
        resid_max=rrec,
        solved=np.concatenate([blocks[0][0]] + [ix[1:] for ix, _, _ in blocks[1:]]),
    )


def _grid(tstep: float, tstop: float) -> np.ndarray:
    """The grid times 0, tstep, ..., tstop; ValueError for a grid that is
    not positive and finite, shorter than 10 steps or over the limit."""
    if not (math.isfinite(tstep) and math.isfinite(tstop)) or tstep <= 0 or tstop <= 0:
        raise ValueError("tstep and tstop must be positive and finite")
    if tstop < 10 * tstep:
        raise ValueError(f"tstop must cover at least 10 steps (tstep={tstep:g}, "
                         f"tstop={tstop:g})")
    if tstop > _MAX_GRID_STEPS * tstep:
        raise ValueError(f"grid of {tstop / tstep:.3g} steps exceeds the limit of "
                         f"{_MAX_GRID_STEPS:,} (tstep={tstep:g}, tstop={tstop:g})")
    t = np.arange(int(round(tstop / tstep)) + 1) * tstep
    t[-1] = tstop
    return t


def _transient_many(circuits, tstep: float, tstop: float) -> list:
    """`transient` of several circuits, of any structures, solved together:
    each member's Waveforms, or the SolverError it failed with, in order.

    Every member takes its own DC start and its own steps, exactly as it
    would alone; the Newton iterations of all members run in lock-step, with
    one device evaluation for the whole batch and one linear solve per
    group of members of one size (see the module docstring).
    """
    t = _grid(tstep, tstop)
    sys_ = _System(list(circuits))
    results = _drive(sys_, [_Stepper(sys_, j, t).run() for j in range(len(sys_.circuits))],
                     SolveOptions())
    return [r if isinstance(r, SolverError) else _waveforms(c, t, r)
            for c, r in zip(sys_.circuits, results)]


def transient(circuit: Circuit, tstep: float, tstop: float) -> Waveforms:
    """Implicit transient analysis on the uniform grid 0, tstep, ..., tstop.

    Steps span 1 to 64 grid intervals under local-error control (see the
    module docstring); samples between solved points are linear
    interpolations, and `Waveforms.solved` lists the grid indices that are
    solver states.  The run starts from the DC operating point at the
    sources' initial values and uses the default `SolveOptions` and the
    GMIN_DEFAULT shunt.  This is `_transient_many` of one circuit;
    `measure.characterize_many` runs several circuits as one batch.
    """
    (waves,) = _transient_many([circuit], tstep, tstop)
    if isinstance(waves, SolverError):
        raise waves
    return waves
