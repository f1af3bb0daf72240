"""Modified nodal analysis, Newton DC solves, and error-controlled implicit
transient, for one circuit or a batch of circuits.

Unknown vector layout: x = [node voltages (n), source branch currents (ns)].
KCL rows hold the sum of currents leaving each node (a gmin conductance from
every node to ground is included); each voltage source adds one branch-current
unknown and one constraint row (v+ - v-) - V(t) = 0.  Branch currents are
positive into the + terminal.

DC operating points run damped Newton (per-iteration node updates clamped to
+/-0.5 V), converged when both max|dv| < vntol and the worst KCL residual is
below abstol, within _PLAIN_ITERS = 50 iterations (converging solves take at
most 28 on perfbench's 625 process corners).  Otherwise the solver falls back
to pseudo-transient continuation, which follows the circuit's own trajectory
to a stable state: backward-Euler steps from zero with 1 fF added to every
node, h from 1 ps, doubled after each converged step (up to 1 s) and
quartered after a failed one, until no node moves 1 nV on a step longer than
1 us; plain Newton then polishes that state.  The stage takes at most
_PTC_STEPS steps and ends when a step shorter than _PTC_MIN_H fails.
Plain Newton, first attempt and polish, projects each update's node voltages
onto the hull [min(0, p) - s, max(0, p) + s] (`_System.hull`): p the
potentials the DC sources tie to ground, s the summed spans of source trees
that float.  No DC solution leaves it (no-gain; Wolaver, IEEE Trans. Circuit
Theory, 1970): channel current runs from the higher terminal to the lower
(kp, n > 0, lam >= 0), gates and bodies draw none, R > 0, capacitors are
open and gmin goes to ground, so the nodes above a level over max(0, p) lose
current that only a floating source tree spanning the level can return.
Transient and pseudo-transient steps stay unbounded: capacitive coupling
can carry them past a rail.

Transient samples the uniform grid 0, tstep, ..., tstop through one
step-size controller.  Every step spans m grid intervals, m a power of two
that the error estimates below allow and that fits before the next PULSE
corner or the grid's end, so every solved point is a grid sample.  A grid
interval that holds a PULSE corner is a single step, and m restarts at 1.
Single-interval steps use trapezoidal companions after one backward-Euler
(BE) startup step.  Longer steps are BE or, where its estimate allows a
longer step, variable-step BDF2: trapezoid on 640 ps steps leaves supply
currents ringing at the uA level through quiet stretches, which the
L-stable BE and BDF2 damp.  A BDF2 step from t0 to t1 = t0 + h, t_p the
solved point before t0, has alpha = 1/h + 1/(t1 - t_p) and the history
kappa*C*DD1, kappa = h / (t1 - t_p) and DD1 the first divided difference
at t0.  Each member has one table of Newton divided differences of the
full solved state over the last four solved points since the last corner,
newest first, kept by the driver (see `_mna`); a corner resets it to the
point just solved.  The step predictor, the BDF2 history and the error
estimates share it.  Newton starts from the table's polynomial at the
new time, evaluated by Horner: cubic once the table holds four points, of
lower order before, and none at all (the last solved state) on the step
after a corner or the DC start.  A start that does not converge within
_STEP_ITERS = 60 iterations is retried from the last solved state before
the step is halved.  After each solve the table is extended, and
r = h^2 max|DD2(v)| / 4e-5 V, where DD2 is the second divided difference
of the node voltages over the last three solved points (h^2 DD2 estimates
BE's local error h^2 v''/2); from four points on, also
r3 = (2/9) w0 w1 w2 max|DD3| over the same target, w_i = t1 - t_i over the
table's times, which is BDF2's (2/9) h^3 v''' on equal steps.  A step with
m > 1 whose own scheme's ratio exceeds 1 is rejected, its extension
discarded, and retried with m halved.  Otherwise the next m is the largest
power of two <= m sqrt(0.5/r), at most 2m; after a step with m > 1 and r3,
the next step is BDF2 if m (0.5/r3)^(1/3) gives a strictly larger one, and
takes that.  Ties keep BE, which is monotone where BDF2 is not, and r
alone grows single-interval steps.  Samples between solved points are
linear interpolations; `Waveforms.solved` lists the solved grid indices,
and an interpolated sample's `resid_max` is the larger residual of the two
solves around it.  Steps that fail to converge are retried with halved
substeps of their own scheme, BE for BDF2, up to 8 halvings deep.  The
grid is capped at 1,000,000 intervals, checked before anything is
allocated.  All capacitances here are constant, so companions reduce to a
fixed matrix alpha*C plus a history current, which the driver forms from
each step's start, halved substeps too.

The compiled system and the driver that runs the Newton requests of a
batch in lock-step are in `_mna`.  Every public solve is one `_run` of
them, over one request generator per member (`_dc_requests`,
`_transient_requests` with its `_step`, and `measure`'s).
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


def _run(circuits, requests, opts: SolveOptions = SolveOptions()) -> list:
    """Compile `circuits` as one system, one member each, and drive
    `requests(sys_, j)`, member j's generator of Newton requests, for every
    member in lock-step: each member's return value, or the SolverError it
    raised, in order."""
    sys_ = _System(list(circuits))
    return _drive(sys_, [requests(sys_, j) for j in range(len(sys_.circuits))], opts)


def _run_one(circuit: Circuit, requests, opts: SolveOptions = SolveOptions()):
    """`_run` of one circuit: its result, or the error it ended with, raised."""
    (out,) = _run([circuit], requests, opts)
    if isinstance(out, Exception):
        raise out
    return out


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
    base, rhs, hull = sys_.base_matrix(j, GMIN_DEFAULT), sys_.rhs(j, src), sys_.hull(j, src)
    y, total, res, ok, _ = yield (np.zeros(N) if x0 is None else x0, base, rhs, None,
                                  min(lim, _PLAIN_ITERS), hull)
    if ok:
        return OpPoint(_state_from_vector(n, y), res, total, "none")
    x, h = np.zeros(N), 1e-12
    for _ in range(_PTC_STEPS):
        a, v = 1.0 / h, x[:n]
        y, it, res, ok, why = yield (x, sys_.base_matrix(j, GMIN_DEFAULT + a * _PTC_C, a),
                                     sys_.rhs(j, src, a * (C.dot(v) + _PTC_C * v)), None, lim)
        total += it
        if ok and h > 1e-6 and np.abs(y[:n] - v).max() < 1e-9:
            y, it, res, ok, why = yield (y, base, rhs, None, lim, hull)
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
    return _run_one(circuit, lambda s, j: _dc_requests(s, j, opts, x0), opts)


_MAX_HALVINGS = 8
_STEP_ITERS = 60             # Newton iterations of a step start before a fallback
_MAX_GRID_STEPS = 1_000_000  # grid intervals; bounds the grid's length, not its record's N
_LTE_TOL = 4e-5              # V, per-step error target of the step control
_FILL_ROWS = 512             # grid rows interpolated at a time
_BLOCK = 128                 # solved points the record holds before it first doubles


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


def _step(sys_: _System, j: int, bases: dict, x_from, ic_from, t0, t1, use_trap, depth,
          w=(1.0,) * 3, lev=0, table=0, bdf2=False):
    """Member j's implicit step t0 -> t1 from x_from as a generator of
    Newton requests, halving on failure (into BE or trapezoidal halves);
    `bases` caches the member's base matrices by alpha.  The driver applies
    the table op `table`, starts at the table's polynomial of level `lev`,
    then at x_from, forms the rhs and, on convergence, the history, and
    extends the table over w = t1 - t_i (ones for a first half, whose
    extension the second half's replaces; see `_mna`).  A BDF2 step's
    history kappa*C*DD1 comes from the table's DD1 at t0, kappa = h / (t1 -
    t_p).  Returns (x, ic, worst accepted residual, [max|DD2|, max|DD3|]
    over the node rows)."""
    h = t1 - t0
    alpha, kappa = 2.0 / h if use_trap else 1.0 / h, 0.0
    if bdf2:
        alpha, kappa = 1.0 / h + 1.0 / w[1], h / w[1]
    ic_hist = ic_from if use_trap else None
    base = bases.get(alpha)
    if base is None:
        base = bases[alpha] = sys_.base_matrix(j, GMIN_DEFAULT, alpha)
    for lv in (lev, 1) if lev > 1 else (lev,):
        y = yield (x_from, base, None, ic_hist, _STEP_ITERS, (*w, lv, alpha, t1, kappa), table)
        table = 0
        if y[3]:
            return y[0], y[6], y[2], y[5]
    if depth >= _MAX_HALVINGS:
        raise SolverError(
            f"transient step at t={t1:.6g}s failed to converge after "
            f"{_MAX_HALVINGS} halvings (min substep {h:.3g}s)"
        )
    tm = 0.5 * (t0 + t1)
    x_mid, ic_mid, r1, _ = yield from _step(sys_, j, bases, x_from, ic_from, t0, tm,
                                            use_trap, depth + 1)
    x_new, ic_new, r2, dd = yield from _step(sys_, j, bases, x_mid, ic_mid, tm, t1,
                                             use_trap, depth + 1, w)
    return x_new, ic_new, max(r1, r2), dd


def _transient_requests(sys_: _System, j: int, t: np.ndarray):
    """Member j's transient on the grid t, its DC start included, as one
    generator of Newton requests: steps over the grid from the DC operating
    point and returns the member's Waveforms, filled in from its solved
    points."""
    op = yield from _dc_requests(sys_, j)
    n, corners, bases = sys_.n[j], _corner_intervals(sys_.waves[j], t), {}
    n_steps = len(t) - 1
    x = op.state.as_vector()
    # the solved points: one record of grid indices, states and residuals,
    # its first nb rows written, doubled when full
    ix, xs, rs = np.empty(_BLOCK, np.intp), np.empty((_BLOCK, len(x))), np.empty(_BLOCK)
    ix[0], xs[0], rs[0], nb = 0, x, op.residual_max, 1
    ic_cur = None  # capacitor currents at the current solved point
    # the driver keeps the Newton divided differences of the solved states
    # since the last corner, newest first: `lev` rows, at most four, row k
    # over the newest k+1 points; ts holds their times but the oldest, and
    # `table` is the next step's op (2 restarts the table at x, 1 commits)
    ts, lev, table = [0.0], 1, 2
    i, m, c = 0, 1, 0  # grid index, step multiple, next corner in `corners`
    bdf2 = False  # the next multi-interval step is BDF2, else BE
    while i < n_steps:
        while corners[c] < i:
            c += 1
        at_corner = corners[c] == i
        k = 1 if at_corner else min(m, 1 << ((corners[c] - i).bit_length() - 1))
        t0, t1 = t.item(i), t.item(i + k)
        w = [t1 - tk for tk in ts] + [1.0] * (3 - len(ts))
        used = bdf2 and k > 1  # this step's scheme: BDF2, else BE or trapezoid
        x_new, ic_new, res, (dd2, dd3) = yield from _step(
            sys_, j, bases, x, ic_cur, t0, t1, k == 1 and i > 0, 0, w, lev, table, used)
        table = 0
        if at_corner:
            ts, lev, table, m, bdf2 = [t1], 1, 2, 1, False
        else:
            grow = k  # no estimate yet: hold the step
            if lev > 1 and n:
                r = (t1 - t0) ** 2 * dd2 / _LTE_TOL
                r3 = 2.0 / 9.0 * w[0] * w[1] * w[2] * dd3 / _LTE_TOL  # read at lev > 2
                if (r3 if used else r) > 1.0 and k > 1:
                    m = k // 2  # reject: retry from the same point, half the step
                    continue
                # sqrt(0.5/r) >= 2 exactly when r <= 1/8, and the cube
                # root when r3 <= 1/16: only then is the step doubled,
                # and 0.5/r never overflows.  Growth of at most 2x also
                # keeps variable-step BDF2 zero-stable (below 1 + sqrt 2)
                grow = k * math.sqrt(0.5 / r) if r > 0.125 else 2 * k
                bdf2 = False  # BDF2 next only where its step is a longer power of two
                if k > 1 and lev > 2:
                    g3 = k * (0.5 / r3) ** (1.0 / 3.0) if r3 > 0.0625 else 2 * k
                    bdf2 = int(g3).bit_length() > int(grow).bit_length()
                    grow = max(grow, g3)
            ts, lev, table = [t1, *ts[:2]], min(lev + 1, 4), 1
            m = 1 << max(int(grow).bit_length() - 1, 0)
        x, ic_cur, i = x_new, ic_new, i + k
        if nb == len(ix):
            ix, xs, rs = (np.concatenate((a, np.empty_like(a))) for a in (ix, xs, rs))
        ix[nb], xs[nb], rs[nb] = i, x, res
        nb += 1
    # the step matrices go before the grid is filled: freed after it,
    # they fragment the heap, and repeated sweeps peak 1.1 MB higher
    bases.clear()
    return _waveforms(sys_.circuits[j], t, ix[:nb], xs[:nb], rs[:nb])


def _waveforms(circuit: Circuit, t: np.ndarray, ix, xs, rs) -> Waveforms:
    """The grid record of one member from its solved points: rising grid
    indices ix from 0 to the grid's end, states xs and residuals rs.
    Samples between two solves lie on the line joining them,
    x + w*(x_new - x), and carry the larger of the two residuals."""
    rec = np.empty((len(t), xs.shape[1]))  # one row per grid sample
    rrec = np.empty(len(t))
    for lo in range(0, ix[-1], _FILL_ROWS):  # bounded temporaries
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
        solved=ix,
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
    """`transient` of several circuits, of any structures, as one `_run`:
    each member's Waveforms, or the SolverError it failed with, in order,
    each with the bits of its lone run."""
    t = _grid(tstep, tstop)
    return _run(circuits, lambda s, j: _transient_requests(s, j, t))


def transient(circuit: Circuit, tstep: float, tstop: float) -> Waveforms:
    """Implicit transient analysis on the uniform grid 0, tstep, ..., tstop.

    Steps span a power of two grid intervals under local-error control (see
    the module docstring); samples between solved points are linear
    interpolations, and `Waveforms.solved` lists the grid indices that are
    solver states.  The run starts from the DC operating point at the
    sources' initial values and uses the default `SolveOptions` and the
    GMIN_DEFAULT shunt.  `_transient_many` and `measure.characterize_many`
    run several circuits as one batch.
    """
    t = _grid(tstep, tstop)
    return _run_one(circuit, lambda s, j: _transient_requests(s, j, t))
