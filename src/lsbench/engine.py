"""Modified nodal analysis, Newton DC solves, and error-controlled implicit
transient, for one circuit or a batch of circuits.

Unknown vector layout: x = [node voltages (n), source branch currents (ns)].
KCL rows hold the sum of currents leaving each node (a gmin conductance from
every node to ground is included); each voltage source adds one branch-current
unknown and one constraint row (v+ - v-) - V(t) = 0.  Branch currents are
positive into the + terminal.

DC operating points run damped Newton (per-iteration node updates clamped to
+/-0.5 V), converged when both max|dv| < vntol and the worst KCL residual is
below abstol.  On failure the solver falls back to pseudo-transient
continuation, which follows the circuit's own trajectory to a stable state:
backward-Euler steps from zero with 1 fF added to every node, h from 1 ps,
doubled after each converged step (up to 1 s) and quartered after a failed
one, until no node moves 1 nV on a step longer than 1 us; plain Newton then
polishes that state.  The stage takes at most _PTC_STEPS steps and ends
when a step shorter than _PTC_MIN_H fails.

Transient samples the uniform grid 0, tstep, ..., tstop through one
step-size controller.  Every step spans m grid intervals, m a power of two
from 1 to 64, so every solved point is a grid sample.  A grid interval that
holds a PULSE corner is always a single step, and m restarts at 1 after it.
Single-interval steps use the requested scheme: trapezoidal companions after
one backward-Euler startup step (default), or backward Euler throughout.
Longer steps are always backward Euler: trapezoid on 640 ps steps leaves
supply currents ringing at the uA level through quiet stretches, which
L-stable backward Euler damps.  The controller keeps one table of Newton
divided differences of the full solved state over the last four solved
points since the last corner, newest first; a corner resets it to the point
just solved.  The step predictor and the error estimate share it.  Newton
starts from the table's polynomial at the new time, evaluated by Horner:
cubic once the table holds four points, of lower order before, and none at
all (the last solved state) on the step after a corner or the DC start.  A
start that does not converge within the step's iteration limit is retried
from the last solved state before the step is halved.  After each solve the
table is extended, and r = h^2 max|DD2(v)| / 1e-5 V, where DD2 is the
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
reduce to a fixed matrix alpha*C plus a history current.

Batches.  `_System` compiles B circuits of any structures (a sweep's
points, the six topologies of the bench, a circuit and its pinned copies
for static power).  Each member keeps its own node count n, unknown count
N, matrices G (N x N) and C (n x n), and MOSFETs; the device parameters of
all members form one array.  The solvers are generators of Newton
requests: the DC stages and each member's transient controller, with
`step()` and its halving, yield (start, base matrix, constant part of f,
trapezoidal history, iteration limit) and receive (x, iterations,
residual, converged, reason).  A member's transient is one generator from
its DC start to its last step.  One driver, `_drive`, runs the requests of
all live members in lock-step.  `live` lays them out back to back in flat
buffers: over all S live unknowns the states, residuals and their
negations, constant parts of f, trapezoidal histories (node rows, zeros
elsewhere) and Newton updates; over their N*N entries the base matrices
and Jacobians.  Members of one N form a group, whose arrays are views of
consecutive rows.  Each iteration is one `assemble` (a matvec per group,
then whole-batch passes for the constant parts, histories, device currents
and Jacobians), one reduction for all worst node residuals, one solve per
group (stacked over its members), one pass for all update norms and, when
every member moves, one state update; only the convergence, damping and
iteration-limit checks loop over members.  A group of one keeps the vector
matvec and solve, cheaper and bitwise equal; nothing else branches on
group size.  Sizes are never padded to a common N: an identity block
changes the bits of the solve.  A member whose request ends gets its
result at once and joins the next iteration with its next request, so
every member keeps its own step sequence; the live set is planned again
only when a member ends.  A singular member makes its group's stacked
solve raise; that group is then solved member by member, and only the
singular one fails.  B = 1 is the only single-circuit path: `transient`
and `dc_operating_point` are batches of one, and `transient_many` runs
several.  During a batched transient members keep only their solved
points; a member's grid is filled in when it is yielded.

Stamp plan.  `_System` compiles each member once into flat arrays.  Per
Newton iteration, `mos_currents` gathers the terminal voltages of every
live MOSFET straight from the flat states, which end in a 0 for ground,
evaluates them with one `_core_eval` call and writes a (5, M) buffer: the
drain->source currents, then the conductance columns for the drain, gate,
source and body nodes.  `assemble` gathers that buffer through one
precomputed index, multiplies by a sign vector, and scatters everything
with a single `bincount`.  A member's f bins sit at its state offset, so
the first S bins line up with the residuals, and its N*N J bins, row-major,
at its matrix offset after all S, so the rest line up with the Jacobians.
Within a member the f entries come first and the J entries second, each
in device order, so every bin sums its terms in a fixed order, the same in
every batch.

Exact rewrites only.  The transient output, and hence `bench --format csv`,
is byte-deterministic and compared across versions, and a member of any
batch must produce exactly the bits of its lone run.  Edits to the hot path
(`_core_eval`, `mos_currents`, `assemble`, `_drive`) must perform
the same floating-point operations in the same order.  Allowed: hoisting a
left-to-right leading product (`ispec*lam*qq` -> `(ispec*lam)*qq`) or a
per-request term (alpha*C*v_prev once per request instead of per iteration),
`2.0*x` -> `x+x`, `(y*2.0)*a` -> `y*(2a)`, stacking elementwise operations
into one array (over members too: the elementwise kernels, the stacked
matmul and the stacked solve give each member the bits of its own call,
wherever it sits in the batch),
skipping an operation that is the identity on the values it meets
(clipping an update already inside the clamp, subtracting a zero history),
adding a zero device bin to a base matrix, which holds no -0.0, and taking
a maximum over any grouping of its terms.
Not allowed: reordering sums or products (`ispec*qq*mlam` ->
`(ispec*mlam)*qq`), algebraic identities that change rounding (sigma as
e/(1+e)), or BLAS for the scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .devmodel import _core_eval, _eval_consts, cap_lumps, source_value
from .netlist import Circuit

GMIN_DEFAULT = 1e-12


class SolverError(RuntimeError):
    pass


@dataclass
class SolveOptions:
    abstol: float = 1e-9   # A, KCL residual bound
    vntol: float = 1e-6    # V, Newton update bound
    max_iter: int = 200
    vclamp: float = 0.5    # V, per-node per-iteration damping clamp


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
    tstep: float = 0.0
    # KCL residual per grid point: a solver state's own, or for an
    # interpolated sample the larger of its two bracketing solves'
    resid_max: np.ndarray | None = None
    gmin: float = GMIN_DEFAULT           # shunt used in the run; power corrections need it
    solved: np.ndarray | None = None     # grid indices that are solver states


def _stamp(idx: list, val: list, size: int, a: int, b: int, v: float) -> None:
    """Append the stamp of a two-terminal value v between nodes a and b
    (-1 = ground) to the flat entries idx and values val of a size x size
    matrix."""
    if a >= 0:
        idx.append(a * size + a); val.append(v)
    if b >= 0:
        idx.append(b * size + b); val.append(v)
    if a >= 0 and b >= 0:
        idx += (a * size + b, b * size + a); val += (-v, -v)


def _dense(idx: list, val: list, size: int) -> np.ndarray:
    """The matrix of the stamped entries; bincount sums each entry's terms
    in stamping order."""
    return np.bincount(np.array(idx, dtype=np.intp), weights=np.array(val, dtype=float),
                       minlength=size * size).reshape(size, size)


def _linear_matrices(circuit: Circuit, n: int, N: int):
    """(G, C): resistor conductances plus voltage-source incidence over all N
    unknowns, and the node capacitance matrix (n x n).  Each entry sums its
    terms in card order."""
    gi, gv = [], []
    for r in circuit.resistors:
        _stamp(gi, gv, N, r.a, r.b, 1.0 / r.value)
    for k, s in enumerate(circuit.sources):
        row = n + k
        if s.p >= 0:
            gi += (s.p * N + row, row * N + s.p); gv += (1.0, 1.0)
        if s.m >= 0:
            gi += (s.m * N + row, row * N + s.m); gv += (-1.0, -1.0)
    ci, cv = [], []
    for cap in circuit.caps:
        _stamp(ci, cv, n, cap.a, cap.b, cap.value)
    for m in circuit.mosfets:
        cg, cj = cap_lumps(m.params, m.w, m.l)
        _stamp(ci, cv, n, m.g, m.s, cg)
        _stamp(ci, cv, n, m.g, m.d, cg)
        _stamp(ci, cv, n, m.d, m.b, cj)
        _stamp(ci, cv, n, m.s, m.b, cj)
    return _dense(gi, gv, N), _dense(ci, cv, n)


_MOS_FIELDS = ("vth0", "n_slope", "kp", "lam", "eta_dibl", "gamma_body", "phi_s")


def _stamp_plan(circuit: Circuit, n: int, N: int) -> tuple:
    """One circuit's stamp plan: the (d, g, s, b) nodes of its M MOSFETs as
    a (4, M) array, ground being node N (one past the unknowns of its state
    vector, where the live plan keeps a 0), then per stamp term the entry of its
    (5, M) device buffer it gathers (row 0 the drain->source currents, rows
    1..4 the d, g, s, b conductances), its accumulator bin and its sign.
    The bins are those of the member alone: 0..n-1 the node rows of f and
    N + row*N + col the entries of J.  The f terms come first, +i at the
    drain row and -i at the source row; the J terms follow, rows
    (d,+1),(s,-1) x cols (d,g,s,b), each part in device order."""
    mos = circuit.mosfets
    M = len(mos)
    gather, bins, sgn = [], [], []
    for k, m in enumerate(mos):
        for row, rs in ((m.d, 1.0), (m.s, -1.0)):
            if row >= 0:
                gather.append(k); bins.append(row); sgn.append(rs)
    for k, m in enumerate(mos):
        cols = ((m.d, 1), (m.g, 2), (m.s, 3), (m.b, 4))
        for row, rs in ((m.d, 1.0), (m.s, -1.0)):
            if row < 0:
                continue
            for col, c in cols:
                if col >= 0:
                    gather.append(c * M + k); bins.append(N + row * N + col); sgn.append(rs)
    term = np.array([[m.d, m.g, m.s, m.b] for m in mos], dtype=np.intp).reshape(M, 4).T
    return (np.where(term >= 0, term, N), np.array(gather, dtype=np.intp),
            np.array(bins, dtype=np.intp), np.array(sgn))


class _Group:
    """The live members of one unknown count N, at the live positions
    p0 .. p0+L-1: views of their rows of the system's flat buffers, states
    X, base matrices BASE, residuals F, negated residuals NF, updates DX and
    Jacobians J.  A group of one sees a vector and an N x N matrix, for the
    vector matvec and solve; a larger group (L, N, 1) columns and (L, N, N)
    matrices, for the stacked ones."""

    def __init__(self, s, p0, L, N, xo, jo):
        self.p0, self.L, self.N = p0, L, N
        vs, ms = ((N,), (N, N)) if L == 1 else ((L, N, 1), (L, N, N))
        self.X, self.F, self.NF, self.DX = (a[xo:xo + L * N].reshape(vs)
                                            for a in (s.xbuf, s.F, s.NF, s.DX))
        self.BASE, self.J = (a[jo:jo + L * N * N].reshape(ms) for a in (s.BASE, s.J))


class _System:
    """Compiled stamping plans for a batch of circuits of any structures.

    Member j keeps its own sizes n[j] and N[j], matrices G[j], C[j] and
    stamp plan; the devices of all members share one parameter array.
    `live` plans the members that `assemble` works on."""

    def __init__(self, circuits: list):
        if not circuits:
            raise ValueError("a batch needs at least one circuit")
        self.circuits = circuits
        self.n = [c.n_nodes for c in circuits]
        self.N = [c.n_nodes + len(c.sources) for c in circuits]
        self.G, self.C = zip(*[_linear_matrices(c, n, N)
                               for c, n, N in zip(circuits, self.n, self.N)])
        self.waves = [[s.wave for s in c.sources] for c in circuits]
        self.plans = [_stamp_plan(c, n, N) for c, n, N in zip(circuits, self.n, self.N)]
        # the MOSFETs of all members back to back, member j's from m0[j]:
        # polarity signs, the seven model parameters then w and l (9, M),
        # and their bias-independent terms
        self.m0 = list(accumulate((len(c.mosfets) for c in circuits), initial=0))
        ms = [m for c in circuits for m in c.mosfets]
        self.m_sgn = np.array([1.0 if m.params.polarity == "nmos" else -1.0 for m in ms])
        self._p = np.array([getattr(m.params, f) for f in _MOS_FIELDS for m in ms]
                           + [m.w for m in ms] + [m.l for m in ms]).reshape(9, len(ms))
        self._c = _eval_consts(*self._p[1:])

    def live(self, members) -> list:
        """Plan `members`, a list of member indices, for `assemble` and
        return their groups: members of one unknown count N form a group, the
        groups in the order of their first members, and the live positions
        run through the groups in that order.  Position p owns entries
        xo[p] .. xo[p+1]-1 of the flat buffers over all S live unknowns (the
        states `xbuf`, whose entry S stays 0 for ground, F, NF, DX, R and IC,
        node rows then source rows) and entries jo[p] .. jo[p+1]-1 of BASE and
        J.  The live devices form one array in the same order; a member's f
        bins sit at its state offset and its J bins at S + its matrix offset,
        so every member sums the same terms in the same order as alone."""
        sizes = {}
        for j in members:
            sizes.setdefault(self.N[j], []).append(j)
        self.members = ms = [j for g in sizes.values() for j in g]
        ns, Ns = [self.n[j] for j in ms], [self.N[j] for j in ms]
        self.xo, self.jo = xo, jo = [list(accumulate(a, initial=0))
                                     for a in (Ns, [N * N for N in Ns])]
        S = xo[-1]
        self.xbuf, self.ab = np.zeros((2, S + 1))  # ab: |F| or |DX|, then a 0
        self.IC = np.zeros(S)  # zeros but on the history rows
        self.F, self.NF, self.DX, self.R = np.empty((4, S))
        self.BASE, self.J = np.empty((2, jo[-1]))
        self.has_ic = [False] * len(ms)
        per = lambda a, ln: [a[o:o + k] for o, k in zip(xo, ln)]  # each position's rows
        self.xv, self.dxv, self.rv, self.icv = (per(self.xbuf, Ns), per(self.DX, Ns),
                                                per(self.R, Ns), per(self.IC, ns))
        self.bv = [self.BASE[a:a + N * N].reshape(N, N) for a, N in zip(jo, Ns)]
        # reduceat bounds in ab: each position's rows, and its node rows then
        # its source rows.  ab's trailing 0 lets a segment start at S; an
        # empty segment (no node, or no unknown) reads the element at its
        # start, so `_drive` zeroes the maxima of the `nodeless` positions
        self.xidx = np.array(xo[:-1], dtype=np.intp)
        self.ridx = np.array([o + d for o, n in zip(xo, ns) for d in (0, n)], dtype=np.intp)
        self.nodeless = [(p, Ns[p]) for p, n in enumerate(ns) if not n]
        self.nrows, self.mrows = np.zeros((2, S), bool)  # node rows, with MOSFETs
        self.groups, gidx, gather, bins, sgn, spans = [], [], [], [], [], []
        p = 0
        for N, g in sizes.items():
            self.groups.append(_Group(self, p, len(g), N, xo[p], jo[p]))
            for j in g:
                o, n = xo[p], ns[p]
                term, gt, b, sg = self.plans[j]
                if S > N:  # the member's rows and bins move to its offsets
                    term = np.where(term < N, term + o, S)
                    b = np.where(b < N, b + o, b + (S - N + jo[p]))
                gidx.append(term); gather.append(gt); bins.append(b); sgn.append(sg)
                spans.append((self.m0[j], self.m0[j + 1]))
                self.nrows[o:o + n] = True
                self.mrows[o:o + n] = self.m0[j] < self.m0[j + 1]
                p += 1
        self.n_bins = S + jo[-1]
        M = sum(b - a for a, b in spans)
        if len(ms) > 1:  # a member's buffer entry (r, k) moves to (r, its offset + k)
            mo = 0
            for i, (a, b) in enumerate(spans):
                if b > a:
                    gather[i] = gather[i] // (b - a) * M + gather[i] % (b - a) + mo
                mo += b - a
        cat = lambda parts: parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
        self._gidx, self._gather = cat(gidx), cat(gather)
        self._bin, self._sgn = cat(bins), cat(sgn)
        # the live devices' rows of the parameter arrays: views where they
        # are consecutive, as for one member or a whole batch in order
        if all(a == b for (_, a), (b, _) in zip(spans, spans[1:])):
            rows = slice(spans[0][0], spans[-1][1])
        else:
            rows = np.concatenate([np.arange(a, b) for a, b in spans])
        (self.p_vth0, self.p_n, self.p_kp, self.p_lam, self.p_eta, self.p_gamma,
         self.p_phi, self.m_w, self.m_l) = self._p[:, rows]
        nhphi, sqphi, a, a2, etas, ispec, ispec_lam = self._c
        self.c_eval = (nhphi[rows], sqphi[rows], a[rows], a2[rows], etas[:, rows],
                       ispec[rows], ispec_lam[rows])
        self._msgn = self.m_sgn[rows]
        self._mbuf = np.zeros((5, M))
        self._mflat = self._mbuf.reshape(-1)
        return self.groups

    def load(self, p: int, req: tuple) -> None:
        """Load the request (x0, base, rhs, ic, limit) into live position p.
        A member without a history keeps zero IC rows, which subtract
        exactly, while another member's history is in use."""
        x0, base, rhs, ic, _ = req
        self.xv[p][:], self.bv[p][:], self.rv[p][:] = x0, base, rhs
        if ic is not None or self.has_ic[p]:
            self.icv[p][:] = 0.0 if ic is None else ic
            self.has_ic[p] = ic is not None

    # -- device evaluation ------------------------------------------------

    def mos_currents(self) -> np.ndarray:
        """Evaluate the live MOSFETs at the live states in `xbuf`.  Returns a
        (5, M) buffer over the live devices, overwritten by the next call:
        row 0 holds the physical drain->source currents, rows 1..4 the
        conductances w.r.t. the drain, gate, source and body node voltages."""
        out = self._mbuf
        vt = self.xbuf[self._gidx] * self._msgn
        vd, vg, vs, vb = vt[0], vt[1], vt[2], vt[3]
        hi = np.maximum(vd, vs)
        lo = np.minimum(vd, vs)
        swap = vd < vs
        idn, gm, gds, gmb = _core_eval(
            vg - lo, hi - lo, lo - vb,
            self.p_vth0, self.p_n, self.p_kp, self.p_lam,
            self.p_eta, self.p_gamma, self.p_phi, self.m_w, self.m_l,
            c=self.c_eval,
        )
        # conductances are reflection-invariant; swapping exchanges the roles
        # of the drain and source columns and flips the gate/body signs
        gmb_gm = gm + gmb
        msw = swap * gmb_gm
        sflip = np.where(swap, -1.0, 1.0)
        np.multiply(idn, sflip * self._msgn, out=out[0])
        np.add(gds, msw, out=out[1])                # d column: gds | gsum
        np.multiply(gm, sflip, out=out[2])          # g column: gm | -gm
        np.subtract(msw, gmb_gm + gds, out=out[3])  # s column: -gsum | -gds
        np.multiply(gmb, sflip, out=out[4])         # b column: gmb | -gmb
        return out

    # -- assembly ----------------------------------------------------------

    def rhs(self, j: int, t: float, hist=None) -> np.ndarray:
        """Member j's constant part of f: the companion history alpha*C*v_prev
        on the node rows (zeros for DC, which subtract exactly) and the
        source values at t on the source rows."""
        n = self.n[j]
        r = np.empty(self.N[j])
        r[:n] = 0.0 if hist is None else hist
        r[n:] = [source_value(w, t) for w in self.waves[j]]
        return r

    def base_matrix(self, j: int, gmin: float, alpha: float = 0.0) -> np.ndarray:
        """Member j's linear part: G + alpha*C + gmin on the node diagonal
        (a copy of G with alpha*C added to its node block: G holds no -0.0,
        which adding zeros elsewhere would turn into +0.0)."""
        n = self.n[j]
        base = self.G[j].astype(float)  # a float copy, also of an empty bincount
        base[:n, :n] += alpha * self.C[j]
        idx = np.arange(n)
        base[idx, idx] += gmin
        return base

    def assemble(self) -> tuple:
        """(J, F) over the live positions at their states and the requests
        loaded into them, flat: f = BASE x - R - IC plus the device currents
        on the node rows of members with MOSFETs, and J = BASE plus the
        device conductances.  All live devices are evaluated in one call and
        scattered with one `bincount` whose first S bins line up with F and
        the rest with J.  A zero bin is added to BASE, which holds no -0.0
        (see `base_matrix`), but not to f, where it would turn -0.0 into
        +0.0."""
        F = self.F
        for g in self.groups:  # a group of one: dot, cheaper than matmul and bitwise equal
            (np.dot if g.L == 1 else np.matmul)(g.BASE, g.X, out=g.F)
        F -= self.R
        if True in self.has_ic:
            F -= self.IC
        if self._mbuf.shape[1]:
            self.mos_currents()
            acc = np.bincount(self._bin, weights=self._sgn * self._mflat[self._gather],
                              minlength=self.n_bins)
            np.add(F, acc[:len(F)], out=F, where=self.mrows)
            np.add(self.BASE, acc[len(F):], out=self.J)
        else:
            self.J[:] = self.BASE
        return self.J, F

    def assemble_one(self, j: int, x, base, rhs, ic=None):
        """(J, f) of member j alone at state x, with the given base matrix,
        `rhs` and trapezoidal history (or None).  Replaces the live plan; the
        arrays are the plan's own, which no later plan reuses."""
        self.live([j])
        self.load(0, (x, base, rhs, ic, 1))
        J, f = self.assemble()
        return J.reshape(base.shape), f


# -- Newton ------------------------------------------------------------------
#
# Solvers are generators of Newton requests.  A request is the tuple
# (x0, base, rhs, ic, max_iter): the start, the member's base matrix and
# `rhs`, its trapezoidal history current (or None) and the iteration limit.
# The generator receives (x, iterations, residual_max, converged,
# failure_reason) back, and finally returns its result or raises SolverError.

_SINGULAR = "singular Jacobian (check for floating nodes)"


def _solve_each(J, NF):
    """The Newton updates J^-1 NF of stacked systems one at a time, after the
    stacked solve found a singular J, and the set of the singular rows."""
    dx = np.full_like(NF, np.nan)
    bad = set()
    for q in range(len(NF)):
        try:
            dx[q] = np.linalg.solve(J[q], NF[q])
        except np.linalg.LinAlgError:
            bad.add(q)
    return dx, bad


def _drive(sys_: _System, gens: list, opts: SolveOptions) -> list:
    """Run the Newton requests of the members' generators (None for a member
    that does not take part) in lock-step until every generator has ended.
    Returns each member's return value, or the SolverError it raised.

    Each iteration assembles every live member with one `assemble` call,
    takes every member's worst node residual with one reduction, solves
    each group of one size with one stacked solve (one vector solve for a
    group of one), takes the update norms with one more pass and, when every
    member moves, updates all states with one add.  Per member it applies
    damped Newton: converged when both max|dv| < vntol and the worst KCL
    residual is below abstol, node updates clamped to +/-vclamp.  A member
    whose request ends gets its result at once and joins the next iteration
    with its next request, so it does the same arithmetic as it would
    alone.  The live members are planned again only when one of them ends;
    the others keep their states and requests."""
    abstol, vntol, vclamp = opts.abstol, opts.vntol, opts.vclamp
    absolute, top, isfinite, solve = np.abs, np.maximum.reduceat, math.isfinite, np.linalg.solve
    out = [None] * len(gens)
    reqs = {j: None for j, g in enumerate(gens) if g is not None}  # member -> request
    if not reqs:
        return out
    groups = sys_.live(reqs)
    at = {j: p for p, j in enumerate(sys_.members)}  # member -> live position
    start, stop, dv_ok = [0] * len(at), [0] * len(at), [False] * len(at)
    sends = [(j, None) for j in reqs]  # (member, result for its generator)
    k = 0  # iterations so far
    while True:
        if sends:
            gone = False
            for j, result in sends:
                gen = gens[j]
                while True:
                    try:
                        req = gen.send(result)
                    except StopIteration as e:
                        out[j], req = e.value, None
                    except SolverError as e:
                        out[j], req = e, None
                    if req is None or req[4] >= 1:
                        break
                    result = (req[0].copy(), req[4], np.inf, False, "iteration limit")
                if req is None:
                    del reqs[j]
                    gone = True
                    continue
                reqs[j] = req
                p = at[j]
                sys_.load(p, req)
                start[p], stop[p], dv_ok[p] = k, k + req[4], False
            sends = []
            if gone:  # a new plan, carrying the other members over
                if not reqs:
                    return out
                old, xs, counters = at, sys_.xv, (start, stop, dv_ok)
                groups = sys_.live(reqs)  # in member order
                at = {j: p for p, j in enumerate(sys_.members)}
                start, stop, dv_ok = ([c[old[j]] for j in at] for c in counters)
                for j, p in at.items():
                    sys_.load(p, reqs[j])
                    sys_.xv[p][:] = xs[old[j]]
            P, members, xv, ab, ridx = len(at), sys_.members, sys_.xv, sys_.ab, sys_.ridx

        k += 1
        _, F = sys_.assemble()
        absolute(F, out=ab[:-1])
        res = top(ab, ridx)[::2].tolist()  # each member's worst node residual
        for p, _ in sys_.nodeless:  # an empty segment reads the element at its start
            res[p] = 0.0
        np.negative(F, out=sys_.NF)
        todo, done = range(P), ()
        if True in dv_ok:  # converged: the last update and this residual are small
            todo, done = [], set()
            for p in range(P):
                if dv_ok[p] and res[p] < abstol:
                    sends.append((members[p], (xv[p].copy(), k - start[p], res[p], True, "")))
                    done.add(p)
                else:
                    todo.append(p)
            if not todo:
                continue
        bad = set()
        for g in groups:
            i = [q for q in range(g.L) if g.p0 + q not in done] if done else range(g.L)
            if not i:
                continue
            try:  # one member: the vector solve, cheaper and bitwise equal
                if len(i) == g.L:
                    g.DX[...] = solve(g.J, g.NF)
                else:
                    g.DX[i] = solve(g.J[i], g.NF[i])
            except np.linalg.LinAlgError:
                dx, b = _solve_each(g.J.reshape(-1, g.N, g.N)[i], g.NF.reshape(-1, g.N)[i])
                g.DX.reshape(-1, g.N)[i] = dx
                bad.update(g.p0 + i[q] for q in b)
        DX = sys_.DX
        absolute(DX, out=ab[:-1])  # NaN and inf propagate through the maxima
        amax, dvm = top(ab, sys_.xidx).tolist(), top(ab, ridx)[::2].tolist()
        for p, N in sys_.nodeless:
            dvm[p] = 0.0
            if not N:
                amax[p] = 0.0
        moved, post, clamp = [], [], False
        for p in todo:
            if p in bad or not isfinite(amax[p]):
                why = _SINGULAR if p in bad else "non-finite Newton update"
                sends.append((members[p], (xv[p].copy(), k - start[p], res[p], False, why)))
                continue
            moved.append(p)
            dv = dvm[p]
            if dv > vclamp:
                clamp = True
            if res[p] < abstol and dv < vntol:
                post.append((p, True, ""))  # residual and update both inside tolerance
            else:
                dv_ok[p] = dv < vntol
                if k == stop[p]:
                    post.append((p, False, "iteration limit"))
        if not moved:
            continue
        if clamp:  # clip node rows, the identity on updates inside the clamp
            np.minimum(DX, vclamp, out=DX, where=sys_.nrows)
            np.maximum(DX, -vclamp, out=DX, where=sys_.nrows)
        if len(moved) == P:
            sys_.xbuf[:-1] += DX
        else:
            for p in moved:
                xv[p] += sys_.dxv[p]
        for p, ok, why in post:
            sends.append((members[p], (xv[p].copy(), k - start[p], res[p], ok, why)))


def _state_from_vector(n: int, x: np.ndarray) -> SysState:
    return SysState(v=x[:n].copy(), i_branch=x[n:].copy())


_PTC_C = 1e-15      # F, added to every node's capacitance in the pseudo-transient
_PTC_STEPS = 200    # steps the pseudo-transient may take
_PTC_MIN_H = 4e-18  # s, a failed pseudo-transient step shorter than this ends it


def _dc_requests(sys_: _System, j: int, opts: SolveOptions, gmin: float,
                 t: float, x0: np.ndarray | None):
    """Member j's DC operating point as a generator of Newton requests:
    plain Newton, then pseudo-transient continuation (see the module
    docstring).  Returns an OpPoint; raises SolverError when both fail."""
    lim, n, N, C = opts.max_iter, sys_.n[j], sys_.N[j], sys_.C[j]
    base, rhs = sys_.base_matrix(j, gmin), sys_.rhs(j, t)
    y, total, res, ok, _ = yield (np.zeros(N) if x0 is None else x0, base, rhs, None, lim)
    if ok:
        return OpPoint(_state_from_vector(n, y), res, total, "none")
    x, h = np.zeros(N), 1e-12
    for _ in range(_PTC_STEPS):
        a, v = 1.0 / h, x[:n]
        y, it, res, ok, why = yield (x, sys_.base_matrix(j, gmin + a * _PTC_C, a),
                                     sys_.rhs(j, t, a * (C.dot(v) + _PTC_C * v)), None, lim)
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
                       gmin: float = GMIN_DEFAULT, t: float = 0.0,
                       x0: np.ndarray | None = None) -> OpPoint:
    """Solve the DC operating point with sources at their t=0 values.

    Tries plain Newton first, then pseudo-transient continuation (see the
    module docstring).  Raises SolverError when both fail.
    """
    opts = opts or SolveOptions()
    sys_ = _System([circuit])
    (op,) = _drive(sys_, [_dc_requests(sys_, 0, opts, gmin, t, x0)], opts)
    if isinstance(op, SolverError):
        raise op
    return op


_MAX_HALVINGS = 8
_MAX_GRID_STEPS = 1_000_000  # grid intervals; bounds every waveform allocation
_MAX_MULT = 64               # longest step, in grid intervals
_LTE_TOL = 1e-5              # V, per-step error target of the step control
_FILL_ROWS = 512             # grid rows interpolated per block
_BLOCK = 128                 # solved points recorded per block


def _corner_intervals(waves, n_steps: int, tstep: float, tstop: float) -> list:
    """Sorted indices j of the grid intervals [t[j], t[j+1]] that hold a PULSE
    corner (td + k*per + {0, tr, tr+pw, tr+pw+tf}), then n_steps as a
    sentinel.  A corner on a grid point marks the interval that starts there.
    The work is O(grid size): a period no longer than tstep puts a corner
    into every interval from td on, and a longer one repeats fewer times
    than there are intervals."""
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
    return np.unique(np.concatenate(marks)).tolist()


class _Stepper:
    """Member j's transient on the grid t, its DC start included, as one
    generator of Newton requests (`run`)."""

    def __init__(self, sys_: _System, j: int, t: np.ndarray, tstep: float, scheme: str,
                 opts: SolveOptions, gmin: float):
        self.sys, self.j, self.t, self.scheme = sys_, j, t, scheme
        self.opts, self.gmin = opts, gmin
        self.n, self.C = sys_.n[j], sys_.C[j]
        self.corners = _corner_intervals(sys_.waves[j], len(t) - 1, tstep, t[-1])
        self.iters = min(opts.max_iter, 60)  # failed steps fall back to halving
        self.bases: dict = {}  # alpha -> base matrix

    def step(self, x_from, ic_from, t0, t1, use_trap, depth, guess=None):
        """One implicit step t0 -> t1, halving on failure.  Returns
        (x, ic, worst accepted residual)."""
        n = self.n
        h = t1 - t0
        alpha = 2.0 / h if use_trap else 1.0 / h
        ic_hist = ic_from if use_trap else None
        base = self.bases.get(alpha)
        if base is None:
            base = self.bases[alpha] = self.sys.base_matrix(self.j, self.gmin, alpha)
        rhs = self.sys.rhs(self.j, t1, alpha * self.C.dot(x_from[:n]))
        starts = (guess, x_from) if guess is not None else (x_from,)
        for start in starts:
            x_new, _, res, ok, _ = yield (start, base, rhs, ic_hist, self.iters)
            if ok:
                ic_new = alpha * self.C.dot(x_new[:n] - x_from[:n])
                if ic_hist is not None:
                    ic_new -= ic_hist
                return x_new, ic_new, res
        if depth >= _MAX_HALVINGS:
            raise SolverError(
                f"transient step at t={t1:.6g}s failed to converge after "
                f"{_MAX_HALVINGS} halvings (min substep {h:.3g}s)"
            )
        tm = 0.5 * (t0 + t1)
        x_mid, ic_mid, r1 = yield from self.step(x_from, ic_from, t0, tm, use_trap, depth + 1)
        x_new, ic_new, r2 = yield from self.step(x_mid, ic_mid, tm, t1, use_trap, depth + 1)
        return x_new, ic_new, max(r1, r2)

    def run(self, ic):
        """Step over the grid from `ic`, an OpPoint, or from the DC operating
        point where ic is "auto"; returns the blocks of the solved grid
        indices, the states there and their residuals."""
        op = ic if isinstance(ic, OpPoint) else (
            yield from _dc_requests(self.sys, self.j, self.opts, self.gmin, 0.0, None))
        n, t, corners = self.n, self.t, self.corners
        n_steps = len(t) - 1
        x = op.state.as_vector()
        # the solved points in blocks of (grid indices, states, residuals);
        # each block starts with the last point of the one before
        ib, xb, rb = np.empty(_BLOCK, np.intp), np.empty((_BLOCK, len(x))), np.empty(_BLOCK)
        ib[0], xb[0], rb[0] = 0, x, op.residual_max
        blocks, nb = [(ib, xb, rb)], 1
        ic_cur = np.zeros(n)  # capacitor currents at the current solved point
        # Newton divided differences of the solved states since the last
        # corner, newest first: dd[k] over the newest k+1 points, at most
        # four; ts holds their times but the oldest, all Horner needs
        dd, ts = [x], [0.0]
        i, m, c = 0, 1, 0  # grid index, step multiple, next corner in `corners`
        while i < n_steps:
            while corners[c] < i:
                c += 1
            at_corner = corners[c] == i
            k = 1 if at_corner else min(m, 1 << ((corners[c] - i).bit_length() - 1))
            t0, t1 = t[i], t[i + k]
            guess = None  # the table's polynomial at t1, by Horner
            if len(dd) > 1:
                guess = dd[-1]
                for d, tk in [*zip(dd[:-1], ts)][::-1]:
                    guess = d + (t1 - tk) * guess
            x_new, ic_new, res = yield from self.step(
                x, ic_cur, t0, t1, k == 1 and self.scheme == "trap" and i > 0, 0, guess)
            if at_corner:
                dd, ts, m = [x_new], [t1], 1
            else:
                new = [x_new]
                for d, tk in zip(dd, ts):
                    new.append((new[-1] - d) / (t1 - tk))
                grow = k  # no estimate yet: hold the step
                if len(new) > 2 and n:
                    r = (t1 - t0) ** 2 * float(np.abs(new[2][:n]).max()) / _LTE_TOL
                    if r > 1.0 and k > 1:
                        m = k // 2  # reject: retry from the same point, half the step
                        continue
                    grow = min(2 * k, _MAX_MULT,
                               k * math.sqrt(0.5 / r) if r > 0.0 else math.inf)
                dd, ts = new, [t1, *ts[:2]]
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


def _waveforms(circuit: Circuit, t: np.ndarray, tstep: float, gmin: float,
               blocks: list) -> Waveforms:
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
        tstep=tstep,
        resid_max=rrec,
        gmin=gmin,
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


def transient_many(circuits, tstep: float, tstop: float,
                   scheme: str = "trap", ic="auto",
                   opts: SolveOptions | None = None,
                   gmin: float = GMIN_DEFAULT):
    """`transient` of several circuits, of any structures, solved together.

    Every member takes its own DC start and its own steps, exactly as it
    would alone; the Newton iterations of all members run in lock-step, with
    one device evaluation for the whole batch and one linear solve per
    group of members of one size (see the module docstring).  `ic` is
    "auto" or one OpPoint that every member starts from.  Returns an
    iterator that yields, in order, each member's Waveforms or the
    SolverError that member failed with; a member's grid is filled in only
    when it is yielded.  The batch holds every member's solved points until
    it ends, so its memory grows with the number of circuits; a caller that
    drops each Waveforms before asking for the next holds one grid at a time
    (a zip over the iterator keeps the previous result in its reused tuple
    while the next grid is filled).
    """
    if scheme not in ("trap", "be"):
        raise ValueError(f"unknown scheme {scheme!r}")
    t = _grid(tstep, tstop)
    opts = opts or SolveOptions()
    sys_ = _System(list(circuits))
    if not (isinstance(ic, OpPoint) or ic == "auto"):
        raise ValueError("ic must be 'auto' or an OpPoint")
    results = _drive(sys_, [_Stepper(sys_, j, t, tstep, scheme, opts, gmin).run(ic)
                            for j in range(len(sys_.circuits))], opts)
    circuits = sys_.circuits
    del sys_

    def members():
        for j, c in enumerate(circuits):
            r, results[j] = results[j], None
            if not isinstance(r, SolverError):
                r = _waveforms(c, t, tstep, gmin, r)  # drops the solved points
            yield r
    return members()


def transient(circuit: Circuit, tstep: float, tstop: float,
              scheme: str = "trap", ic: OpPoint | str = "auto",
              opts: SolveOptions | None = None,
              gmin: float = GMIN_DEFAULT) -> Waveforms:
    """Implicit transient analysis on the uniform grid 0, tstep, ..., tstop.

    Steps span 1 to 64 grid intervals under local-error control (see the
    module docstring); samples between solved points are linear
    interpolations, and `Waveforms.solved` lists the grid indices that are
    solver states.  The initial condition is the DC operating point at the
    sources' initial values unless an OpPoint is passed explicitly.  This is
    `transient_many` of one circuit.
    """
    (waves,) = transient_many([circuit], tstep, tstop, scheme, ic, opts, gmin)
    if isinstance(waves, SolverError):
        raise waves
    return waves
