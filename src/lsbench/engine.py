"""Modified nodal analysis, Newton DC solves, and error-controlled implicit
transient, for one circuit or a batch of circuits.

Unknown vector layout: x = [node voltages (n), source branch currents (ns)].
KCL rows hold the sum of currents leaving each node (a gmin conductance from
every node to ground is included); each voltage source adds one branch-current
unknown and one constraint row (v+ - v-) - V(t) = 0.  Branch currents are
positive into the + terminal.

DC operating points run damped Newton (per-iteration node updates clamped to
+/-0.5 V), converged when both max|dv| < vntol and the worst KCL residual is
below abstol.  On failure the solver falls back to gmin stepping (1e-3 S down
to the 1e-12 S floor in decade steps) and then to source stepping (all source
values scaled 0 -> 1 in 20 increments), each stage warm-starting the next.

Transient samples the uniform grid 0, tstep, ..., tstop through one
step-size controller.  Every step spans m grid intervals, m a power of two
from 1 to 64, so every solved point is a grid sample.  A grid interval that
holds a PULSE corner is always a single step, and m restarts at 1 after it.
Single-interval steps use the requested scheme: trapezoidal companions after
one backward-Euler startup step (default), or backward Euler throughout.
Longer steps are always backward Euler: trapezoid on 640 ps steps leaves
supply currents ringing at the uA level through quiet stretches, which
L-stable backward Euler damps.  After each solve,
r = h^2 max|DD2(v)| / 1e-5 V, where DD2 is the second divided difference of
the node voltages over the last three solved points since the last corner
(h^2 DD2 estimates backward Euler's local error h^2 v''/2).  A step with
r > 1 and m > 1 is rejected and retried with m halved; otherwise the next m
is the largest power of two <= m sqrt(0.5/r), at most 2m.  Samples between
solved points are linear interpolations; `Waveforms.solved` lists the solved
grid indices, and an interpolated sample's `resid_max` is the larger
residual of the two solves around it.  Steps that fail to converge are
retried with halved substeps, up to 8 halvings deep.  The grid is capped at
1,000,000 intervals, checked before anything is allocated.  All capacitances
here are constant, so companions reduce to a fixed matrix alpha*C plus a
history current.

Batches.  `_System` compiles B circuits of any structures (a sweep's
points, the six topologies of the bench, a circuit and its pinned copies
for static power).  Each member keeps its own node count n, unknown count
N, matrices G (N x N) and C (n x n), and MOSFETs; the device parameters of
all members form one array.  The solvers are generators of Newton
requests: the DC stages and each member's transient controller, with
`step()` and its halving, yield (start, base matrix, constant part of f,
trapezoidal history, iteration limit) and receive (x, iterations, residual,
converged, reason).  A member's transient is one generator from its DC
start to its last step.  One driver, `_drive`, runs the requests of all
live members in lock-step.  The live members form groups of one size
(equal n and N, with or without MOSFETs); each iteration is one `assemble`
over every live member, then one solve per group (stacked over its members,
a vector solve for a group of one) and per-member convergence, damping and
iteration-limit checks.  Sizes are never padded to a common N: an identity
block changes the bits of the solve.  A member whose request ends gets its
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
live MOSFET straight from the live states, which lie back to back in one
buffer with a trailing 0 for ground, evaluates them with one `_core_eval`
call and writes a (5, M) buffer: the drain->source currents, then the
conductance columns for the drain, gate, source and body nodes.
`assemble` gathers that buffer through one precomputed index, multiplies
by a sign vector, and scatters everything with a single `bincount`.  The
bins are member-major: each member owns n + N*N bins after those of the
members before it, its first n bins being the device KCL currents of f
and the rest the device part of J, row-major, so each group's f and J are
reshape views of the bin array.  Within a member the f entries come first
and the J entries second, each in device order, so every bin sums its
terms in a fixed order, the same in every batch.

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
and skipping an operation that is the identity on the values it meets
(clipping an update already inside the clamp, subtracting a zero history).
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
    homotopy_used: str  # "none" | "gmin" | "source"


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
    Bins 0..n-1 are the rows of f and n + row*N + col the entries of J.  The
    f terms come first, +i at the drain row and -i at the source row; the J
    terms follow, rows (d,+1),(s,-1) x cols (d,g,s,b), each part in device
    order."""
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
                    gather.append(c * M + k); bins.append(n + row * N + col); sgn.append(rs)
    term = np.array([[m.d, m.g, m.s, m.b] for m in mos], dtype=np.intp).reshape(M, 4).T
    return (np.where(term >= 0, term, N), np.array(gather, dtype=np.intp),
            np.array(bins, dtype=np.intp), np.array(sgn))


class _Group:
    """The live members of one size (n nodes, N unknowns, with or without
    MOSFETs), in member order.  X holds their states; BASE, R and IC the
    base matrices, constant parts of f and trapezoidal histories of their
    current requests; start, stop and dv_ok their Newton counters.  Arrays
    are stacked over the members, or 1-D for a group of one, whose BASE, R
    and IC are its request's own arrays (nothing writes through them)."""

    def __init__(self, members: list, n: int, N: int, mos: bool, X, bins: slice):
        L = len(members)
        self.members, self.L, self.n, self.N, self.mos, self.bins = members, L, n, N, mos, bins
        self.X = X if L == 1 else X.reshape(L, N)
        self.X3 = self.X[:, :, None] if L > 1 else None  # for matmul
        self.rows = [self.X] if L == 1 else list(self.X)
        if L > 1:  # BASE and R rows are loaded with each request
            self.BASE, self.R, self.IC = np.empty((L, N, N)), np.empty((L, N)), np.zeros((L, n))
        self.has_ic = [False] * L
        self.start, self.stop, self.dv_ok = [0] * L, [0] * L, [False] * L

    def load(self, p: int, req: tuple, k: int) -> None:
        """Load the request (x0, base, rhs, ic, limit) into member row p,
        started after iteration k.  A member without a history keeps a
        zero IC row, which subtracts exactly, while another member's history
        is in use."""
        x0, base, rhs, ic, limit = req
        if self.L == 1:
            self.X[:] = x0
            self.BASE, self.R, self.IC = base, rhs, ic
        else:
            self.X[p] = x0
            self.BASE[p], self.R[p] = base, rhs
            if ic is not None or self.has_ic[p]:
                self.IC[p] = 0.0 if ic is None else ic
                self.has_ic[p] = ic is not None
        self.start[p], self.stop[p], self.dv_ok[p] = k, k + limit, False


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
        return their groups: members of one size form a group, the groups in
        the order of their first members.  The groups' states lie back to
        back in `xbuf`, whose last entry stays 0 for ground; the live
        devices form one array in the same order; each member's bins (its n
        rows of f, then its N*N entries of J) follow the bins of the members
        before it.  So every member sums the same terms in the same order as
        alone."""
        sizes = {}
        for j in members:
            sizes.setdefault((self.n[j], self.N[j], self.m0[j] < self.m0[j + 1]), []).append(j)
        S = sum(self.N[j] for j in members)
        self.xbuf = xbuf = np.zeros(S + 1)
        self.groups, gidx, gather, bins, sgn, spans = [], [], [], [], [], []
        xo = bo = 0
        for (n, N, mos), ms in sizes.items():
            size = len(ms) * N
            self.groups.append(_Group(ms, n, N, mos, xbuf[xo:xo + size],
                                      slice(bo, bo + len(ms) * (n + N * N))))
            for j in ms:
                term, g, b, s = self.plans[j]
                gidx.append(np.where(term < N, term + xo, S) if xo or S > N else term)
                gather.append(g); bins.append(b + bo if bo else b); sgn.append(s)
                spans.append((self.m0[j], self.m0[j + 1]))
                xo, bo = xo + N, bo + n + N * N
        self.n_bins = bo
        M = sum(b - a for a, b in spans)
        if len(members) > 1:  # a member's buffer entry (r, k) moves to (r, its offset + k)
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

    def rhs(self, j: int, t: float, scale: float = 1.0, hist=None) -> np.ndarray:
        """Member j's constant part of f: the companion history alpha*C*v_prev
        on the node rows (zeros for DC, which subtract exactly) and the
        source values, scaled, on the source rows."""
        n = self.n[j]
        r = np.empty(self.N[j])
        r[:n] = 0.0 if hist is None else hist
        r[n:] = [scale * source_value(w, t) for w in self.waves[j]]
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

    def assemble(self) -> list:
        """(J, f) of each live group at its states X and the requests loaded
        into it: f = BASE x - R - IC (on the node rows) + the device currents
        and J = BASE + the device conductances, 1-D for a group of one and
        stacked otherwise.  All live devices are evaluated in one call and
        scattered with one `bincount`; each group's f and J are views of its
        bins."""
        if self._mbuf.shape[1]:
            self.mos_currents()
            acc = np.bincount(self._bin, weights=self._sgn * self._mflat[self._gather],
                              minlength=self.n_bins)
        out = []
        for g in self.groups:
            n, base = g.n, g.BASE
            if g.L == 1:  # 1-D arrays and dot: cheaper than matmul, and bitwise equal
                f = base.dot(g.X)
                f -= g.R
                if g.IC is not None:
                    f[:n] -= g.IC
                if g.mos:
                    a = acc[g.bins]
                    f[:n] += a[:n]
                    out.append((base + a[n:].reshape(base.shape), f))
                else:
                    out.append((base.copy(), f))
                continue
            f = np.matmul(base, g.X3)[:, :, 0]
            f -= g.R
            if True in g.has_ic:
                f[:, :n] -= g.IC
            if g.mos:
                a = acc[g.bins].reshape(g.L, -1)
                f[:, :n] += a[:, :n]
                out.append((base + a[:, n:].reshape(base.shape), f))
            else:
                out.append((base.copy(), f))
        return out

    def assemble_one(self, j: int, x, base, rhs, ic=None):
        """(J, f) of member j alone at state x, with the given base matrix,
        `rhs` and trapezoidal history (or None).  Replaces the live plan."""
        (g,) = self.live([j])
        g.load(0, (x, base, rhs, ic, 1), 0)
        ((J, f),) = self.assemble()
        return J, f


def _worst_node(circuit: Circuit, x, t: float, gmin: float, scale: float) -> str:
    """Name of the node with the largest KCL residual of `circuit` at x."""
    if circuit.n_nodes == 0:
        return "<none>"
    s = _System([circuit])  # its own plan, so a running drive keeps its own
    _, f = s.assemble_one(0, x, s.base_matrix(0, gmin), s.rhs(0, t, scale))
    return circuit.node_names[int(np.argmax(np.abs(f[: circuit.n_nodes])))]


# -- Newton ------------------------------------------------------------------
#
# Solvers are generators of Newton requests.  A request is the tuple
# (x0, base, rhs, ic, max_iter): the start, the member's base matrix and
# `rhs`, its trapezoidal history current (or None) and the iteration limit.
# The generator receives (x, iterations, residual_max, converged,
# failure_reason) back, and finally returns its result or raises SolverError.

_SINGULAR = "singular Jacobian (check for floating nodes)"


def _solve_each(J, f):
    """The Newton updates -J^-1 f of stacked systems one at a time, after the
    stacked solve found a singular J, and the set of the singular rows."""
    dx = np.full_like(f, np.nan)
    bad = set()
    for q in range(len(f)):
        try:
            dx[q] = np.linalg.solve(J[q], -f[q])
        except np.linalg.LinAlgError:
            bad.add(q)
    return dx, bad


def _drive(sys_: _System, gens: list, opts: SolveOptions) -> list:
    """Run the Newton requests of the members' generators (None for a member
    that does not take part) in lock-step until every generator has ended.
    Returns each member's return value, or the SolverError it raised.

    Each iteration assembles every live member with one `assemble` call and
    solves each group of one size with one stacked solve (one vector solve
    for a group of one); per member it applies damped Newton: converged when
    both max|dv| < vntol and the worst KCL residual is below abstol, node
    updates clamped to +/-vclamp.  A member whose request ends gets its
    result at once and joins the next iteration with its next request, so it
    does the same arithmetic as it would alone.  The live members are
    planned again only when one of them ends; the others keep their states
    and requests."""
    abstol, vntol, vclamp = opts.abstol, opts.vntol, opts.vclamp
    absolute, top, isfinite, solve = np.abs, np.maximum.reduce, math.isfinite, np.linalg.solve
    out = [None] * len(gens)
    reqs = {j: None for j, g in enumerate(gens) if g is not None}  # member -> request
    if not reqs:
        return out
    groups = sys_.live(reqs)
    at = {j: (g, p) for g in groups for p, j in enumerate(g.members)}  # member -> (group, row)
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
                g, p = at[j]
                g.load(p, req, k)
            sends = []
            if gone:  # a new plan, carrying the other members over
                if not reqs:
                    return out
                old, groups = at, sys_.live(reqs)  # in member order
                at = {j: (g, p) for g in groups for p, j in enumerate(g.members)}
                for j, (g, p) in at.items():
                    og, op = old[j]
                    g.load(p, reqs[j], 0)
                    g.rows[p][:] = og.rows[op]
                    g.start[p], g.stop[p], g.dv_ok[p] = og.start[op], og.stop[op], og.dv_ok[op]

        k += 1
        for g, (J, F) in zip(groups, sys_.assemble()):
            n, L, rows, dv_ok, members, start = g.n, g.L, g.rows, g.dv_ok, g.members, g.start
            if L == 1:
                res = [float(top(absolute(F[:n]))) if n else 0.0]
            else:
                res = top(absolute(F[:, :n]), 1).tolist() if n else [0.0] * L
            todo = range(L)
            if True in dv_ok:  # converged: the last update and this residual are small
                todo = []
                for p in range(L):
                    if dv_ok[p] and res[p] < abstol:
                        sends.append((members[p], (rows[p].copy(), k - start[p],
                                                   res[p], True, "")))
                    else:
                        todo.append(p)
                if not todo:
                    continue
                if len(todo) < L:
                    J, F = J[todo], F[todo]
            try:  # one member: the vector solve, cheaper and bitwise equal
                DX, bad = (solve(J, -F) if F.ndim == 1 else
                           solve(J, -F[:, :, None])[:, :, 0]), ()
            except np.linalg.LinAlgError:
                DX, bad = _solve_each(J.reshape(-1, g.N, g.N), F.reshape(-1, g.N))
            A = absolute(DX)  # NaN and inf propagate through the maxima
            if A.ndim == 1:
                amax = [float(top(A)) if g.N else 0.0]
                dvm = [float(top(A[:n])) if n else 0.0]
            else:
                amax = top(A, 1).tolist() if g.N else [0.0] * len(A)
                dvm = top(A[:, :n], 1).tolist() if n else [0.0] * len(A)
            moved, post, clamp = [], [], False
            for q, p in enumerate(todo):
                if q in bad or not isfinite(amax[q]):
                    why = _SINGULAR if q in bad else "non-finite Newton update"
                    sends.append((members[p], (rows[p].copy(), k - start[p],
                                                 res[p], False, why)))
                    continue
                moved.append(q)
                dv = dvm[q]
                if dv > vclamp:
                    clamp = True
                if res[p] < abstol and dv < vntol:
                    post.append((p, True, ""))  # residual and update both inside tolerance
                else:
                    dv_ok[p] = dv < vntol
                    if k == g.stop[p]:
                        post.append((p, False, "iteration limit"))
            if not moved:
                continue
            if clamp:  # clip, the identity on updates inside the clamp
                dv = DX[..., :n]
                np.maximum(np.minimum(dv, vclamp, out=dv), -vclamp, out=dv)
            if len(moved) == L:
                g.X += DX
            else:
                g.X[[todo[q] for q in moved]] += DX[moved]
            for p, ok, why in post:
                sends.append((members[p], (rows[p].copy(), k - start[p], res[p], ok, why)))


def _state_from_vector(n: int, x: np.ndarray) -> SysState:
    return SysState(v=x[:n].copy(), i_branch=x[n:].copy())


def assemble(circuit: Circuit, state: SysState, companion: dict | None = None,
             t: float = 0.0, gmin: float = GMIN_DEFAULT):
    """Public one-shot assembly: returns (J, f) at the given state.

    companion=None stamps DC (capacitors open).  Otherwise companion is a
    mapping with keys h (step), prev (SysState at the step start), scheme
    ("trap" | "be"), and optionally ic_prev (per-node capacitor currents at
    the step start; required history for trapezoidal, zeros by default).
    """
    sys_ = _System([circuit])
    x = state.as_vector()
    if companion is None:
        return sys_.assemble_one(0, x, sys_.base_matrix(0, gmin), sys_.rhs(0, t))
    h = companion["h"]
    scheme = companion.get("scheme", "trap")
    if scheme not in ("trap", "be"):
        raise ValueError(f"unknown scheme {scheme!r}")
    alpha = 2.0 / h if scheme == "trap" else 1.0 / h
    prev: SysState = companion["prev"]
    ic_prev = companion.get("ic_prev")
    if scheme == "trap" and ic_prev is None:
        ic_prev = np.zeros(circuit.n_nodes)
    return sys_.assemble_one(0, x, sys_.base_matrix(0, gmin, alpha),
                             sys_.rhs(0, t, hist=alpha * sys_.C[0].dot(prev.v)), ic_prev)


_GMIN_LADDER = tuple(10.0 ** -k for k in range(3, 13))  # 1e-3 .. 1e-12


def _dc_requests(sys_: _System, j: int, opts: SolveOptions, gmin: float,
                 t: float, x0: np.ndarray | None):
    """Member j's DC operating point as a generator of Newton requests:
    plain Newton, then gmin stepping, then source stepping.  Returns an
    OpPoint; raises SolverError when every strategy fails."""
    lim, n, N = opts.max_iter, sys_.n[j], sys_.N[j]
    rhs = sys_.rhs(j, t)
    start = x0 if x0 is not None else np.zeros(N)
    x, it, res, ok, _ = yield (start, sys_.base_matrix(j, gmin), rhs, None, lim)
    total = it
    if ok:
        return OpPoint(_state_from_vector(n, x), res, total, "none")

    ladder = [g for g in _GMIN_LADDER if g > gmin] + [gmin]
    x = np.zeros(N)
    ok_ladder = True
    for g in ladder:
        x, it, res, ok, _ = yield (x, sys_.base_matrix(j, g), rhs, None, lim)
        total += it
        if not ok:
            ok_ladder = False
            break
    if ok_ladder:
        return OpPoint(_state_from_vector(n, x), res, total, "gmin")

    x = np.zeros(N)
    base = sys_.base_matrix(j, gmin)
    for frac in np.linspace(0.05, 1.0, 20):
        x, it, res, ok, why = yield (x, base, sys_.rhs(j, t, float(frac)), None, lim)
        total += it
        if not ok:
            circuit = sys_.circuits[j]
            hint = f"; {'; '.join(circuit.warnings)}" if circuit.warnings else ""
            raise SolverError(
                f"DC operating point did not converge: plain Newton, gmin and "
                f"source stepping all failed ({why} at source scale {frac:.2f}; "
                f"largest residual at node "
                f"{_worst_node(circuit, x, t, gmin, float(frac))!r}{hint})"
            )
    return OpPoint(_state_from_vector(n, x), res, total, "source")


def dc_operating_point(circuit: Circuit, opts: SolveOptions | None = None,
                       gmin: float = GMIN_DEFAULT, t: float = 0.0,
                       x0: np.ndarray | None = None) -> OpPoint:
    """Solve the DC operating point with sources at their t=0 values.

    Tries plain Newton first, then gmin stepping, then source stepping.
    Raises SolverError when every strategy fails.
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
        rhs = self.sys.rhs(self.j, t1, 1.0, alpha * self.C.dot(x_from[:n]))
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
        hist = [(0.0, x[:n])]  # (t, v) of the last solved points since the last corner
        x_last, h_last = None, 0.0
        i, m, c = 0, 1, 0  # grid index, step multiple, next corner in `corners`
        while i < n_steps:
            while corners[c] < i:
                c += 1
            at_corner = corners[c] == i
            k = 1 if at_corner else min(m, 1 << ((corners[c] - i).bit_length() - 1))
            t0, t1 = t[i], t[i + k]
            guess = None if x_last is None else x + (x - x_last) * ((t1 - t0) / h_last)
            x_new, ic_new, res = yield from self.step(
                x, ic_cur, t0, t1, k == 1 and self.scheme == "trap" and i > 0, 0, guess)
            v = x_new[:n]
            if at_corner:
                hist, m = [(t1, v)], 1
            else:
                grow = k  # no estimate yet: hold the step
                if len(hist) == 2 and n:
                    (ta, va), (tb, vb) = hist
                    dd2 = ((v - vb) / (t1 - tb) - (vb - va) / (tb - ta)) / (t1 - ta)
                    r = (t1 - t0) ** 2 * float(np.abs(dd2).max()) / _LTE_TOL
                    if r > 1.0 and k > 1:
                        m = k // 2  # reject: retry from the same point, half the step
                        continue
                    grow = min(2 * k, _MAX_MULT,
                               k * math.sqrt(0.5 / r) if r > 0.0 else math.inf)
                hist = [*hist[-1:], (t1, v)]
                m = 1 << max(int(grow).bit_length() - 1, 0)
            x_last, h_last = x, t1 - t0
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
