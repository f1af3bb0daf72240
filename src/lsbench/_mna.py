"""The compiled batch system and its lock-step Newton driver.

Batches.  `_System` compiles B circuits of any structures (a sweep's
points, the six topologies of the bench), one member per circuit: a
circuit's static-power solves run in its own member at other source
values.  Each member keeps its own node count n, unknown count N,
matrices G (N x N) and C (n x n), and MOSFETs; the device parameters of
all members form one array.  The solvers are generators of Newton
requests: the DC stages and each member's transient controller, with
`step()` and its halving, yield (start, base matrix, constant part of f or
None for a step, trapezoidal history, iteration limit) and receive (x,
iterations, residual, converged, reason).  A member's transient is one
generator from its DC start to its last step.  One driver, `_drive`, runs
the requests of all live members in lock-step.  `live` lays them out back
to back in flat buffers: over all S live unknowns the states, residuals
and their negations, constant parts of f, trapezoidal histories (node
rows, zeros elsewhere) and Newton updates; over their N*N entries the base
matrices and Jacobians.  Members of one N form a group, whose arrays are
views of consecutive rows.  Each iteration is one `assemble` (a matvec per
group, then whole-batch passes for the constant parts, histories, device
currents and Jacobians), one reduction for all worst node residuals, one
solve per group (stacked over its members), one pass for all update norms
and, when every member moves, one state update; only the convergence,
damping and iteration-limit checks loop over members.  Step acceptance is
batched as well: the transient steps, whole or halved, that converge in
one iteration extend their tables of divided differences, held in flat
buffers too, and form their error norms and capacitor histories in one
pass (`extend`) before their generators decide, and the steps loaded next
get their starts and constant parts of f in one more (`predict`), all from
their step starts and tables.  A group of one keeps the vector matvec and
solve, cheaper and bitwise equal; nothing else branches on group size.
Sizes are never padded to a common N: an identity block changes the bits
of the solve.  A member whose request ends gets its result at once and
joins the next iteration with its next request, so every member keeps its
own step sequence; the live set is planned again only when a member ends.
A singular member makes its group's stacked solve raise; that group is
then solved member by member, and only the singular one fails.  B = 1 is
the only single-circuit path: `transient` and `dc_operating_point` are
batches of one, and `characterize_many` runs several.  During a batched
transient members keep only their solved points until their grids are
filled in.

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
(`_core_eval`, `mos_currents`, `assemble`, `extend`, `predict`, `_drive`)
must perform the same floating-point operations in the same order.  Allowed: hoisting a
left-to-right leading product (`ispec*lam*qq` -> `(ispec*lam)*qq`) or a
per-request term (alpha*C*v_prev once per request instead of per iteration),
`2.0*x` -> `x+x`, `(y*2.0)*a` -> `y*(2a)`, stacking elementwise operations
into one array (over members too: the elementwise kernels, the stacked
matmul and the stacked solve give each member the bits of its own call,
wherever it sits in the batch),
skipping an operation that is the identity on the values it meets
(clipping an update already inside the clamp, subtracting a zero history),
per-member scalars as per-row arrays, work on rows nothing reads (`where=`
masks what is read, never a zero product: d + 0*g turns -0.0 into +0.0),
adding a zero device bin to a base matrix, which holds no -0.0, taking
a maximum over any grouping of its terms, calling the LAPACK gufunc under
the errstate `np.linalg.solve` would set (the same `dd->d` loop on the same
operands, written with `out=`), and `ndarray.dot` for `np.dot` (the same
BLAS routine).
Not allowed: reordering sums or products (`ispec*qq*mlam` ->
`(ispec*mlam)*qq`), algebraic identities that change rounding (sigma as
e/(1+e)), or BLAS for the scatter.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .devmodel import _core_eval, _eval_consts, cap_lumps, source_value
from .netlist import Circuit


class SolverError(RuntimeError):
    pass


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
        self.IC = np.zeros(S)  # the histories on the node rows, zeros elsewhere
        self.F, self.NF, self.DX, self.R = np.empty((4, S))
        self.BASE, self.J = np.empty((2, jo[-1]))
        per = lambda a, ln: [a[o:o + k] for o, k in zip(xo, ln)]  # each position's rows
        self.xv, self.dxv, self.rv, self.icv = (per(self.xbuf, Ns), per(self.DX, Ns),
                                                per(self.R, Ns), per(self.IC, ns))
        self.bv = [self.BASE[a:a + N * N].reshape(N, N) for a, N in zip(jo, Ns)]
        self.tv = None  # the step buffers, built when a step is loaded (`tables`)
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

    def tables(self) -> None:
        """Build this plan's step buffers: the tables T and their extensions
        NEW, the step starts XF, NEW[0] - XF, C times it and the histories,
        each position's step spec as a column (ones where none) and each
        row's position, and views of each position's rows of them."""
        ms, xo, S = self.members, self.xo, self.xo[-1]
        ns, Ns = [self.n[j] for j in ms], [self.N[j] for j in ms]
        per = lambda a, ln: [a[o:o + k] for o, k in zip(xo, ln)]
        (self.T, self.NEW), self.spec = np.zeros((2, 4, S)), np.ones((6, len(ms)))
        self.tv, self.nv = ([a[:, o:o + N] for o, N in zip(xo, Ns)] for a in (self.T, self.NEW))
        self.rowpos = np.repeat(np.arange(len(ms)), Ns)
        self.XF, self.D, self.CD, self.H = np.zeros((4, S))
        self.xfv = per(self.XF, Ns)
        self.dv, self.cdv, self.hv = (per(a, ns) for a in (self.D, self.CD, self.H))
        self.rhsv = [(r[:n], r[n:], self.C[j], self.waves[j], xf[:n])  # for `predict`
                     for r, n, j, xf in zip(self.rv, ns, ms, self.xfv)]

    def load(self, p: int, req: tuple) -> None:
        """Load a request (see `_drive`) into live position p: zero IC rows
        for one without a history, which subtract exactly, and for a step its
        start x0 into XF, its spec and its table op."""
        x0, base, rhs, ic, _ = req[:5]
        self.bv[p][:], self.icv[p][:] = base, 0.0 if ic is None else ic
        if rhs is not None:  # else `predict` forms the start and rhs
            self.xv[p][:], self.rv[p][:] = x0, rhs
        if len(req) > 5:
            if self.tv is None:
                self.tables()
            self.xfv[p][:], self.spec[:, p] = x0, req[5]
            if req[6]:  # commit the last extension, or restart at x0
                self.tv[p][...] = self.nv[p] if req[6] == 1 else x0

    def extend(self, ps) -> list:
        """Extend the tables at the states in NEW[0], NEW[i+1] = (NEW[i] - T[i]) /
        (t1 - t_i) on all S rows (rows not asked for, or past a short table, get
        values nothing reads), and form the histories alpha*C*(NEW[0] - XF) - IC
        of the positions ps in H; returns max|NEW[2]| on each position's node rows."""
        sp, T, NEW = self.spec.take(self.rowpos, axis=1), self.T, self.NEW
        for i in (0, 1, 2):
            np.divide(np.subtract(NEW[i], T[i], out=NEW[i + 1]), sp[i], out=NEW[i + 1])
        np.subtract(NEW[0], self.XF, out=self.D)
        for p in ps:
            self.C[self.members[p]].dot(self.dv[p], out=self.cdv[p])
        np.subtract(np.multiply(self.CD, sp[4], out=self.H), self.IC, out=self.H)
        np.absolute(NEW[2], out=self.ab[:-1])
        return np.maximum.reduceat(self.ab, self.ridx)[::2].tolist()

    def predict(self, ps) -> None:
        """Start the steps at live positions p (ps: p -> spec) at their tables'
        polynomials at t1, by Horner on all S rows (a short table at its top,
        level 0 or 1 at the step start XF), and form their rhs from XF."""
        sp, T = self.spec.take(self.rowpos, axis=1), self.T
        g, short = T[3].copy(), min(s[3] for s in ps.values()) < 4
        for i in (2, 1, 0):
            g *= sp[i]
            g += T[i]
            if short:
                np.copyto(g, T[i] if i else self.XF, where=sp[3] <= i + 1)
        for p, (*_, alpha, t1) in ps.items():
            self.xv[p][:] = g[self.xo[p]:self.xo[p + 1]]
            node, src, C, waves, xf = self.rhsv[p]
            np.multiply(C.dot(xf, out=node), alpha, out=node)
            src[:] = [source_value(w, t1) for w in waves]

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

    def rhs(self, j: int, src, hist=None) -> np.ndarray:
        """Member j's constant part of f: the companion history alpha*C*v_prev
        on the node rows (zeros for DC, which subtract exactly) and the
        source values `src` on the source rows."""
        return np.concatenate((np.zeros(self.n[j]) if hist is None else hist, src))

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
            if g.L == 1:
                g.BASE.dot(g.X, out=g.F)
            else:
                np.matmul(g.BASE, g.X, out=g.F)
        F -= self.R
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
# A transient step, whole or halved, has rhs None and appends (spec, op),
# spec = (t1 - t_i over its table's times t_0..t_2, 1.0 past them and for a
# first half; level; alpha; t1), op 1 committing the last extension and 2
# restarting the table at x0.  `predict` forms its rhs from x0 and starts it
# at x0 (level 0 or 1) or the table's polynomial; its result gains max|DD2|
# over the node rows and its history alpha*C*(x - x0) - ic.

_SINGULAR = "singular Jacobian (check for floating nodes)"
_VCLAMP = 0.5  # V, the largest node update of one Newton iteration
# `np.linalg.solve`'s gufuncs (LAPACK gesv) for one system and for stacked
# ones, called without its Python wrapper under the errstate it sets
_SOLVE1, _SOLVE = _umath_linalg.solve1, _umath_linalg.solve


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _lapack():
    """The errstate `np.linalg.solve` runs its gufunc in: a singular J, which
    the gufunc reports by raising the `invalid` flag, raises `LinAlgError`."""
    return np.errstate(call=_raise_singular, invalid="call",
                       over="ignore", divide="ignore", under="ignore")


def _solve_each(J, NF):
    """The Newton updates J^-1 NF of stacked systems one at a time, after the
    stacked solve found a singular J, and the set of the singular rows.
    Runs inside the caller's `_lapack()` errstate."""
    dx = np.full_like(NF, np.nan)
    bad = set()
    for q in range(len(NF)):
        try:
            dx[q] = _SOLVE1(J[q], NF[q])
        except LinAlgError:
            bad.add(q)
    return dx, bad


def _drive(sys_: _System, gens: list, opts: SolveOptions) -> list:
    """Run the Newton requests of the members' generators, one per member,
    in lock-step until every generator has ended.  Returns each member's
    return value, or the SolverError it raised.

    Each iteration assembles every live member with one `assemble` call,
    takes every member's worst node residual with one reduction, solves
    each group of one size with one stacked solve (one vector solve for a
    group of one), takes the update norms with one more pass and, when every
    member moves, updates all states with one add.  Per member it applies
    damped Newton: converged when both max|dv| < vntol and the worst KCL
    residual is below abstol, node updates clamped to +/-0.5 V.  A member
    whose request ends gets its result at once and joins the next iteration
    with its next request, so it does the same arithmetic as it would
    alone.  The live members are planned again only when one of them ends;
    the others keep their states, requests and tables."""
    abstol, vntol, vclamp = opts.abstol, opts.vntol, _VCLAMP
    absolute, top, isfinite = np.abs, np.maximum.reduceat, math.isfinite
    out = [None] * len(gens)
    reqs = dict.fromkeys(range(len(gens)))  # member -> request
    groups = sys_.live(reqs)
    at = {j: p for p, j in enumerate(sys_.members)}  # member -> live position
    start, stop, dv_ok = [0] * len(at), [0] * len(at), [False] * len(at)
    sends = [(j, None) for j in reqs]  # (member, result for its generator)
    k = 0  # iterations so far
    while True:
        if sends:
            ext = {j: r[0] for j, r in sends if r and r[3] and len(reqs[j]) > 5}  # steps done
            for j, x in ext.items():
                sys_.nv[at[j]][0] = x
            dd2 = sys_.extend([at[j] for j in ext]) if ext else None
            gone, pend = False, {}
            for j, result in sends:
                if j in ext:
                    result += (dd2[at[j]], sys_.hv[at[j]].copy())
                try:
                    req = gens[j].send(result)
                except StopIteration as e:
                    out[j], req = e.value, None
                except SolverError as e:
                    out[j], req = e, None
                if req is None:
                    del reqs[j]
                    gone = True
                    continue
                reqs[j] = req
                p = at[j]
                sys_.load(p, req)
                if req[2] is None:
                    pend[p] = req[5]
                start[p], stop[p], dv_ok[p] = k, k + req[4], False
            sends = []
            if pend:
                sys_.predict(pend)
            if gone:  # a new plan, carrying the other members over
                if not reqs:
                    return out
                old, xs, rs, tv, counters = at, sys_.xv, sys_.rv, sys_.tv, (start, stop, dv_ok)
                groups = sys_.live(reqs)  # in member order
                if tv is not None:  # a halving member may be between steps
                    sys_.tables()
                at = {j: p for p, j in enumerate(sys_.members)}
                start, stop, dv_ok = ([c[old[j]] for j in at] for c in counters)
                for j, p in at.items():
                    sys_.load(p, reqs[j])
                    q = old[j]
                    sys_.xv[p][:], sys_.rv[p][:] = xs[q], rs[q]
                    if tv is not None:
                        sys_.tv[p][...] = tv[q]
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
        with _lapack():
            for g in groups:
                i = [q for q in range(g.L) if g.p0 + q not in done] if done else range(g.L)
                if not i:
                    continue
                try:  # one member: the vector solve, cheaper and bitwise equal
                    if g.L == 1:
                        _SOLVE1(g.J, g.NF, out=g.DX)
                    elif len(i) == g.L:
                        _SOLVE(g.J, g.NF, out=g.DX)
                    else:
                        g.DX[i] = _SOLVE(g.J[i], g.NF[i])
                except LinAlgError:
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

