"""The compiled batch system and its lock-step Newton driver.

Batches.  `_System` compiles B circuits of any structures (a sweep's
points, the six topologies of the bench), one member per circuit: a
circuit's static-power solves run in its own member at other source
values.  Each member keeps its own node count n, unknown count N,
matrices G (N x N) and C (n x n), and MOSFETs.  The solvers are generator
functions of one member's Newton requests: the DC stages yield (start,
base matrix, constant part of f, iteration limit) and receive (x,
iterations, residual, converged, reason); a transient yields its
`engine._Steps` once, and the driver runs all its steps.
One driver, `_drive`, runs the requests of all live members in lock-step.
`live` lays them out back to back in flat buffers: over all S live
unknowns the states, residuals and their negations, constant parts of f,
trapezoidal histories (node rows, zeros elsewhere) and Newton updates;
over their N*N entries the base matrices and Jacobians.  Members of one N
form a group, whose arrays are views of consecutive rows.  Each iteration
is one `assemble` (a matvec per group, then whole-batch passes for the
constant parts, histories, device currents and Jacobians), one reduction
for all worst node residuals, one solve per group (stacked over its
members), one pass for all update norms and one state update over all
members, then while a DC request is bounded one projection onto per-row
bounds; only the convergence, damping and iteration-limit checks loop
over members.  Steps are batched as well: the transient steps, whole,
retried or halved, that converge in one iteration extend their tables of
divided differences, held in flat buffers too, and form their error norms
and capacitor histories in one pass (`extend`); every step that converged
or failed is decided by its `_Steps` and its next attempt loaded in one
loop that resumes no generator (`load_steps`), and every attempt loaded
gets its start, constant part of f and BDF2 history in one more pass
(`predict`).  A group of one keeps the vector matvec, cheaper and bitwise
equal.
Sizes are never padded to a common N: an identity block changes the bits
of the solve.  A member whose request ends gets its result at once and
joins the next iteration with its next request, so every member keeps its
own step sequence; the live set is planned again only when a member ends.
A singular member makes its group's stacked solve raise; that group is
then solved member by member, and only the singular one fails.  B = 1 is
the only single-circuit path: every public solve is `engine._run`, one
compiled system and one `_drive`; `transient`, `dc_operating_point`,
`static_power` and `characterize` are batches of one, and
`characterize_many` runs several.
During a batched transient members keep only their solved points until
their grids are filled in.

Stamp plan.  `live` builds the stamp plan and the device arrays of
exactly the live members from their circuits, at their live offsets.  Per
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
operands, written with `out=`), solving a stack of vectors with the
vector gufunc `solve1` instead of `solve` on (L, N, 1) columns (the same
`gesv` call on each member's operands), and `ndarray.dot` for `np.dot` (the
same BLAS routine).
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


def _source_forest(circuit: Circuit) -> tuple:
    """The voltage sources as a forest (they close no loop): (edges, trees).
    Edge (k, a, b, sign) sets node b to node a, set before, plus sign times
    source k; each tree lists its nodes from its root, at potential 0:
    ground (-1) for the first."""
    adj = {}
    for k, s in enumerate(circuit.sources):
        adj.setdefault(s.p, []).append((k, s.m, -1.0))
        adj.setdefault(s.m, []).append((k, s.p, 1.0))
    edges, trees, seen = [], [], set()
    for root in (-1, *adj):
        if root not in seen:
            trees.append([root]); seen.add(root)
            for a in trees[-1]:  # breadth first: the loop reaches the nodes it appends
                for k, b, sign in adj.get(a, ()):
                    if b not in seen:
                        trees[-1].append(b); seen.add(b); edges.append((k, a, b, sign))
    return edges, trees


_MOS_FIELDS = ("vth0", "n_slope", "kp", "lam", "eta_dibl", "gamma_body", "phi_s")


def _stamp_plan(circuit: Circuit, o: int, S: int, jb: int, mo: int, M: int) -> tuple:
    """The stamp plan of one live member at its offsets: o its first state
    among the S live unknowns, jb its first J bin, mo its first device among
    the M live ones.  Returns the live states of the (d, g, s, b) nodes of
    its MOSFETs, one row each, ground being S (where the live states keep a
    0), then per stamp term the entry of the (5, M) device buffer it gathers
    (row 0 the drain->source currents, rows 1..4 the d, g, s, b
    conductances), its accumulator bin and its sign.  The f bins are o +
    row and the J bins jb + row*N + col.  The f terms come first, +i at the
    drain row and -i at the source row; the J terms follow, rows
    (d,+1),(s,-1) x cols (d,g,s,b), each part in device order."""
    N = circuit.n_nodes + len(circuit.sources)
    mos = circuit.mosfets
    term, gather, bins, sgn = [], [], [], []
    for k, m in enumerate(mos, mo):
        term.append([o + t if t >= 0 else S for t in (m.d, m.g, m.s, m.b)])
        for row, rs in ((m.d, 1.0), (m.s, -1.0)):
            if row >= 0:
                gather.append(k); bins.append(o + row); sgn.append(rs)
    for k, m in enumerate(mos, mo):
        cols = ((m.d, 1), (m.g, 2), (m.s, 3), (m.b, 4))
        for row, rs in ((m.d, 1.0), (m.s, -1.0)):
            if row < 0:
                continue
            for col, c in cols:
                if col >= 0:
                    gather.append(c * M + k); bins.append(jb + row * N + col); sgn.append(rs)
    return term, gather, bins, sgn


class _Group:
    """The live members of one unknown count N, at the live positions
    p0 .. p0+L-1: views of their rows of the system's flat buffers, states
    X, base matrices BASE, residuals F, negated residuals NF, updates DX and
    Jacobians J.  A group of one sees vectors and N x N matrices, for the
    vector matvec; a larger group (L, N, 1) columns of X and F, for the
    stacked matmul, (L, N) rows of NF and DX and (L, N, N) matrices.  The
    vector solve takes either."""

    def __init__(self, s, p0, L, N, xo, jo):
        self.p0, self.L, self.N = p0, L, N
        vs, ms = ((N,), (N, N)) if L == 1 else ((L, N, 1), (L, N, N))
        self.X, self.F = (a[xo:xo + L * N].reshape(vs) for a in (s.xbuf, s.F))
        self.NF, self.DX = (a[xo:xo + L * N].reshape(vs[:2]) for a in (s.NF, s.DX))
        self.BASE, self.J = (a[jo:jo + L * N * N].reshape(ms) for a in (s.BASE, s.J))


class _System:
    """A batch of circuits of any structures, one member each.

    Member j keeps what it is on its own: its sizes n[j] and N[j], matrices
    G[j] and C[j], source waves and source forest.  `live` builds the stamp
    plan and device arrays of the members that `assemble` works on."""

    def __init__(self, circuits: list):
        if not circuits:
            raise ValueError("a batch needs at least one circuit")
        self.circuits = circuits
        self.n = [c.n_nodes for c in circuits]
        self.N = [c.n_nodes + len(c.sources) for c in circuits]
        self.G, self.C = zip(*[_linear_matrices(c, n, N)
                               for c, n, N in zip(circuits, self.n, self.N)])
        self.waves = [[s.wave for s in c.sources] for c in circuits]
        self.forests = [_source_forest(c) for c in circuits]

    def live(self, members) -> list:
        """Plan `members`, a list of member indices, for `assemble` and
        return their groups: members of one unknown count N form a group, the
        groups in the order of their first members, and the live positions
        run through the groups in that order.  Position p owns entries
        xo[p] .. xo[p+1]-1 of the flat buffers over all S live unknowns (the
        states `xbuf`, whose entry S stays 0 for ground, F, NF, DX, R and IC,
        node rows then source rows) and entries jo[p] .. jo[p+1]-1 of BASE and
        J.  The stamp plans and device arrays are built from the live
        circuits at these offsets, their devices back to back in the same
        order: a member's f bins sit at its state offset and its J bins at S
        + its matrix offset, so every member sums the same terms in the same
        order as alone."""
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
        self.xv, self.rv, self.icv = per(self.xbuf, Ns), per(self.R, Ns), per(self.IC, ns)
        self.bv = [self.BASE[a:a + N * N].reshape(N, N) for a, N in zip(jo, Ns)]
        self.tv = self.n0v = None  # the step buffers, built when a step is loaded (`tables`)
        # node-row bounds: a bounded DC request's hull at the positions in `bounded`
        self.LO, self.HI = np.full(S, -math.inf), np.full(S, math.inf)
        self.lov, self.hiv, self.bounded = per(self.LO, ns), per(self.HI, ns), set()
        # reduceat bounds in ab: each position's rows, and its node rows then
        # its source rows.  ab's trailing 0 lets a segment start at S; an
        # empty segment reads the element at its start, so `_drive` zeroes
        # the maxima of the `nodeless` positions, which have no unknown at
        # all (a source needs a node)
        self.xidx = np.array(xo[:-1], dtype=np.intp)
        self.ridx = np.array([o + d for o, n in zip(xo, ns) for d in (0, n)], dtype=np.intp)
        self.nodeless = [p for p, n in enumerate(ns) if not n]
        self.groups, p = [], 0
        for N, g in sizes.items():
            self.groups.append(_Group(self, p, len(g), N, xo[p], jo[p]))
            p += len(g)
        mos = [self.circuits[j].mosfets for j in ms]
        mo = list(accumulate(map(len, mos), initial=0))  # each position's first device
        M, self.n_bins = mo[-1], S + jo[-1]
        self.nrows, self.mrows = np.zeros((2, S), bool)  # node rows, with MOSFETs
        plan = [], [], [], []
        for p, j in enumerate(ms):
            self.nrows[xo[p]:xo[p] + ns[p]] = True
            self.mrows[xo[p]:xo[p] + ns[p]] = bool(mos[p])
            for a, b in zip(plan, _stamp_plan(self.circuits[j], xo[p], S, S + jo[p], mo[p], M)):
                a += b
        self._gidx = np.array(plan[0], dtype=np.intp).reshape(M, 4).T
        self._gather, self._bin = (np.array(a, dtype=np.intp) for a in plan[1:3])
        self._sgn = np.array(plan[3])
        # the live devices' polarity signs and `_core_eval`'s parameter rows
        # and bias-independent terms, from the seven model parameters, w and l
        flat = [m for d in mos for m in d]
        self._msgn = np.array([1.0 if m.params.polarity == "nmos" else -1.0 for m in flat])
        par = np.array([getattr(m.params, f) for f in _MOS_FIELDS for m in flat]
                       + [m.w for m in flat] + [m.l for m in flat]).reshape(9, M)
        vth0, _, _, lam, eta, gamma, phi, _, _ = par
        self._dev = (vth0, lam, eta, gamma, phi, _eval_consts(*par[1:]))
        self._mbuf = np.zeros((5, M))
        self._mflat = self._mbuf.reshape(-1)
        return self.groups

    def tables(self) -> None:
        """Build this plan's step buffers: tables T, extensions NEW, step starts XF,
        NEW[0] - XF, C times it, histories H, start currents I0, specs, views."""
        ms, xo, S = self.members, self.xo, self.xo[-1]
        ns, Ns = [self.n[j] for j in ms], [self.N[j] for j in ms]
        per = lambda a, ln: [a[o:o + k] for o, k in zip(xo, ln)]
        (self.T, self.NEW), self.spec = np.zeros((2, 4, S)), np.ones((len(ms), 7))
        # |NEW[2]| then |NEW[3]|, then a 0 (see `live`), and their reduceat bounds
        self.ab2, self.ridx2 = np.zeros(2 * S + 1), np.concatenate((self.ridx, self.ridx + S))
        self.tv, self.nv = ([a[:, o:o + N] for o, N in zip(xo, Ns)] for a in (self.T, self.NEW))
        self.rowpos, self.Tr, self.NEWr = np.repeat(np.arange(len(ms)), Ns), list(self.T), list(self.NEW)
        self.XF, self.D, self.CD, self.H, self.I0 = np.zeros((5, S))
        self.xfv, self.n0v = per(self.XF, Ns), per(self.NEW[0], Ns)
        self.dv, self.cdv, self.hv, self.i0v = (per(a, ns) for a in (self.D, self.CD, self.H, self.I0))
        # for `predict`: C, node rhs, source rhs, waves, node rows of XF and T[1]
        self.rhsv = [(self.C[j], r[:n], r[n:], self.waves[j], xf[:n], tb[1, :n])
                     for r, n, j, xf, tb in zip(self.rv, ns, ms, self.xfv, self.tv)]
        self.sp = self.spec.take(self.rowpos, axis=0).T  # the specs by row, as `predict` left them

    def load(self, p: int, req: tuple) -> None:
        """Load a request (see `_drive`) into live position p: its start,
        base matrix and constant part of f, zero IC rows, which subtract
        exactly, and the node rows' bounds."""
        self.xv[p][:], self.bv[p][:], self.rv[p][:], self.icv[p][:] = *req[:3], 0.0
        if len(req) == 5:
            self.lov[p][:], self.hiv[p][:] = req[4]
            self.bounded.add(p)
        elif p in self.bounded:
            self.lov[p][:], self.hiv[p][:] = -math.inf, math.inf
            self.bounded.discard(p)

    def load_steps(self, steps: list) -> None:
        """Load the attempt each (position, `engine._Steps`) has set up, by
        its row op: a whole step (op 0 after a reject, 1 after an accept, 2
        at a corner) starts from its last solved point in XF, and ops 1 and 2
        keep the currents H there in I0 and commit NEW or restart at NEW[0];
        a retry or first half (3) keeps the failed attempt's XF and I0; a
        next half (4) starts from NEW[0], and by trapezoid keeps H in I0.
        IC gets I0 for a trapezoid attempt."""
        xfv, n0v, i0v, icv, tv, hv = self.xfv, self.n0v, self.i0v, self.icv, self.tv, self.hv
        for p, st in steps:
            op = st.op
            if op < 3:
                xfv[p][...] = st.xs[st.nb - 1]
                if op:
                    i0v[p][...] = hv[p]
                    tv[p][...] = self.nv[p] if op == 1 else n0v[p]
            elif op == 4:
                xfv[p][...] = n0v[p]
                if st.trap:
                    i0v[p][...] = hv[p]
            icv[p][...] = i0v[p] if st.trap else 0.0
            if st.base is not st.loaded:
                self.bv[p][...] = st.loaded = st.base
            self.spec[p] = st.spec

    def rows(self) -> list:
        """The views by position of the rows that outlive an iteration."""
        return [self.xv, self.rv, self.icv, self.bv, self.lov, self.hiv] + (
            [] if self.tv is None else [self.tv, self.xfv, self.i0v, [*self.spec]])

    def extend(self, ps) -> list:
        """Extend the tables at the states in NEW[0], NEW[i+1] = (NEW[i] - T[i]) /
        (t1 - t_i) on all S rows (rows not asked for get values nothing reads),
        and form the histories alpha*C*(NEW[0] - XF) - IC of the positions ps in
        H; returns max|NEW[2]|, then max|NEW[3]|, on each position's node rows."""
        sp, T, NEW = self.sp, self.Tr, self.NEWr
        for i in (0, 1, 2):
            np.divide(np.subtract(NEW[i], T[i], out=NEW[i + 1]), sp[i], out=NEW[i + 1])
        np.subtract(NEW[0], self.XF, out=self.D)
        C, ms, dv, cdv = self.C, self.members, self.dv, self.cdv
        for p in ps:
            C[ms[p]].dot(dv[p], out=cdv[p])
        np.subtract(np.multiply(self.CD, sp[4], out=self.H), self.IC, out=self.H)
        np.absolute(self.NEW[2:4].reshape(-1), out=self.ab2[:-1])
        return np.maximum.reduceat(self.ab2, self.ridx2)[::2].tolist()

    def predict(self, ps) -> None:
        """Start the steps at live positions p (ps: p -> spec) at their tables'
        polynomials at t1, by Horner on all S rows (a short table at its top,
        level 0 or 1 at the step start XF), and form their rhs from XF and a
        BDF2 step's history kappa*C*T[1] in IC."""
        self.sp = sp = self.spec.take(self.rowpos, axis=0).T
        T, g, short = self.Tr, self.Tr[3].copy(), min(s[3] for s in ps.values()) < 4
        for i in (2, 1, 0):
            g *= sp[i]
            g += T[i]
            if short:
                np.copyto(g, T[i] if i else self.XF, where=sp[3] <= i + 1)
        xv, xo, icv, rhsv = self.xv, self.xo, self.icv, self.rhsv
        for p, s in ps.items():
            xv[p][...] = g[xo[p]:xo[p + 1]]
            C, node, src, waves, xf, dd1 = rhsv[p]
            np.multiply(C.dot(xf, out=node), s[4], out=node)
            t1 = s[5]
            src[:] = [source_value(w, t1) for w in waves]
            if s[6]:
                ic = icv[p]
                np.multiply(C.dot(dd1, out=ic), s[6], out=ic)

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
        idn, gm, gds, gmb = _core_eval(vg - lo, hi - lo, lo - vb, *self._dev)
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

    def hull(self, j: int, src) -> tuple:
        """(lo, hi), the hull of every DC solution of member j at the source
        values `src` (see `engine`): ground and the potentials its sources
        tie to it, widened by the spans of the source trees that float."""
        edges, trees = self.forests[j]
        pot = [0.0] * (self.n[j] + 1)  # ground is pot[-1]
        for k, a, b, sign in edges:
            pot[b] = pot[a] + sign * src[k]
        span = sum(max(pot[i] for i in t) - min(pot[i] for i in t) for t in trees[1:])
        tied = [pot[i] for i in trees[0]]
        return min(tied) - span, max(tied) + span

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
        (see `base_matrix`), so a plan without devices gets J = BASE bit for
        bit, but not to f, where it would turn -0.0 into +0.0."""
        F = self.F
        for g in self.groups:  # a group of one: dot, cheaper than matmul and bitwise equal
            if g.L == 1:
                g.BASE.dot(g.X, out=g.F)
            else:
                np.matmul(g.BASE, g.X, out=g.F)
        F -= self.R
        F -= self.IC
        self.mos_currents()
        acc = np.bincount(self._bin, weights=self._sgn * self._mflat[self._gather],
                          minlength=self.n_bins)
        np.add(F, acc[:len(F)], out=F, where=self.mrows)
        np.add(self.BASE, acc[len(F):], out=self.J)
        return self.J, F

    def assemble_one(self, j: int, x, base, rhs, ic=None):
        """(J, f) of member j alone at state x, with the given base matrix,
        `rhs` and trapezoidal history (or None).  Replaces the live plan; the
        arrays are the plan's own, which no later plan reuses."""
        self.live([j])
        self.load(0, (x, base, rhs, 1))
        if ic is not None:
            self.icv[0][:] = ic
        J, f = self.assemble()
        return J.reshape(base.shape), f


# -- Newton ------------------------------------------------------------------
#
# Solvers are generators of Newton requests, all of them DC.  A request is
# the tuple (x0, base, rhs, max_iter): the start, the member's base matrix
# and `rhs`, and the iteration limit.  The generator receives (x,
# iterations, residual_max, converged, failure_reason) back, and finally
# returns its result or raises SolverError.  A plain-Newton DC request
# appends its hull (lo, hi), which its node rows are projected onto after
# each update.
# A transient yields its `engine._Steps` once and is resumed with None at
# its end, or when its steps ran out of halvings.  Every attempt at a step
# runs by its spec (t1 - t_i over its table's times t_0..t_2, 1.0 past them
# and for a first half; level; alpha; t1; kappa, 0 but for BDF2): `predict`
# forms its rhs from XF, a BDF2 history IC = kappa*C*DD1 from the table, and
# starts it at XF (level 0 or 1) or the table's polynomial; `extend` forms
# [max|DD2|, max|DD3|] over its node rows and its history alpha*C*(x - XF) - IC.

_SINGULAR = "singular Jacobian (check for floating nodes)"
_VCLAMP = 0.5  # V, the largest node update of one Newton iteration
# `np.linalg.solve`'s vector gufunc (LAPACK gesv), for one system or a stack
# of them, called without its Python wrapper under the errstate it sets
_SOLVE1 = _umath_linalg.solve1


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# the errstate `np.linalg.solve` runs its gufunc in: a singular J, which the
# gufunc reports by raising the `invalid` flag, raises `LinAlgError`
_LAPACK = dict(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


def _solve_each(g: _Group) -> list:
    """Solve group g's systems into its DX one at a time, after the stacked
    solve found a singular J, and return the live positions of the singular
    ones (their rows get what LAPACK leaves).  Runs under `_LAPACK`."""
    J, NF, DX = g.J.reshape(-1, g.N, g.N), g.NF.reshape(-1, g.N), g.DX.reshape(-1, g.N)
    bad = []
    for q in range(g.L):
        try:
            _SOLVE1(J[q], NF[q], out=DX[q])
        except LinAlgError:
            bad.append(g.p0 + q)
    return bad


@np.errstate(**_LAPACK)  # one errstate object; each call sets it over the caller's state
def _solve(groups: list) -> set:
    """Solve each group into its DX, stacked, or one member at a time where
    that finds a singular J; returns the live positions of the singular ones."""
    bad = set()
    for g in groups:
        try:
            _SOLVE1(g.J, g.NF, out=g.DX)
        except LinAlgError:
            bad.update(_solve_each(g))
    return bad


def _drive(sys_: _System, gens: list, opts: SolveOptions) -> list:
    """Run the Newton requests of the members' generators, one per member,
    in lock-step until every generator has ended.  Returns each member's
    return value, or the SolverError it raised.

    Each iteration assembles every live member with one `assemble` call,
    takes every member's worst node residual with one reduction, solves
    each group of one size with one stacked solve, takes the update norms
    with one more pass and updates all states with one add.  Per member it
    applies damped Newton: converged when both max|dv| < vntol and the
    worst KCL residual is below abstol, node updates clamped to +/-0.5 V,
    and the nodes of a request with a hull projected onto it.  A member
    whose request ends gets its result at once and joins the next iteration
    with its next request, so it does the same arithmetic as it would
    alone; every transient step is decided and its next attempt loaded here.
    The live members are planned again only when one of them ends; the
    others keep their rows."""
    abstol, vntol, vclamp = opts.abstol, opts.vntol, _VCLAMP
    absolute, top, isfinite = np.abs, np.maximum.reduceat, math.isfinite
    out = [None] * len(gens)
    reqs = dict.fromkeys(range(len(gens)))  # member -> request, or the `_Steps` it steps by
    groups, members = sys_.live(reqs), sys_.members
    at = {j: p for p, j in enumerate(members)}  # member -> live position
    start, stop, dv_ok = [0] * len(at), [0] * len(at), [False] * len(at)
    sends, stepped = [(j, None) for j in reqs], []  # (member, reply), (position, ok, residual or reason)
    k = 0  # iterations so far

    def reply(p, ok, why):  # a transient step goes to the step pass
        if type(reqs[members[p]]) is tuple:
            sends.append((members[p], (xv[p].copy(), k - start[p], res[p], ok, why)))
        else:
            if ok:
                n0v[p][...] = xv[p]
            stepped.append((p, ok, res[p] if ok else why))

    while True:
        if sends or stepped:
            solved = [p for p, ok, _ in stepped if ok]
            dd = sys_.extend(solved) if solved else None
            gone, loads = False, []
            for p, ok, r in stepped:  # each step's next attempt: `engine._Steps`
                st = reqs[members[p]]
                if st.solved(r, dd[p], dd[P + p], n0v[p]) if ok else st.failed(r):
                    loads.append((p, st))
                else:  # the grid's end, or out of halvings: the generator raises `st.error`
                    sends.append((members[p], None))
            for j, result in sends:
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
                reqs[j], p = req, at[j]
                if type(req) is tuple:
                    sys_.load(p, req)
                    start[p], stop[p], dv_ok[p] = k, k + req[3], False
                    continue
                # its DC start: no hull, the table restarts there
                if sys_.tv is None:
                    sys_.tables()
                if p in sys_.bounded:
                    sys_.lov[p][:], sys_.hiv[p][:] = -math.inf, math.inf; sys_.bounded.discard(p)
                sys_.n0v[p][...] = req.xs[0]
                loads.append((p, req))
            if loads:
                sys_.load_steps(loads)
                for p, st in loads:
                    start[p], stop[p], dv_ok[p] = k, k + st.iters, False
                sys_.predict({p: st.spec for p, st in loads})
            sends, stepped = [], []
            if gone:  # a new plan, carrying the other members' rows over
                if not reqs:
                    return out
                old, was, tabled = at, sys_.rows(), sys_.tv is not None
                bounded = {sys_.members[q] for q in sys_.bounded}
                counters = start, stop, dv_ok
                groups = sys_.live(reqs)  # in member order
                if tabled:  # a member may be between steps
                    sys_.tables()
                at = {j: p for p, j in enumerate(sys_.members)}
                start, stop, dv_ok = ([c[old[j]] for j in at] for c in counters)
                sys_.bounded = {at[j] for j in bounded if j in at}
                for now, then in zip(sys_.rows(), was):
                    for j, p in at.items():
                        now[p][...] = then[old[j]]
                if tabled:
                    sys_.sp = sys_.spec.take(sys_.rowpos, axis=0).T
            P, members, xv, ab, ridx = len(at), sys_.members, sys_.xv, sys_.ab, sys_.ridx
            n0v = sys_.n0v

        k += 1
        _, F = sys_.assemble()
        absolute(F, out=ab[:-1])
        res = top(ab, ridx)[::2].tolist()  # each member's worst node residual
        for p in sys_.nodeless:  # an empty segment reads the element at its start
            res[p] = 0.0
        np.negative(F, out=sys_.NF)
        todo = range(P)
        if True in dv_ok:  # converged: the last update and this residual are small
            todo = []
            for p in range(P):
                if dv_ok[p] and res[p] < abstol:
                    reply(p, True, "")
                else:
                    todo.append(p)
            if not todo:
                continue
        bad, DX = _solve(groups), sys_.DX
        absolute(DX, out=ab[:-1])  # NaN and inf propagate through the maxima
        amax, dvm = top(ab, sys_.xidx).tolist(), top(ab, ridx)[::2].tolist()
        for p in sys_.nodeless:
            dvm[p] = amax[p] = 0.0
        post, clamp = [], False
        for p in todo:
            if p in bad or not isfinite(amax[p]):
                reply(p, False, _SINGULAR if p in bad else "non-finite Newton update")
                continue
            dv = dvm[p]
            if dv > vclamp:
                clamp = True
            if res[p] < abstol and dv < vntol:
                post.append((p, True, ""))  # residual and update both inside tolerance
            else:
                dv_ok[p] = dv < vntol
                if k == stop[p]:
                    post.append((p, False, "iteration limit"))
        if clamp:  # clip node rows, the identity on updates inside the clamp
            np.minimum(DX, vclamp, out=DX, where=sys_.nrows)
            np.maximum(DX, -vclamp, out=DX, where=sys_.nrows)
        # a member that replied above gets its rows rewritten (`load`, `predict`)
        # or leaves the plan before the next `assemble`; NaN or inf adds silently
        sys_.xbuf[:-1] += DX
        if sys_.bounded:  # onto the hulls: the identity on open rows
            X = sys_.xbuf[:-1]
            np.minimum(np.maximum(X, sys_.LO, out=X), sys_.HI, out=X)
        for p, ok, why in post:
            reply(p, ok, why)
