"""Modified nodal analysis, Newton DC solves, and error-controlled implicit transient.

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

Stamp plan.  `_System` compiles each circuit once into flat arrays.  Per
Newton iteration, `mos_currents` evaluates every MOSFET with one
`_core_eval` call and writes a (5, M) buffer: the drain->source currents,
then the conductance columns for the drain, gate, source and body nodes.
`assemble` gathers that buffer through one precomputed index, multiplies by
a sign vector, and scatters everything with a single `bincount` over
n + N*N bins.  The first n bins are the device KCL currents of f; the rest
is the device part of J, row-major, so J = base + bins[n:].reshape(N, N).
The f entries come first and the J entries second, each in device order, so
every bin sums its terms in a fixed order.

Exact rewrites only.  The transient output, and hence `bench --format csv`,
is byte-deterministic and compared across versions, so edits to this hot
path (`_core_eval`, `mos_currents`, `assemble`, `newton`) must perform the
same floating-point operations in the same order.  Allowed: hoisting a
left-to-right leading product (`ispec*lam*qq` -> `(ispec*lam)*qq`),
`2.0*x` -> `x+x`, `(y*2.0)*a` -> `y*(2a)`, stacking elementwise operations
into one array, and skipping an operation that is the identity on the values
it meets (clipping an update already inside the clamp).  Not allowed:
reordering sums or products (`ispec*qq*mlam` -> `(ispec*mlam)*qq`),
algebraic identities that change rounding (sigma as e/(1+e)), or BLAS for
the scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .devmodel import _core_eval, _eval_consts, mosfet_caps, source_value
from .netlist import Circuit

GMIN_DEFAULT = 1e-12


class SolverError(RuntimeError):
    pass


@dataclass
class SolveOptions:
    abstol: float = 1e-9   # A, KCL residual bound
    reltol: float = 1e-3   # relative tolerance for downstream comparisons
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


class _System:
    """Compiled stamping plan for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        n = circuit.n_nodes
        ns = len(circuit.sources)
        N = n + ns
        self.n, self.ns, self.N = n, ns, N

        G = np.zeros((N, N))
        for r in circuit.resistors:
            g = 1.0 / r.value
            if r.a >= 0:
                G[r.a, r.a] += g
            if r.b >= 0:
                G[r.b, r.b] += g
            if r.a >= 0 and r.b >= 0:
                G[r.a, r.b] -= g
                G[r.b, r.a] -= g
        for k, s in enumerate(circuit.sources):
            row = n + k
            if s.p >= 0:
                G[s.p, row] += 1.0
                G[row, s.p] += 1.0
            if s.m >= 0:
                G[s.m, row] -= 1.0
                G[row, s.m] -= 1.0
        self.G = G
        self.waves = [s.wave for s in circuit.sources]

        C = np.zeros((n, n))

        def stamp_c(a, b, c):
            if a >= 0:
                C[a, a] += c
            if b >= 0:
                C[b, b] += c
            if a >= 0 and b >= 0:
                C[a, b] -= c
                C[b, a] -= c

        for cap in circuit.caps:
            stamp_c(cap.a, cap.b, cap.value)
        for m in circuit.mosfets:
            mc = mosfet_caps(m.params, m.w, m.l)
            stamp_c(m.g, m.s, mc.cgs)
            stamp_c(m.g, m.d, mc.cgd)
            stamp_c(m.d, m.b, mc.cdb)
            stamp_c(m.s, m.b, mc.csb)
        self.C = C
        self.Cext = np.zeros((N, N))
        self.Cext[:n, :n] = C

        # MOSFET evaluation arrays; ground is mapped to the spare slot n of a
        # voltage gather buffer whose last entry stays 0.
        mos = circuit.mosfets
        M = len(mos)
        self.M = M
        gidx = lambda i: i if i >= 0 else n
        self.g_idx4 = np.array(
            [[gidx(m.d), gidx(m.g), gidx(m.s), gidx(m.b)] for m in mos],
            dtype=np.intp,
        ).reshape(M, 4).T.copy()
        self.m_sgn = np.array([1.0 if m.params.polarity == "nmos" else -1.0 for m in mos])
        getp = lambda f: np.array([getattr(m.params, f) for m in mos])
        self.p_vth0 = getp("vth0")
        self.p_n = getp("n_slope")
        self.p_kp = getp("kp")
        self.p_lam = getp("lam")
        self.p_eta = getp("eta_dibl")
        self.p_gamma = getp("gamma_body")
        self.p_phi = getp("phi_s")
        self.m_w = np.array([m.w for m in mos])
        self.m_l = np.array([m.l for m in mos])
        self.c_eval = _eval_consts(self.p_n, self.p_kp, self.p_lam, self.p_eta,
                                   self.p_gamma, self.p_phi, self.m_w, self.m_l)
        self._vbuf = np.zeros(n + 1)
        self._mbuf = np.zeros((5, M))
        self._src_cache = (None, None, None)

        # One stamp plan over the flattened (5, M) device buffer and n + N*N
        # accumulator bins (f rows, then J row-major).  The f part comes
        # first: +i at the drain row, -i at the source row.  The J part
        # follows: rows (d,+1),(s,-1) x cols (d,g,s,b) -> buffer rows 1..4.
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
                for col, comp in cols:
                    if col < 0:
                        continue
                    gather.append(comp * M + k); bins.append(n + row * N + col)
                    sgn.append(rs)
        self.s_gather = np.array(gather, dtype=np.intp)
        self.s_bin = np.array(bins, dtype=np.intp)
        self.s_sgn = np.array(sgn)
        self.n_bins = n + N * N

    # -- device evaluation ------------------------------------------------

    def mos_currents(self, v: np.ndarray) -> np.ndarray:
        """Evaluate all MOSFETs at node voltages v.  Returns a (5, M) buffer,
        overwritten by the next call: row 0 holds the physical drain->source
        currents, rows 1..4 the conductances w.r.t. the drain, gate, source
        and body node voltages."""
        out = self._mbuf
        if self.M == 0:
            return out
        buf = self._vbuf
        buf[: self.n] = v
        vt = buf[self.g_idx4] * self.m_sgn
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
        sflip = 1.0 - 2.0 * swap
        np.multiply(idn, sflip * self.m_sgn, out=out[0])
        np.add(gds, msw, out=out[1])                # d column: gds | gsum
        np.multiply(gm, sflip, out=out[2])          # g column: gm | -gm
        np.subtract(msw, gmb_gm + gds, out=out[3])  # s column: -gsum | -gds
        np.multiply(gmb, sflip, out=out[4])         # b column: gmb | -gmb
        return out

    # -- assembly ----------------------------------------------------------

    def source_vector(self, t: float, scale: float = 1.0) -> np.ndarray:
        ct, cs, cv = self._src_cache
        if ct == t and cs == scale:
            return cv
        v = np.array([scale * source_value(w, t) for w in self.waves])
        self._src_cache = (t, scale, v)
        return v

    def base_matrix(self, gmin: float, alpha: float = 0.0) -> np.ndarray:
        base = self.G + alpha * self.Cext
        idx = np.arange(self.n)
        base[idx, idx] += gmin
        return base

    def assemble(self, x, t, gmin, base, alpha=0.0, v_prev=None, ic_prev=None,
                 src_scale=1.0):
        """Return (J, f) at state vector x.  `base` must be
        base_matrix(gmin, alpha); alpha=0 means no companion (DC)."""
        n = self.n
        f = base.dot(x)
        f[n:] -= self.source_vector(t, src_scale)
        if alpha != 0.0:
            f[:n] -= alpha * self.C.dot(v_prev)
            if ic_prev is not None:
                f[:n] -= ic_prev
        if not self.M:
            return base.copy(), f
        dev = self.mos_currents(x[:n]).ravel()
        acc = np.bincount(self.s_bin, weights=self.s_sgn * dev[self.s_gather],
                          minlength=self.n_bins)
        f[:n] += acc[:n]
        return base + acc[n:].reshape(self.N, self.N), f

    def cap_current(self, alpha, v_new, v_prev, ic_prev):
        ic = alpha * self.C.dot(v_new - v_prev)
        if ic_prev is not None:
            ic -= ic_prev
        return ic

    # -- Newton ------------------------------------------------------------

    def newton(self, x0, t, gmin, base, opts: SolveOptions, alpha=0.0,
               v_prev=None, ic_prev=None, src_scale=1.0, max_iter=None):
        """Damped Newton from x0.  Returns (x, iterations, residual_max,
        converged, failure_reason)."""
        n = self.n
        x = x0.copy()
        dv_ok = False
        limit = max_iter if max_iter is not None else opts.max_iter
        resmax = np.inf
        for it in range(1, limit + 1):
            J, f = self.assemble(x, t, gmin, base, alpha, v_prev, ic_prev, src_scale)
            resmax = float(np.maximum.reduce(np.abs(f[:n]))) if n else 0.0
            if dv_ok and resmax < opts.abstol:
                return x, it, resmax, True, ""
            try:
                dx = np.linalg.solve(J, -f)
            except np.linalg.LinAlgError:
                return x, it, resmax, False, "singular Jacobian (check for floating nodes)"
            if not np.logical_and.reduce(np.isfinite(dx)):
                return x, it, resmax, False, "non-finite Newton update"
            dvmax = float(np.maximum.reduce(np.abs(dx[:n]))) if n else 0.0
            if resmax < opts.abstol and dvmax < opts.vntol:
                x += dx  # residual and update both inside tolerance: accept now
                return x, it, resmax, True, ""
            if dvmax > opts.vclamp:
                np.clip(dx[:n], -opts.vclamp, opts.vclamp, out=dx[:n])
            x += dx
            dv_ok = dvmax < opts.vntol
        return x, limit, resmax, False, "iteration limit"

    def worst_node(self, x, t, gmin, src_scale=1.0) -> str:
        if self.n == 0:
            return "<none>"
        _, f = self.assemble(x, t, gmin, self.base_matrix(gmin), src_scale=src_scale)
        return self.circuit.node_names[int(np.argmax(np.abs(f[: self.n])))]


def _state_from_vector(sys_: _System, x: np.ndarray) -> SysState:
    return SysState(v=x[: sys_.n].copy(), i_branch=x[sys_.n:].copy())


def assemble(circuit: Circuit, state: SysState, companion: dict | None = None,
             t: float = 0.0, gmin: float = GMIN_DEFAULT):
    """Public one-shot assembly: returns (J, f) at the given state.

    companion=None stamps DC (capacitors open).  Otherwise companion is a
    mapping with keys h (step), prev (SysState at the step start), scheme
    ("trap" | "be"), and optionally ic_prev (per-node capacitor currents at
    the step start; required history for trapezoidal, zeros by default).
    """
    sys_ = _System(circuit)
    x = state.as_vector()
    if companion is None:
        base = sys_.base_matrix(gmin)
        return sys_.assemble(x, t, gmin, base)
    h = companion["h"]
    scheme = companion.get("scheme", "trap")
    if scheme not in ("trap", "be"):
        raise ValueError(f"unknown scheme {scheme!r}")
    alpha = 2.0 / h if scheme == "trap" else 1.0 / h
    prev: SysState = companion["prev"]
    ic_prev = companion.get("ic_prev")
    if scheme == "trap" and ic_prev is None:
        ic_prev = np.zeros(sys_.n)
    base = sys_.base_matrix(gmin, alpha)
    return sys_.assemble(x, t, gmin, base, alpha, prev.v, ic_prev)


_GMIN_LADDER = tuple(10.0 ** -k for k in range(3, 13))  # 1e-3 .. 1e-12


def dc_operating_point(circuit: Circuit, opts: SolveOptions | None = None,
                       gmin: float = GMIN_DEFAULT, t: float = 0.0,
                       x0: np.ndarray | None = None) -> OpPoint:
    """Solve the DC operating point with sources at their t=0 values.

    Tries plain Newton first, then gmin stepping, then source stepping.
    Raises SolverError when every strategy fails.
    """
    opts = opts or SolveOptions()
    sys_ = _System(circuit)
    start = x0.copy() if x0 is not None else np.zeros(sys_.N)

    base = sys_.base_matrix(gmin)
    x, it, res, ok, _ = sys_.newton(start, t, gmin, base, opts)
    total = it
    if ok:
        return OpPoint(_state_from_vector(sys_, x), res, total, "none")

    ladder = [g for g in _GMIN_LADDER if g > gmin] + [gmin]
    x = np.zeros(sys_.N)
    ok_ladder = True
    for g in ladder:
        base = sys_.base_matrix(g)
        x, it, res, ok, _ = sys_.newton(x, t, g, base, opts)
        total += it
        if not ok:
            ok_ladder = False
            break
    if ok_ladder:
        return OpPoint(_state_from_vector(sys_, x), res, total, "gmin")

    x = np.zeros(sys_.N)
    base = sys_.base_matrix(gmin)
    for frac in np.linspace(0.05, 1.0, 20):
        x, it, res, ok, why = sys_.newton(x, t, gmin, base, opts, src_scale=float(frac))
        total += it
        if not ok:
            hint = f"; {'; '.join(circuit.warnings)}" if circuit.warnings else ""
            raise SolverError(
                f"DC operating point did not converge: plain Newton, gmin and "
                f"source stepping all failed ({why} at source scale {frac:.2f}; "
                f"largest residual at node "
                f"{sys_.worst_node(x, t, gmin, float(frac))!r}{hint})"
            )
    return OpPoint(_state_from_vector(sys_, x), res, total, "source")


_MAX_HALVINGS = 8
_MAX_GRID_STEPS = 1_000_000  # grid intervals; bounds every waveform allocation
_MAX_MULT = 64               # longest step, in grid intervals
_LTE_TOL = 1e-5              # V, per-step error target of the step control


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


def transient(circuit: Circuit, tstep: float, tstop: float,
              scheme: str = "trap", ic: OpPoint | str = "auto",
              opts: SolveOptions | None = None,
              gmin: float = GMIN_DEFAULT) -> Waveforms:
    """Implicit transient analysis on the uniform grid 0, tstep, ..., tstop.

    Steps span 1 to 64 grid intervals under local-error control (see the
    module docstring); samples between solved points are linear
    interpolations, and `Waveforms.solved` lists the grid indices that are
    solver states.  The initial condition is the DC operating point at the
    sources' initial values unless an OpPoint is passed explicitly.
    """
    if scheme not in ("trap", "be"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (math.isfinite(tstep) and math.isfinite(tstop)) or tstep <= 0 or tstop <= 0:
        raise ValueError("tstep and tstop must be positive and finite")
    if tstop < 10 * tstep:
        raise ValueError(f"tstop must cover at least 10 steps (tstep={tstep:g}, "
                         f"tstop={tstop:g})")
    if tstop > _MAX_GRID_STEPS * tstep:
        raise ValueError(f"grid of {tstop / tstep:.3g} steps exceeds the limit of "
                         f"{_MAX_GRID_STEPS:,} (tstep={tstep:g}, tstop={tstop:g})")
    opts = opts or SolveOptions()
    sys_ = _System(circuit)
    n = sys_.n

    if ic == "auto":
        op = dc_operating_point(circuit, opts, gmin)
    elif isinstance(ic, OpPoint):
        op = ic
    else:
        raise ValueError("ic must be 'auto' or an OpPoint")

    n_steps = int(round(tstop / tstep))
    t = np.arange(n_steps + 1) * tstep
    t[-1] = tstop
    corners = _corner_intervals(sys_.waves, n_steps, tstep, tstop)

    base_cache: dict = {}

    def base_for(alpha: float) -> np.ndarray:
        b = base_cache.get(alpha)
        if b is None:
            b = sys_.base_matrix(gmin, alpha)
            base_cache[alpha] = b
        return b

    step_iters = min(opts.max_iter, 60)  # failed steps fall back to halving

    def step(x_from, ic_from, t0, t1, use_trap, depth, guess=None):
        """One implicit step t0 -> t1, halving on failure.  Returns
        (x, ic, worst accepted residual)."""
        h = t1 - t0
        alpha = 2.0 / h if use_trap else 1.0 / h
        ic_hist = ic_from if use_trap else None
        starts = (guess, x_from) if guess is not None else (x_from,)
        for start in starts:
            x_new, _, res, ok, _ = sys_.newton(
                start, t1, gmin, base_for(alpha), opts,
                alpha=alpha, v_prev=x_from[:n], ic_prev=ic_hist,
                max_iter=step_iters,
            )
            if ok:
                ic_new = sys_.cap_current(alpha, x_new[:n], x_from[:n], ic_hist)
                return x_new, ic_new, res
        if depth >= _MAX_HALVINGS:
            raise SolverError(
                f"transient step at t={t1:.6g}s failed to converge after "
                f"{_MAX_HALVINGS} halvings (min substep {h:.3g}s)"
            )
        tm = 0.5 * (t0 + t1)
        x_mid, ic_mid, r1 = step(x_from, ic_from, t0, tm, use_trap, depth + 1)
        x_new, ic_new, r2 = step(x_mid, ic_mid, tm, t1, use_trap, depth + 1)
        return x_new, ic_new, max(r1, r2)

    rec = np.empty((n_steps + 1, sys_.N))  # one row per grid sample
    rrec = np.empty(n_steps + 1)
    x = op.state.as_vector()
    rec[0], rrec[0] = x, op.residual_max
    ic_cur = np.zeros(n)  # capacitor currents at the current solved point
    solved = [0]
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
        x_new, ic_new, res = step(x, ic_cur, t0, t1,
                                  k == 1 and scheme == "trap" and i > 0, 0, guess)
        v = x_new[:n]
        if at_corner:
            hist, m = [(t1, v)], 1
        else:
            grow = k  # no estimate yet: hold the step
            if len(hist) == 2 and n:
                (ta, va), (tb, vb) = hist
                dd2 = ((v - vb) / (t1 - tb) - (vb - va) / (tb - ta)) / (t1 - ta)
                r = (t1 - t0) ** 2 * float(np.max(np.abs(dd2))) / _LTE_TOL
                if r > 1.0 and k > 1:
                    m = k // 2  # reject: retry from the same point, half the step
                    continue
                grow = min(2 * k, _MAX_MULT,
                           k * math.sqrt(0.5 / r) if r > 0.0 else math.inf)
            hist = [*hist[-1:], (t1, v)]
            m = 1 << max(int(grow).bit_length() - 1, 0)
        if k > 1:  # samples inside the step lie on the line between its ends
            w = ((t[i + 1:i + k] - t0) / (t1 - t0))[:, None]
            rec[i + 1:i + k] = x + w * (x_new - x)
            rrec[i + 1:i + k] = max(rrec[i], res)
        x_last, h_last = x, t1 - t0
        x, ic_cur, i = x_new, ic_new, i + k
        rec[i], rrec[i] = x, res
        solved.append(i)

    # `step` refers to itself, a reference cycle that would keep the compiled
    # system for the cyclic collector; repeated runs then fragmented the heap
    del step
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
        solved=np.array(solved),
    )
