"""MNA assembly, DC operating point, and implicit transient integration."""

import inspect
import tokenize
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import refmodel as rm
from conftest import gen_with_stimulus
from lsbench import _mna, engine, measure
from lsbench.devmodel import (VT, MosBias, SourceWave, default_params,
                              effective_vth, mosfet_eval, source_value)
from lsbench.engine import (GMIN_DEFAULT, SolverError, SysState, _System,
                            dc_operating_point, transient)
from lsbench.netlist import elaborate, parse_netlist, parse_seed_models
from lsbench.topologies import TOPOLOGY_IDS, TopoParams, gen, stack_leakage_fixture

GMIN = GMIN_DEFAULT


def _circ(text):
    return elaborate(parse_netlist(text))


RC_STEP = """\
rc step response, tau = 1 ns
VIN in 0 PULSE(0 3.3 0 1f 1f 20n 40n)
R1 in out 1k
C1 out 0 1p
.tran 1p 10n
.end
"""

INV_DC = """\
static inverter, input low
.model NCH NMOS ()
.model PCH PMOS ()
VDD vdd 0 DC 3.3
VIN in 0 DC 0
MP1 out in vdd vdd PCH W=2.5u L=0.35u
MN1 out in 0 0 NCH W=1u L=0.35u
.end
"""


# ---------------------------------------------------------------------------
# assembly

def _assemble(circuit, state, companion=None, t=0.0):
    """(J, f) of `circuit` alone at `state`.  companion=None stamps DC
    (capacitors open); otherwise it maps h (step), prev (SysState at the
    step start), scheme ("trap" | "be") and optionally ic_prev (per-node
    capacitor currents at the step start, the trapezoidal history)."""
    s = _System([circuit])
    alpha, hist, ic = 0.0, None, None
    if companion is not None:
        alpha = (2.0 if companion["scheme"] == "trap" else 1.0) / companion["h"]
        hist, ic = alpha * s.C[0].dot(companion["prev"].v), companion.get("ic_prev")
    return s.assemble_one(0, state.as_vector(), s.base_matrix(0, GMIN, alpha),
                          s.rhs(0, [source_value(w, t) for w in s.waves[0]], hist=hist), ic)


def test_assemble_resistor_row():
    circ = _circ("one grounded resistor\nR1 a 0 1k\n.end\n")
    J, f = _assemble(circ, SysState(v=np.array([2.0]), i_branch=np.zeros(0)))
    g = 1e-3 + GMIN
    assert f[0] == pytest.approx(2.0 * g, rel=1e-15)
    assert J[0, 0] == pytest.approx(g, rel=1e-15)


def test_assemble_source_constraint_row():
    circ = _circ("driven resistor\nV1 a 0 DC 3.3\nR1 a 0 1k\n.end\n")
    st = SysState(v=np.array([2.0]), i_branch=np.array([0.1]))
    J, f = _assemble(circ, st)
    assert f[1] == pytest.approx(2.0 - 3.3, rel=1e-15)  # v(a) - 3.3
    assert f[0] == pytest.approx(2.0 * (1e-3 + GMIN) + 0.1, rel=1e-15)
    assert J[0, 1] == 1.0 and J[1, 0] == 1.0


def test_assemble_vanishes_at_stack_equilibrium():
    # hand-built state from the reference bisection must satisfy KCL exactly
    doc = stack_leakage_fixture(2, 1e-6, default_params("nmos"), 3.3)
    circ = elaborate(doc)
    vm = rm.stack_vm(rm.RET_NMOS, 3.3, 0.5e-6, gmin=GMIN)
    i_top = rm.ref_id(rm.RET_NMOS, -vm, 3.3 - vm, vm, 0.5e-6)
    v = np.zeros(circ.n_nodes)
    v[circ.node_index["vdd"]] = 3.3
    v[circ.node_index["mx1_m1"]] = vm
    st = SysState(v=v, i_branch=np.array([-(i_top + GMIN * 3.3)]))
    _, f = _assemble(circ, st)
    assert np.max(np.abs(f)) < 1e-12


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _request(s, j, alpha, hist, t=1.5e-9):
    """Member j's (base, rhs, ic) request parts; hist is () for DC or
    (v_prev, ic_prev) for a companion."""
    hc = ic = None
    if hist:
        v_prev, ic = hist
        hc = alpha * s.C[j].dot(v_prev)
    return (s.base_matrix(j, GMIN, alpha),
            s.rhs(j, [source_value(w, t) for w in s.waves[j]], hist=hc), ic)


def _assemble_one(s, x, alpha, hist, j=0):
    """(J, f) of member j of _System s alone at state x."""
    return s.assemble_one(j, x, *_request(s, j, alpha, hist))


def _assemble_live(s, members, xs, alpha, hists):
    """(J, f) of each of `members` of _System s, planned as one live batch,
    at the states xs with the histories hists (see _request): each member's
    slices of the flat J and F."""
    s.live(members)
    for p, j in enumerate(s.members):
        i = members.index(j)
        s.load(p, (xs[i], *_request(s, j, alpha, hists[i]), 1))
    J, F = s.assemble()
    out = {}
    for p, j in enumerate(s.members):
        N = s.N[j]
        out[j] = (J[s.jo[p]:s.jo[p + 1]].reshape(N, N), F[s.xo[p]:s.xo[p + 1]])
    return [out[j] for j in members]


# three members of one structure: the nominal circuit, a lower input swing,
# and a process corner (every device parameter differs)
_BATCH_SEED = ".model NCH NMOS (VTH0=0.4 KP=0.000152)\n.model PCH PMOS (VTH0=1 KP=3.84e-05)\n"


def _batch_members(topo):
    return [elaborate(gen(topo)), elaborate(gen(topo, TopoParams(vin_hi=0.9))),
            elaborate(gen(topo), base_models=parse_seed_models(_BATCH_SEED))]


@pytest.mark.parametrize("topo", TOPOLOGY_IDS)
def test_assemble_jacobian_matches_central_differences(topo):
    # J and f come out of one scatter over a shared stamp plan; a misplaced
    # bin, gather index or sign shows up as a J entry that is not the
    # derivative of f.  Random states put drain below source on devices of
    # both polarities, so the swapped branch of every column is exercised.
    # Tolerance per entry: 1e-4 relative plus 2e-9 S, against a worst
    # central-difference roundoff of ~3e-10 S at h = 1 uV and on-device
    # conductances of 1e-5..1e-3 S.
    # The same states also go through a batch of three members with
    # different sources and device parameters, each at its own state: every
    # member's J and f must equal its one-member assembly bit for bit.
    members = _batch_members(topo)
    s = _System(members[:1])
    batch = _System(members)
    lone = [_System([c]) for c in members]
    n, N = s.n[0], s.N[0]
    term = s.plans[0][0]  # MOSFET terminals, N = ground
    rng = np.random.default_rng(20261018)
    h = 1e-6
    swapped = {1.0: set(), -1.0: set()}
    for _ in range(4):
        x = np.concatenate([rng.uniform(-0.5, 4.0, n), rng.uniform(-1e-3, 1e-3, N - n)])
        vt = np.append(x, 0.0)[term] * s.m_sgn
        for pol in swapped:
            swapped[pol].update(vt[0][s.m_sgn == pol] < vt[2][s.m_sgn == pol])
        v_prev = rng.uniform(-0.5, 4.0, n)
        ic_prev = rng.uniform(-1e-4, 1e-4, n)
        for alpha, hist in ((0.0, ()), (2.0 / 10e-12, (v_prev, ic_prev))):
            J = _assemble_one(s, x, alpha, hist)[0]
            jfd = np.empty_like(J)
            for j in range(N):
                e = np.zeros(N)
                e[j] = h
                fp = _assemble_one(s, x + e, alpha, hist)[1]
                fm = _assemble_one(s, x - e, alpha, hist)[1]
                jfd[:, j] = (fp - fm) / (2 * h)
            bad = np.abs(J - jfd) > 1e-4 * np.abs(J) + 2e-9
            assert not bad.any(), (alpha, np.argwhere(bad))

            X = [x, x[::-1], x + 0.25]
            hists = [(v_prev, c * ic_prev) if hist else () for c in (1.0, -1.0, 2.0)]
            got = _assemble_live(batch, [0, 1, 2], X, alpha, hists)
            for b, one in enumerate(lone):
                J1, f1 = _assemble_one(one, X[b], alpha, hists[b])
                assert _same_bits(got[b][0], J1) and _same_bits(got[b][1], f1), (alpha, b)
    assert swapped == {1.0: {False, True}, -1.0: {False, True}}


def test_ragged_assemble_equals_lone_assembly():
    # one _System over the three members of every topology: six sizes, so
    # the live plan mixes stacked groups, groups of one (a live subset in
    # scrambled order, whose device rows are not consecutive) and members
    # with different node, unknown and device counts.  Every member's J and
    # f must equal its one-member assembly bit for bit.
    circuits = [c for topo in TOPOLOGY_IDS for c in _batch_members(topo)]
    batch = _System(circuits)
    assert len(set(batch.N)) == 6
    rng = np.random.default_rng(6)
    for members in (list(range(18)), [17, 0, 5, 9, 3, 10, 4]):
        X, hists = [], []
        for j in members:
            n, N = batch.n[j], batch.N[j]
            X.append(np.concatenate([rng.uniform(-0.5, 4.0, n), rng.uniform(-1e-3, 1e-3, N - n)]))
            hists.append((rng.uniform(-0.5, 4.0, n), rng.uniform(-1e-4, 1e-4, n)))
        for alpha in (0.0, 2.0 / 10e-12):
            hs = hists if alpha else [()] * len(members)
            got = _assemble_live(batch, members, X, alpha, hs)
            for i, j in enumerate(members):
                J1, f1 = _assemble_one(_System([circuits[j]]), X[i], alpha, hs[i])
                assert _same_bits(got[i][0], J1) and _same_bits(got[i][1], f1), (alpha, j)


def test_mos_currents_match_scalar_model():
    # the vectorized device path against mosfet_eval, one device at a time,
    # after the caller-side polarity reflection and drain/source swap
    rng = np.random.default_rng(7)
    seen = {"swap_nmos": 0, "swap_pmos": 0, "vsb_clamped": 0, "u_over_40": 0}
    for topo in TOPOLOGY_IDS:
        circ = elaborate(gen(topo))
        s = _System([circ])
        s.live([0])
        for _ in range(10):
            v = rng.uniform(-1.5, 5.0, s.n[0])
            s.xbuf[: s.n[0]] = v
            got = s.mos_currents()
            vx = np.append(v, 0.0)  # index -1 is ground
            for k, m in enumerate(circ.mosfets):
                sg = 1.0 if m.params.polarity == "nmos" else -1.0
                vd, vg, vs, vb = (sg * vx[i] for i in (m.d, m.g, m.s, m.b))
                swap = vd < vs
                if swap:
                    vd, vs = vs, vd
                    seen["swap_nmos" if sg > 0 else "swap_pmos"] += 1
                bias = MosBias(vgs=vg - vs, vds=vd - vs, vsb=vs - vb)
                e = mosfet_eval(m.params, bias, m.w, m.l)
                gsum = e.gm + e.gds + e.gmb
                if swap:  # rows: current, then d, g, s, b columns
                    want = [-sg * e.id, gsum, -e.gm, -e.gds, -e.gmb]
                else:
                    want = [sg * e.id, e.gds, e.gm, -gsum, e.gmb]
                np.testing.assert_allclose(got[:, k], want, rtol=1e-12, atol=0)
                p = m.params
                seen["vsb_clamped"] += bias.vsb < -0.5 * p.phi_s
                vte = effective_vth(p, bias.vds, bias.vsb)
                seen["u_over_40"] += (bias.vgs - vte) / (2 * p.n_slope * VT) > 40
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# DC operating point

def test_resistive_divider():
    circ = _circ("divider\nV1 in 0 DC 5\nR1 in out 1k\nR2 out 0 1k\n.end\n")
    op = dc_operating_point(circ)
    assert op.homotopy_used == "none"
    assert op.residual_max < 1e-9
    assert op.state.v[circ.node_index["out"]] == pytest.approx(2.5, abs=1e-6)


def test_inverter_dc_matches_reference():
    circ = _circ(INV_DC)
    op = dc_operating_point(circ)
    vo = op.state.v[circ.node_index["out"]]
    assert vo == pytest.approx(3.3, abs=5e-3)
    assert vo == pytest.approx(3.2999999810475193, abs=1e-6)
    want = rm.inverter_out(rm.RET_NMOS, rm.RET_PMOS, 3.3, 0.0, 1e-6, 2.5e-6)
    assert vo == pytest.approx(want, abs=1e-6)
    assert op.homotopy_used == "none"


def test_stack_fixture_middle_node():
    doc = stack_leakage_fixture(2, 1e-6, default_params("nmos"), 3.3)
    circ = elaborate(doc)
    op = dc_operating_point(circ)
    vm = op.state.v[circ.node_index["mx1_m1"]]
    assert vm == pytest.approx(0.07229562364375133, abs=1e-6)
    assert vm == pytest.approx(rm.stack_vm(rm.RET_NMOS, 3.3, 0.5e-6, gmin=GMIN),
                               abs=1e-6)


def test_empty_circuit_solves():
    # no unknowns: every residual and update reduction runs over nothing
    circ = _circ("nothing\n.end\n")
    op = dc_operating_point(circ)
    assert (op.iterations, op.residual_max, op.homotopy_used) == (1, 0.0, "none")
    waves = transient(circ, 1e-9, 20e-9)
    assert len(waves.t) == 21 and waves.node_v == {}


_ERRSTATES = ({}, {"all": "raise"}, {"all": "ignore"})  # the caller's: default, strict, silent


def test_singular_jacobian_reported(monkeypatch):
    # with the shunt disabled, a capacitor island has no DC path at all; the
    # driver solves under its own errstate, so the caller's does not matter
    circ = _circ("cap island\nV1 a 0 DC 1\nC1 b 0 1p\n.end\n")
    monkeypatch.setattr(engine, "GMIN_DEFAULT", 0.0)
    for state in _ERRSTATES:
        with np.errstate(**state), pytest.raises(SolverError, match="singular Jacobian"):
            dc_operating_point(circ)


def test_lapack_gufunc_solves_equal_numpy_solve():
    # `_drive` calls np.linalg.solve's vector gufunc without its wrapper, on
    # one vector or on a stack of (L, N) rows, writing with out= into views
    # of a flat buffer, or on a subset of the stack by index.  Each must give
    # the bits of np.linalg.solve on (L, N, 1) columns; this also pins the
    # private `_umath_linalg` import
    rng = np.random.default_rng(14)
    for N in range(1, 17):
        for L in (1, 2, 3, 5, 8):
            flat = rng.standard_normal(3 + L * N * (N + 2))  # J, then NF, then DX
            J = flat[3:3 + L * N * N].reshape(L, N, N)
            NF = flat[3 + L * N * N:3 + L * N * (N + 1)].reshape(L, N)
            DX = flat[3 + L * N * (N + 1):].reshape(L, N)
            want = np.linalg.solve(J, NF[:, :, None])[:, :, 0]
            with _mna._lapack():
                if L == 1:
                    _mna._SOLVE1(J[0], NF[0], out=DX[0])
                else:
                    _mna._SOLVE1(J, NF, out=DX)
                some = _mna._SOLVE1(J[[0, L - 1]], NF[[0, L - 1]])
                each, bad = _mna._solve_each(J, NF)
            assert _same_bits(DX, want), (N, L)
            assert _same_bits(some, want[[0, L - 1]]), (N, L)
            assert _same_bits(each, want) and not bad, (N, L)
            for q in range(L):
                assert _same_bits(DX[q], np.linalg.solve(J[q], NF[q])), (N, L, q)


def test_dc_fallback_that_runs_out_names_h_and_node(monkeypatch):
    # corner 0030 of dc_corners needs the pseudo-transient fallback: three
    # steps of its budget end it far from settled, and a Newton limit of 2
    # iterations fails every step until h reaches its floor
    circ = elaborate(gen("cls"), base_models=parse_seed_models(_BATCH_SEED))
    with pytest.raises(SolverError, match=r"\(iteration limit at h=3\.81e-18s; "
                                          r"largest residual at node '\w+'"):
        dc_operating_point(circ, engine.SolveOptions(max_iter=2))
    monkeypatch.setattr(engine, "_PTC_STEPS", 3)
    with pytest.raises(SolverError, match=r"\(3 steps spent at h=8e-12s; "
                                          r"largest residual at node '\w+'"):
        dc_operating_point(circ)


def test_solve_options_reject_a_max_iter_that_is_not_a_positive_integer():
    # the driver ends a request when its iteration count reaches the limit:
    # at 2.5 a DC solve that did not converge ran on without end
    for bad in (2.5, 0, -1, True):
        with pytest.raises(ValueError, match=r"max_iter must be an integer >= 1, got "):
            engine.SolveOptions(max_iter=bad)
    opts = engine.SolveOptions(max_iter=1)
    with pytest.raises(AttributeError):  # frozen: the check cannot be bypassed
        opts.max_iter = 2.5
    assert opts.max_iter == 1


# ---------------------------------------------------------------------------
# transient

def test_rc_step_matches_closed_form():
    circ = _circ(RC_STEP)
    waves = transient(circ, circ.tran.tstep, circ.tran.tstop)
    rc = 1e3 * 1e-12
    assert len(waves.t) == 10001 and waves.t[-1] == 10e-9
    out = waves.node_v["out"]
    assert abs(out[0]) < 1e-6
    sel = (waves.t >= 0.1 * rc) & (waves.t <= 5 * rc)
    exact = 3.3 * (1.0 - np.exp(-waves.t[sel] / rc))
    assert np.max(np.abs(out[sel] - exact) / exact) < 0.01
    assert waves.resid_max.max() < 1e-9


def test_dc_sources_give_flat_waveforms():
    circ = _circ("dc only\nVIN in 0 DC 3.3\nR1 in out 1k\nC1 out 0 1p\n.end\n")
    waves = transient(circ, 1e-9, 20e-9)
    for arr in waves.node_v.values():
        assert np.max(np.abs(arr - arr[0])) < 1e-6


def test_transient_is_deterministic():
    circ = elaborate(gen("ssls"))
    w1 = transient(circ, 100e-12, 20e-9)
    w2 = transient(circ, 100e-12, 20e-9)
    for name in w1.node_v:
        assert np.array_equal(w1.node_v[name], w2.node_v[name])
    assert np.array_equal(w1.resid_max, w2.resid_max)


def test_companion_replay_satisfies_kcl():
    # rebuild every solved step from the recorded waveforms with an
    # independently coded companion recurrence: backward Euler for the first
    # step and for every step spanning several grid intervals, trapezoid for
    # the other single-interval steps.  The KCL residual of each replayed
    # step must sit inside the solver tolerance, and every sample between
    # two solves must lie on the straight line joining them.
    circ = _circ(RC_STEP)
    waves = transient(circ, 10e-12, 5e-9)
    names = circ.node_names
    vn = np.stack([waves.node_v[nm] for nm in names], axis=1)
    ib = np.stack([waves.supply_i[s.name] for s in circ.sources], axis=1)
    Cm = np.zeros((2, 2))
    Cm[circ.node_index["out"], circ.node_index["out"]] = 1e-12

    solved = waves.solved
    assert solved[0] == 0 and solved[-1] == len(waves.t) - 1
    assert np.all(np.diff(solved) >= 1)
    ic = np.zeros(2)
    worst = 0.0
    schemes = set()
    for a, b in zip(solved[:-1], solved[1:]):
        h = float(waves.t[b] - waves.t[a])
        scheme = "be" if a == 0 or b - a > 1 else "trap"
        schemes.add(scheme)
        comp = {"h": h, "prev": SysState(v=vn[a], i_branch=ib[a]),
                "scheme": scheme}
        if scheme == "trap":
            comp["ic_prev"] = ic
        _, f = _assemble(circ, SysState(v=vn[b], i_branch=ib[b]),
                         companion=comp, t=float(waves.t[b]))
        worst = max(worst, float(np.max(np.abs(f[:2]))))
        alpha = (1.0 if scheme == "be" else 2.0) / h
        step_ic = alpha * Cm.dot(vn[b] - vn[a])
        ic = step_ic - ic if scheme == "trap" else step_ic
        w = (waves.t[a:b + 1] - waves.t[a]) / h
        for rec in (vn, ib):
            line = rec[a] + w[:, None] * (rec[b] - rec[a])
            np.testing.assert_allclose(rec[a:b + 1], line, rtol=1e-12, atol=1e-15)
        assert np.all(waves.resid_max[a + 1:b]
                      == max(waves.resid_max[a], waves.resid_max[b]))
    assert schemes == {"be", "trap"}
    assert worst < 1e-9
    assert waves.resid_max.max() < 1e-9


def test_stepper_solves_few_samples_on_a_quiet_grid():
    circ = elaborate(gen("cls"))
    waves = transient(circ, circ.tran.tstep, circ.tran.tstop)
    assert len(waves.t) == 30001
    assert len(waves.solved) < len(waves.t) / 5
    assert np.max(np.diff(waves.solved)) == 64


def _count_assembles(monkeypatch) -> list:
    """A list that gains one entry per `_System.assemble` call."""
    calls, real = [], _System.assemble
    monkeypatch.setattr(_System, "assemble", lambda s: calls.append(0) or real(s))
    return calls


def test_failed_guess_retries_from_the_step_start(monkeypatch):
    # a table whose line through the step start reaches 1 kV on every node
    # at t1 predicts a start 2,000 clamped iterations away from the
    # solution, far past the step's iteration limit: the step must fall back
    # to a start at x_from and return exactly the bits of a step without a
    # guess
    circ = elaborate(gen("cls"))
    sys_, opts = _System([circ]), engine.SolveOptions()
    t = engine._grid(circ.tran.tstep, circ.tran.tstop)
    stepper = engine._Stepper(sys_, 0, t)
    x0 = dc_operating_point(circ).state.as_vector()
    n = circ.n_nodes
    ic0 = np.zeros(n)
    guess = x0.copy()
    guess[:n] = 1e3
    w = [t[4] - t[0], 1.0, 1.0]

    def whole_step(lev):  # a table through x0 and guess, predicting at level lev
        sys_.tables()
        sys_.tv[0][:2] = x0, (guess - x0) / w[0]
        return (yield from stepper.step(x0, ic0, t[0], t[4], False, 0, w, lev))

    calls = _count_assembles(monkeypatch)
    runs = []
    for lev in (2, 1):
        del calls[:]
        (out,) = engine._drive(sys_, [whole_step(lev)], opts)
        runs.append((out, len(calls)))
    (got, n_guess), (want, n_plain) = runs
    assert n_guess == engine._STEP_ITERS + n_plain  # the guess used up its limit
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert got[2] == want[2]


def test_halved_substep_takes_start_rhs_and_history_from_its_x0():
    # a level-0 step request, as a halved substep sends, from an x0 away
    # from the table's T[0]: `predict` must start it at x0 and form its rhs,
    # and `extend` its history, with exactly the arithmetic the stepper
    # itself once did, written out below
    circ = elaborate(gen("cls"))
    s = _System([circ])
    s.live([0])
    s.tables()
    n, N, C = s.n[0], s.N[0], s.C[0]
    rng = np.random.default_rng(7)
    s.tv[0][...] = rng.uniform(-0.5, 3.5, (4, N))
    x0, x_new = rng.uniform(-0.5, 3.5, (2, N))
    t1, alpha = 3.3e-9, 2.0 / 5e-12
    for ic in (None, rng.uniform(-1e-4, 1e-4, n)):
        spec = (1.0, 1.0, 1.0, 0, alpha, t1)
        s.load(0, (x0, s.base_matrix(0, GMIN, alpha), None, ic, 3, spec, 0))
        s.predict({0: spec})
        assert _same_bits(s.xv[0], x0)
        assert _same_bits(s.rv[0][:n], alpha * C.dot(x0[:n]))
        assert _same_bits(s.rv[0][n:], np.array([source_value(w, t1) for w in s.waves[0]]))
        s.nv[0][0] = x_new
        s.extend([0])
        want = alpha * C.dot(x_new[:n] - x0[:n])
        if ic is not None:
            want -= ic
        assert _same_bits(s.hv[0], want)
    assert not _same_bits(s.tv[0][0], x0)


def test_transient_newton_work_per_step(monkeypatch):
    # the cubic predictor's start converges in about one and a half
    # iterations per solved step on cmls_stacked (2.14 with a linear one),
    # on the step sequence of a 1e-5 V target it was measured on: at the
    # shipped 4e-5 V the longer steps take more iterations each (4,847 for
    # 3,054 steps, 1.59), while the total falls
    monkeypatch.setattr(engine, "_LTE_TOL", 1e-5)
    circ = elaborate(gen("cmls_stacked"))
    calls = _count_assembles(monkeypatch)
    waves = transient(circ, circ.tran.tstep, circ.tran.tstop)
    steps = len(waves.solved) - 1
    assert len(calls) <= 1.55 * steps, (len(calls), steps)


def test_transient_newton_work_at_the_step_target(monkeypatch):
    # bench_six runs as long as its slowest member, cmls_stacked, iterates:
    # 4,847 Newton iterations at the 4e-5 V step target, 5,942 at 1e-5 V
    circ = elaborate(gen("cmls_stacked"))
    calls = _count_assembles(monkeypatch)
    transient(circ, circ.tran.tstep, circ.tran.tstop)
    assert len(calls) <= 4_900, len(calls)


def test_off_grid_corner_gets_a_single_step():
    # td = 1.005 ns lies inside the grid interval [1.00, 1.01] ns; the rise
    # corner at 1.505 ns and the fall corners sit inside intervals too.  The
    # 1 uV pulse is too small for the error control to see its corners, so
    # only the corner enumeration keeps the long steps from spanning them.
    circ = _circ("rc, corners between grid points\n"
                 "VIN in 0 PULSE(0 1u 1.005n 0.5n 0.5n 3n 10n)\n"
                 "R1 in out 1k\nC1 out 0 1p\n.end\n")
    waves = transient(circ, 10e-12, 30e-9)
    solved = set(waves.solved.tolist())
    for k in range(3):
        for corner in (1.005, 1.505, 4.505, 5.005):
            j = int((corner + 10 * k) * 100)  # interval [j, j+1] holds it
            assert j in solved and j + 1 in solved, (k, corner)
    # the source is exact at solved points and linear between them
    vin = waves.node_v["in"]
    want = [source_value(circ.sources[0].wave, float(t)) for t in waves.t]
    np.testing.assert_allclose(vin, want, rtol=0, atol=1e-12)
    assert np.max(np.diff(waves.solved)) == 64


def test_pulse_faster_than_the_grid_steps_singly():
    # a 1 fs period puts corners into every 10 ps interval; the enumeration
    # must see that without listing the 200,000 periods (6.4 MB of corner
    # times) and step one interval at a time
    circ = _circ("rc, period far below the grid step\n"
                 "VIN in 0 PULSE(0 1 0 0.2f 0.2f 0.2f 1f)\n"
                 "R1 in out 1k\nC1 out 0 1p\n.end\n")
    tracemalloc.start()
    try:
        waves = transient(circ, 10e-12, 200e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(waves.solved, np.arange(len(waves.t)))
    assert peak < 2 * 2**20


def test_step_growth_with_a_subnormal_error_estimate():
    # a 1e-310 V drive makes the error ratio r subnormal, where 0.5/r
    # overflows; the steps must still grow to the longest, without a warning
    circ = _circ("rc, subnormal drive\nVIN in 0 PULSE(0 1e-310 1n 1n 1n 3n 10n)\n"
                 "R1 in out 1k\nC1 out 0 1p\n.end\n")
    with np.errstate(all="raise", under="ignore"):  # subnormal products underflow
        waves = transient(circ, 10e-12, 20e-9)
    assert np.diff(waves.solved).max() == 64
    assert np.all(np.abs(waves.node_v["out"]) <= 1e-310)


def test_inverter_switches_once_per_edge(inverter_power_run):
    circ, waves = inverter_power_run
    sel = waves.t > 100e-9
    s = waves.node_v["out"][sel] - 1.65
    crossings = int(np.sum(np.diff(np.signbit(s)) != 0))
    assert crossings == 4  # two periods, one rise and one fall each
    assert waves.resid_max.max() < 1e-9


def test_transient_validation():
    circ = _circ(RC_STEP)
    with pytest.raises(ValueError, match="10"):
        transient(circ, 1e-9, 5e-9)
    with pytest.raises(ValueError, match="positive"):
        transient(circ, -1e-12, 1e-9)
    with pytest.raises(ValueError, match="finite"):
        transient(circ, 1e-12, float("inf"))
    with pytest.raises(ValueError, match="exceeds the limit"):
        transient(circ, 1e-12, 1e-3)


# ---------------------------------------------------------------------------
# batched transient

_WAVE_FIELDS = ("t", "resid_max", "solved")


def _assert_same_waves(got, want):
    """Bit-for-bit equality of two Waveforms."""
    for f in _WAVE_FIELDS:
        assert _same_bits(getattr(got, f), getattr(want, f)), f
    for rec in ("node_v", "supply_i"):
        a, b = getattr(got, rec), getattr(want, rec)
        assert list(a) == list(b)
        for k in a:
            assert _same_bits(a[k], b[k]), (rec, k)


def test_transient_many_equals_lone_runs():
    # four input levels, from a contended 0.6 V input to full swing: each
    # member takes its own step sequence, and the lock-step Newton
    # iterations must not change a single bit
    circs = [elaborate(gen("cls", TopoParams(vin_hi=v))) for v in (0.6, 0.9, 1.2, 1.6)]
    got = engine._transient_many(circs, 10e-12, 60e-9)
    assert len(got) == 4
    lengths = set()
    for c, w in zip(circs, got):
        _assert_same_waves(w, transient(c, 10e-12, 60e-9))
        lengths.add(len(w.solved))
    assert len(lengths) > 1  # the members did step differently
    # the six topologies have six sizes, so every member is a group of its
    # own: one device evaluation for all, one solve per member, DC starts
    # and steps in lock-step
    circs = [elaborate(gen(topo)) for topo in TOPOLOGY_IDS]
    got = engine._transient_many(circs, 10e-12, 30e-9)
    assert len(got) == 6
    for c, w in zip(circs, got):
        _assert_same_waves(w, transient(c, 10e-12, 30e-9))


def _acceptance_events(monkeypatch) -> dict:
    """Drive iteration -> {(member, event)}, filled as transients run: what
    each converged or failed whole step, or last substep of a halving, led
    to, "accept", "reject" (r > 1, k > 1), "reset" (a corner restarts the
    table) or "halve"."""
    events, tick = {}, [0]
    assemble, run = _System.assemble, engine._Stepper.run

    def counted(s):
        tick[0] += 1
        return assemble(s)

    def logged(stepper):
        gen, result, last = run(stepper), None, None
        while True:
            try:
                req = gen.send(result)
            except StopIteration as e:
                return e.value
            # after a whole step or a halving's last substep: the steps whose
            # spec holds their table's denominators (a first half's are ones)
            if last is not None and len(last) > 6 and last[5][0] != 1.0 and result is not None:
                if result[3]:
                    what = ("reject", "accept", "reset")[req[6]]
                else:  # a halving starts with a first half, of level 0
                    what = "halve" if req[5][3] == 0 else None
                if what:
                    events.setdefault(tick[0], set()).add((stepper.j, what))
            last, result = req, (yield req)

    monkeypatch.setattr(_System, "assemble", counted)
    monkeypatch.setattr(engine._Stepper, "run", logged)
    return events


def test_transient_many_batched_acceptance_equals_lone_runs(monkeypatch):
    # four cls members whose pulses start and rise at different times, each
    # from its own DC start, with 3 Newton iterations per step start: in
    # one drive iteration one member accepts a step, one rejects one, one
    # halves a step that failed and one restarts its table at a corner, so
    # one pass extends and predicts short and full tables side by side;
    # every member keeps the bits of its lone run
    def member(vin_hi, td, tr):
        wave = SourceWave("pulse", 0.0, vin_hi, td, tr, tr, 20e-9, 45e-9)
        return elaborate(gen_with_stimulus("cls", wave, TopoParams(vin_hi=vin_hi)))

    circs = [member(1.2, 1e-9, 1e-9), member(0.9, 2e-9, 1e-9), member(0.9, 1.25e-9, 0.5e-9),
             member(0.9, 1e-9, 0.5e-9)]
    run = dict(tstep=20e-12, tstop=60e-9)
    # the members were built to reject, halve, reset and accept at once
    # on the step sequence of a 1e-5 V target; at 4e-5 V none rejects
    monkeypatch.setattr(engine, "_STEP_ITERS", 3)
    monkeypatch.setattr(engine, "_LTE_TOL", 1e-5)
    events = _acceptance_events(monkeypatch)
    got = engine._transient_many(circs, **run)
    want = {(0, "reject"), (1, "halve"), (2, "reset"), (3, "accept")}
    assert any(want <= ev for ev in events.values())
    for c, w in zip(circs, got):
        _assert_same_waves(w, transient(c, **run))


_RC_PULSE = "rc step\nVIN in 0 PULSE(0 {} 0 1f 1f 2n 4n)\nR1 in out 1k\nC1 out 0 1p\n.end\n"


def _poison_empty(monkeypatch):
    """Make every buffer the engine's np.empty hands out come back poisoned
    (NaN, or -1 for integer arrays), so any read before a write changes the
    result."""
    real_empty = np.empty

    def poisoned(*a, **k):
        arr = real_empty(*a, **k)
        arr.fill(np.nan if arr.dtype.kind == "f" else -1)
        return arr
    monkeypatch.setattr(engine.np, "empty", poisoned)


def test_transient_many_damped_members_equal_lone_runs():
    # near-instant input steps of several volts: the first Newton update of
    # each step exceeds the 0.5 V clamp, so damping runs inside the batch
    circs = [_circ(_RC_PULSE.format(v)) for v in (3.3, 1.0, 5.0)]
    for c, w in zip(circs, engine._transient_many(circs, 10e-12, 10e-9)):
        _assert_same_waves(w, transient(c, 10e-12, 10e-9))


def test_transient_many_reads_no_unwritten_buffer(monkeypatch):
    # the 1 V member's first step converges in fewer iterations than the
    # others', so it sends trapezoidal requests while they still iterate on
    # backward Euler, whose history rows must then read as zeros.  With
    # every np.empty buffer poisoned, any read before a write changes the
    # result.
    circs = [_circ(_RC_PULSE.format(v)) for v in (3.3, 1.0, 5.0)]
    want = [transient(c, 10e-12, 10e-9) for c in circs]
    _poison_empty(monkeypatch)
    got = engine._transient_many(circs, 10e-12, 10e-9)
    monkeypatch.undo()
    for w, lone in zip(got, want):
        _assert_same_waves(w, lone)


def test_transient_many_flat_layout_edge_cases(monkeypatch):
    # one ragged batch over the corners of the flat live layout: the empty
    # circuit (n = N = 0) first, whose empty reduceat segments read the
    # element at their start, another member's, and which outlasts the
    # others, so that alone its segments start at S, past the end; the
    # MOSFET-free RC_STEP and a damped RC member, one group of two whose
    # node rows take no device currents; and two topologies.  Each member
    # must equal its lone run bit for bit, also with every np.empty buffer
    # poisoned, so no flat buffer is read before it is written.
    circs = [_circ("nothing\n.end\n"), _circ(RC_STEP),
             _circ("rc, 5 V step\nVIN in 0 PULSE(0 5 0 1f 1f 20n 40n)\n"
                   "R1 in out 2k\nC1 out 0 1p\n.end\n"),
             elaborate(gen("cls")), elaborate(gen("cmls_stacked"))]
    run = (5e-12, 10e-9)
    want = [transient(c, *run) for c in circs]
    plans, real = set(), _System.assemble
    monkeypatch.setattr(_System, "assemble", lambda s: plans.add(len(s.F)) or real(s))
    for poison in (False, True):
        if poison:
            _poison_empty(monkeypatch)
        got = engine._transient_many(circs, *run)
        monkeypatch.undo()  # the assemble hook too: it records the first pass
        assert len(got) == len(circs)
        for w, lone in zip(got, want):
            _assert_same_waves(w, lone)
    # the premises: the empty circuit ran next to all the others, and alone
    assert {0, sum(c.n_nodes + len(c.sources) for c in circs)} <= plans
    # DC of the empty circuit first, then a singular member and a divider
    # of one size, stacked, without the gmin shunt: the empty member's node
    # and update segments read the singular member's NaN update, and it must
    # still converge in its one iteration, and each member end as alone
    dc = [circs[0], _circ(_GATE_NODE.format("floats", "")),
          _circ("divider\nV1 in 0 DC 5\nR1 in out 1k\nR2 out 0 1k\n.end\n")]
    monkeypatch.setattr(engine, "GMIN_DEFAULT", 0.0)
    s = _System(dc)
    got = engine._drive(s, [engine._dc_requests(s, j) for j in range(3)],
                        engine.SolveOptions())
    for c, op in zip(dc, got):
        try:
            want = dc_operating_point(c)
        except SolverError as e:
            assert isinstance(op, SolverError) and str(op) == str(e)
            continue
        assert (op.iterations, op.residual_max, op.homotopy_used) == (
            want.iterations, want.residual_max, want.homotopy_used)
        assert _same_bits(op.state.as_vector(), want.state.as_vector())
    assert isinstance(got[1], SolverError) and got[0].iterations == 1


def test_transient_many_failing_member_fails_alone(monkeypatch):
    # a process corner whose DC operating point plain Newton cannot find
    # (dc_corners corner 0030), at t = 0 with the input high.  Solved by the
    # pseudo-transient fallback, it keeps the bits of its lone run in a
    # batch; with the fallback's step budget at 0 it fails at its start,
    # alone, with the message of its lone run under the same budget
    high_first = SourceWave("pulse", 1.6, 0.0, 1e-9, 1e-9, 1e-9, 48e-9, 100e-9)
    bad = elaborate(gen_with_stimulus("cls", high_first),
                    base_models=parse_seed_models(_BATCH_SEED))
    assert dc_operating_point(bad).homotopy_used == "ptc"
    # members of its size, then of other sizes, which share its device evaluation
    pairs = ([elaborate(gen("cls", TopoParams(vin_hi=v))) for v in (1.0, 1.6)],
             [elaborate(gen("cmls_stacked")), elaborate(gen("ssls"))])
    want = [[transient(c, 10e-12, 30e-9) for c in pair] for pair in pairs]
    for budget in (engine._PTC_STEPS, 0):
        monkeypatch.setattr(engine, "_PTC_STEPS", budget)
        try:
            lone = transient(bad, 10e-12, 30e-9)
        except SolverError as e:
            lone = e
        assert isinstance(lone, SolverError) == (budget == 0)
        for pair, alone in zip(pairs, want):
            got = engine._transient_many([pair[0], bad, pair[1]], 10e-12, 30e-9)
            if budget:
                _assert_same_waves(got[1], lone)
            else:
                assert isinstance(got[1], SolverError) and str(got[1]) == str(lone)
                assert "DC operating point did not converge" in str(got[1])
            for w, a in zip((got[0], got[2]), alone):
                _assert_same_waves(w, a)


_GATE_NODE = """\
nmos whose gate node {}
.model N NMOS (COXA=0 COVW=0)
V1 a 0 PULSE(0 1 1n 1n 1n 3n 10n)
{}M1 a g 0 0 N W=1u L=1u
.end
"""


# a 1e290 F capacitor: its DC start converges in one iteration, and from
# 0.64 ns on every step solve is singular at the default gmin, down to the
# eighth halving
_HUGE_CAP = """\
huge capacitor
V1 x 0 PULSE(0 1 1n 1n 1n 3n 10n)
R0 x b 1k
R1 b 0 1k
R2 c 0 1k
C1 b c 1e290
.tran 10p 2n
.end
"""


def test_transient_many_singular_member_fails_alone(monkeypatch):
    # the huge capacitor's step solves are singular: next to two members of
    # its size, with 1 pF and 3 pF, the stacked solve raises, and only that
    # member may fail, with the message of its lone run.  The same under
    # the caller's default, strict and silent errstates: the driver solves
    # under its own, as np.linalg.solve did.
    huge = _circ(_HUGE_CAP)
    tied = [_circ(_HUGE_CAP.replace("1e290", c)) for c in ("1p", "3p")]
    run = dict(tstep=10e-12, tstop=20e-9)
    for state in _ERRSTATES:
        with np.errstate(**state):
            with pytest.raises(SolverError, match="halvings") as lone:
                transient(huge, **run)
            got = engine._transient_many([tied[0], huge, tied[1]], **run)
            assert isinstance(got[1], SolverError) and str(got[1]) == str(lone.value)
            for c, w in zip(tied, (got[0], got[2])):
                _assert_same_waves(w, transient(c, **run))
    # without the gmin shunt and without gate capacitance, a gate node with
    # no resistor has an all-zero Jacobian row.  Next to members with one
    # and two more unknowns, all from their DC operating points: the
    # floating member's own vector solve raises in every DC stage, and only
    # it fails
    floating = _circ(_GATE_NODE.format("floats", ""))
    others = [_circ(_GATE_NODE.format("is tied down by a divider", "R1 g x 1k\nR2 x 0 1k\n")),
              _circ(_GATE_NODE.format("is tied down by a ladder",
                                      "R1 g x 1k\nR2 x y 1k\nR3 y 0 2k\n"))]
    monkeypatch.setattr(engine, "GMIN_DEFAULT", 0.0)
    for state in _ERRSTATES:
        with np.errstate(**state):
            with pytest.raises(SolverError, match="singular Jacobian") as lone:
                transient(floating, **run)
            got = engine._transient_many([others[0], floating, others[1]], **run)
            assert isinstance(got[1], SolverError) and str(got[1]) == str(lone.value)
            for c, w in zip(others, (got[0], got[2])):
                _assert_same_waves(w, transient(c, **run))


# ---------------------------------------------------------------------------
# source size

TOKEN_LIMIT = 8192


def test_every_module_stays_below_the_token_buffer_doubling():
    # the parser's token buffer doubles at 8,192 tokens, and a compile of a
    # module from source (every import without cached bytecode) then peaks
    # about 0.45 MB higher: see the FOUND line on engine.py's token count in
    # CHANGES.md.  Stay under by deleting code, not by moving it into
    # docstrings or comments.
    modules = sorted(Path(engine.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        with open(path, "rb") as f:
            count = sum(1 for tok in tokenize.tokenize(f.readline)
                        if tok.type not in (tokenize.COMMENT, tokenize.NL))
        assert count < TOKEN_LIMIT, (
            f"{path.name} holds {count:,} tokens, at or past the {TOKEN_LIMIT:,} at "
            f"which the parser's token buffer doubles and the compile's peak memory "
            f"grows by about 0.45 MB (CHANGES.md, FOUND: importing `lsbench` compiles "
            f"`engine.py` from source); delete code to stay under")


# ---------------------------------------------------------------------------
# public settings


def _params(fn) -> list:
    """The parameter names of fn, with "*" before the keyword-only ones."""
    out = []
    for p in inspect.signature(fn).parameters.values():
        if p.kind is p.KEYWORD_ONLY and "*" not in out:
            out.append("*")
        out.append(p.name)
    return out


def test_public_settings_are_pinned():
    # the bench and the sweep set no solver tolerance, gmin shunt or initial
    # condition, so these take none: a new parameter or field is a new
    # setting, which needs a caller outside the tests that sets it
    assert _params(transient) == ["circuit", "tstep", "tstop"]
    assert _params(dc_operating_point) == ["circuit", "opts", "x0"]
    assert _params(measure.characterize) == [
        "circuit", "tstep", "tstop", "*", "in_node", "out_node", "waves"]
    assert _params(measure.characterize_many) == ["circuits"]
    assert [f.name for f in fields(TopoParams)] == [
        "vddh", "vddl", "vin_hi", "l", "w_p", "w_n", "w_n_stacked", "cload"]
    assert _params(stack_leakage_fixture) == ["k", "w_total", "p", "vdd"]
    assert [f.name for f in fields(engine.Waveforms)] == [
        "t", "node_v", "supply_i", "source_nodes", "resid_max", "solved"]
    assert [f.name for f in fields(engine.SolveOptions)] == ["abstol", "vntol", "max_iter"]
