"""Delay, power, and swing extraction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import corner_models, pinned, pinned_static_power
from lsbench import engine
from lsbench.engine import SolverError, dc_operating_point, transient
from lsbench.measure import (MeasureError, _median, average_power, characterize,
                             characterize_many, output_swing, propagation_delay,
                             static_power)
from lsbench.netlist import TranCard, elaborate, parse_netlist, parse_seed_models
from lsbench.topologies import TOPOLOGY_IDS, TopoParams, gen

RC_LN2 = 1e3 * 1e-12 * math.log(2.0)


def _circ(text):
    return elaborate(parse_netlist(text))


def _dc_inverter(vdd, vin):
    return _circ(f"""\
inverter at dc
.model NCH NMOS ()
.model PCH PMOS ()
VDD vdd 0 DC {vdd}
VIN in 0 DC {vin}
MP1 out in vdd vdd PCH W=0.2u L=0.35u
MN1 out in 0 0 NCH W=0.08u L=0.35u
CL out 0 10f
.tran 1n 50n
.end
""")


# ---------------------------------------------------------------------------
# propagation delay

def test_delay_zero_for_identical_waves():
    t = np.linspace(0.0, 6 * math.pi, 4001)
    w = np.sin(t)
    d = propagation_delay(w, w, t)
    assert d["delay_rise"] == 0.0 and d["delay_fall"] == 0.0


def test_rc_delay_matches_theory(rc_delay_run):
    # also exercises the truncated record: the response to the last falling
    # input edge ends past tstop and must simply be skipped
    circ, waves = rc_delay_run
    d = propagation_delay(waves.node_v["in"], waves.node_v["out"], waves.t)
    assert d["delay_rise"] == pytest.approx(RC_LN2, rel=0.02)
    assert d["delay_fall"] == pytest.approx(RC_LN2, rel=0.02)


def test_delay_stable_under_grid_refinement():
    text = ("rc\nVIN in 0 PULSE(0 3.3 0 1p 1p 7.998n 16n)\n"
            "R1 in out 1k\nC1 out 0 1p\n.end\n")
    circ = _circ(text)
    ds = []
    for tstep in (2e-12, 1e-12):
        w = transient(circ, tstep, 26e-9)
        ds.append(propagation_delay(w.node_v["in"], w.node_v["out"], w.t))
    for key in ("delay_rise", "delay_fall"):
        assert ds[0][key] == pytest.approx(ds[1][key], rel=0.01)


def test_delay_needs_two_edges_each_polarity():
    t = np.linspace(0.0, 2.5 * math.pi, 1001)
    w = np.sin(t)  # one fall, one rise
    with pytest.raises(MeasureError, match="at least two input edges"):
        propagation_delay(w, w, t)


def test_delay_missing_output_edge():
    t = np.linspace(0.0, 6 * math.pi, 4001)
    w = np.sin(t)
    flat = np.zeros_like(w)
    with pytest.raises(MeasureError, match="no output transition"):
        propagation_delay(w, flat, t)


# ---------------------------------------------------------------------------
# power

def test_dc_average_power_equals_static():
    circ = _dc_inverter(3.3, 3.3)
    waves = transient(circ, 1e-9, 50e-9)
    avg = average_power(waves, (10e-9, 50e-9))
    stat = static_power(circ, "hi")  # no pulse sources; state is moot
    assert stat > 0.0
    assert avg == pytest.approx(stat, rel=1e-3)


def test_zero_supplies_zero_static():
    circ = _dc_inverter(0.0, 0.0)
    assert abs(static_power(circ, "lo")) < 1e-18


def test_static_power_validates_state():
    with pytest.raises(ValueError, match="input_state"):
        static_power(_dc_inverter(3.3, 0.0), "mid")


def test_switching_power_sits_just_above_cv2f(inverter_power_run):
    circ, waves = inverter_power_run
    floor = 1e7 * 10e-15 * 3.3**2  # f * C * Vdd^2 = 1.089 uW
    avg = average_power(waves, (100e-9, 300e-9))
    assert floor <= avg <= 1.15 * floor


def test_average_power_window_by_one_period(inverter_power_run):
    circ, waves = inverter_power_run
    a = average_power(waves, (100e-9, 200e-9))
    b = average_power(waves, (200e-9, 300e-9))
    assert a == pytest.approx(b, rel=0.005)


def test_average_power_window_validation(inverter_power_run):
    circ, waves = inverter_power_run
    with pytest.raises(MeasureError, match="outside simulated range"):
        average_power(waves, (100e-9, 400e-9))
    with pytest.raises(MeasureError, match="outside simulated range"):
        average_power(waves, (200e-9, 100e-9))


# ---------------------------------------------------------------------------
# swing

def test_swing_of_clean_square_wave():
    t = np.arange(0.0, 4.0, 0.01)
    w = np.where(np.mod(t, 1.0) < 0.5, 3.3, 0.0)
    lo, hi = output_swing(w, t, settle=0.1)
    assert lo == 0.0 and hi == 3.3


def test_median_equals_numpy_median_bit_for_bit():
    # output_swing's median without np.median's NaN check, which imports
    # numpy.ma: odd and even lengths, ties, signed zeros and NaN
    rng = np.random.default_rng(7)
    cases = [rng.standard_normal(n) for n in (1, 2, 9, 10, 101, 1000)]
    cases += [rng.choice([-0.0, 0.0, 3.3], n) for n in (11, 12, 400, 401)]
    cases += [np.array(a) for a in ([-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [-0.0, 1.0],
                                    [1.0, math.nan, 2.0], [math.nan, 1.0], [-math.nan, 0.0, 2.0])]
    for a in cases:
        before = a.copy()
        got, want = _median(a), float(np.median(a))
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (a, got, want)
        assert before.tobytes() == a.tobytes()


def test_swing_error_names_missing_state():
    t = np.linspace(0.0, 1.0, 101)
    with pytest.raises(MeasureError, match="the lo state"):
        output_swing(np.full_like(t, 3.3), t, settle=0.01)


# ---------------------------------------------------------------------------
# characterize

def test_characterize_report_invariants(inverter_power_run):
    circ, waves = inverter_power_run
    rep = characterize(circ, waves=waves)
    assert rep.delay_max == max(rep.delay_rise, rep.delay_fall)
    assert rep.swing_lo < 0.05 and rep.swing_hi > 3.25
    assert rep.swing_lo < rep.swing_hi
    assert rep.power_avg > rep.power_static_lo > 0.0
    assert rep.power_static_hi > 0.0
    assert rep.circuit_name == circ.title


def test_characterize_unknown_node(inverter_power_run):
    circ, waves = inverter_power_run
    with pytest.raises(MeasureError, match="'nope'"):
        characterize(circ, waves=waves, out_node="nope")


def test_characterize_needs_pulse_stimulus():
    circ = _dc_inverter(3.3, 0.0)
    with pytest.raises(MeasureError, match="no pulse stimulus"):
        characterize(circ, tstep=1e-9, tstop=20e-9)


def test_characterize_needs_two_periods():
    text = ("rc\nVIN in 0 PULSE(0 3.3 0 1p 1p 20n 40n)\n"
            "R1 in out 1k\nC1 out 0 1p\n.end\n")
    with pytest.raises(MeasureError, match="at least 2"):
        characterize(_circ(text), tstep=1e-10, tstop=50e-9)


def test_average_power_window_ends_at_the_record():
    # three whole periods whose product n_per * per rounds past t[-1]: the
    # window ends at the record, and a tstop a hair short of 300 ns reads
    # the power of the full one
    text = ("rc window\nV1 in 0 PULSE(0 1 0.5n 1n 1n 3n 9n)\nR1 in out 1k\n"
            "C1 out 0 0.1p\n.tran 10p 27n\n.end\n")
    assert math.isfinite(characterize(_circ(text)).power_avg)
    circ = elaborate(gen("cls"))
    want = characterize(circ).power_avg
    got = characterize(circ, tstop=300e-9 * (1 - 2e-10)).power_avg
    assert got == pytest.approx(want, rel=1e-9)


def test_delay_grows_with_load():
    delays = []
    for cload in (5e-15, 10e-15, 20e-15, 40e-15):
        circ = elaborate(gen("ssls", TopoParams(cload=cload)))
        rep = characterize(circ, tstep=100e-12, tstop=210e-9)
        delays.append(rep.delay_max)
    assert all(b > a for a, b in zip(delays, delays[1:]))


def test_characterize_many_equals_lone_characterize(monkeypatch):
    # one batch of circuits of four sizes, each with the outcome of its lone
    # characterize: a report, a missing .tran (ValueError before any solve),
    # a DC-only circuit (MeasureError after its transient), and a process
    # corner (dc_corners corner 0040) whose DC solves need the
    # pseudo-transient fallback: a report, or with the fallback's step
    # budget at 0 a SolverError, as alone under the same budget
    rc = ("rc pulse train\nVIN in 0 PULSE(0 3.3 0 1p 1p 7.998n 16n)\n"
          "R1 in out 1k\nC1 out 0 1p\n{}.end\n")
    circs = [_circ(rc.format(".tran 10p 40n\n")), _circ(rc.format("")),
             _dc_inverter(3.3, 0.0),
             elaborate(gen("cls"), base_models=parse_seed_models(corner_models("0040")))]
    circs[3] = replace(circs[3], tran=TranCard(10e-12, 210e-9))
    for budget, last in ((engine._PTC_STEPS, "Report"), (0, "SolverError")):
        monkeypatch.setattr(engine, "_PTC_STEPS", budget)
        got = list(characterize_many(circs))
        assert [type(r).__name__ for r in got] == ["Report", "ValueError", "MeasureError",
                                                   last]
        for c, r in zip(circs, got):
            try:
                want = characterize(c)
            except (ValueError, MeasureError, SolverError) as e:
                want = e
            if isinstance(want, Exception):
                assert type(r) is type(want) and str(r) == str(want)
            else:
                assert r == want
        if budget:
            # the corner's lo and hi static solves both need the fallback;
            # run in the circuit's own member at its pinned source values,
            # they give the bits of a DC solve of a pinned copy, and so does
            # static_power, of the corner and of every built-in
            c = circs[3]
            assert {dc_operating_point(pinned(c, st)).homotopy_used
                    for st in ("lo", "hi")} == {"ptc"}
            assert ([got[3].power_static_lo.hex(), got[3].power_static_hi.hex()]
                    == [pinned_static_power(c, st).hex() for st in ("lo", "hi")])
            for c in [c] + [elaborate(gen(topo)) for topo in TOPOLOGY_IDS]:
                assert ([static_power(c, st).hex() for st in ("lo", "hi")]
                        == [pinned_static_power(c, st).hex() for st in ("lo", "hi")])


def test_static_power_compiles_the_callers_circuit(monkeypatch):
    # static_power solves in the circuit's own compiled member at the pinned
    # source values, as characterize does: one system, holding the caller's
    # own object and no pinned copy.  So does every public entry: each one
    # compiles one system whose members are the caller's circuit objects
    c, other = elaborate(gen("cls")), elaborate(gen("ssls"))
    waves = transient(c, c.tran.tstep, c.tran.tstop)
    compiled, init = [], engine._System.__init__

    def recorded(self, circuits):
        compiled.append(list(circuits))
        init(self, circuits)
    monkeypatch.setattr(engine._System, "__init__", recorded)
    entries = [lambda: static_power(c, "hi"), lambda: dc_operating_point(c),
               lambda: transient(c, c.tran.tstep, c.tran.tstop), lambda: characterize(c),
               lambda: characterize(c, waves=waves)]
    for entry in entries:
        compiled.clear()
        entry()
        assert len(compiled) == 1 and len(compiled[0]) == 1 and compiled[0][0] is c
    compiled.clear()
    list(characterize_many([c, other]))
    assert len(compiled) == 1 and len(compiled[0]) == 2
    assert compiled[0][0] is c and compiled[0][1] is other


def test_characterize_many_on_two_grids_equals_lone_characterize(monkeypatch):
    # two cls circuits on different .tran grids: the shorter one ends its
    # transient, its measurements and static solves and leaves the batch
    # while the other is still stepping, so the live set is planned again
    # around a member with a full table; both reports equal their lone runs
    short, long_ = (replace(elaborate(gen("cls", TopoParams(vin_hi=v))), tran=TranCard(*g))
                    for v, g in ((1.2, (20e-12, 200e-9)), (1.6, (10e-12, 300e-9))))
    plans, live, load_steps = [], engine._System.live, engine._System.load_steps

    def counted(s, steps):  # whole steps the driver loads under each plan
        plans[-1][1] += len(steps)
        return load_steps(s, steps)

    monkeypatch.setattr(engine._System, "live",
                        lambda s, members: plans.append([list(members), 0]) or live(s, members))
    monkeypatch.setattr(engine._System, "load_steps", counted)
    got = list(characterize_many([short, long_]))
    assert [m for m, _ in plans] == [[0, 1], [1]] and plans[1][1] > 100
    assert got == [characterize(short), characterize(long_)]


def test_bench_dc_solves_end_in_plain_newton_inside_its_cap():
    # the DC solves of `bench all`: each topology's transient start and the
    # static solves of its lo and hi pinned copies, the requests
    # `characterize_many` runs for them, with the same defaults.  All end in
    # plain Newton, within 30 iterations (14 at most today) of the 50 it may
    # take before the fallback: a change that slowed them past that cap
    # would move their results silently
    ops = []
    for topo in TOPOLOGY_IDS:
        c = elaborate(gen(topo))
        ops += [dc_operating_point(m) for m in (c, pinned(c, "lo"), pinned(c, "hi"))]
    assert len(ops) == 18 and engine._PLAIN_ITERS == 50
    assert {op.homotopy_used for op in ops} == {"none"}
    assert max(op.iterations for op in ops) <= 30


# dc_corners grid corners whose DC solves plain Newton cannot finish, even
# inside the hull of their sources, with their continuation references from
# perfbench/refs/dc_corners.json, static power (lo, hi) in W
PTC_CORNERS = [
    ("cls", corner_models("0040"), (1.23337279027914e-09, 7.509562266876006e-10)),
    ("cls_stacked", corner_models("0140"), (6.43089656367811e-10, 6.940245081189996e-10)),
]


# Newton iterations of their (lo, hi) DC solves: plain Newton gives up after
# engine._PLAIN_ITERS = 50, then pseudo-transient continuation and its
# polish take the rest
PTC_ITERS = {"cls": (113, 112), "cls_stacked": (172, 170)}


@pytest.mark.parametrize("topo, models, want", PTC_CORNERS)
def test_pseudo_transient_corners_match_continuation_reference(topo, models, want):
    circ = elaborate(gen(topo), base_models=parse_seed_models(models))
    iters = []
    for state, ref in zip(("lo", "hi"), want):
        op = dc_operating_point(pinned(circ, state))
        assert op.homotopy_used == "ptc"
        iters.append(op.iterations)
        assert static_power(circ, state) == pytest.approx(ref, rel=1e-6)
    assert tuple(iters) == PTC_ITERS[topo]


def test_corners_where_the_hull_removes_most_fallbacks():
    # the 25 grid corners 0x3x (NCH VTH0 at -2 sigma, PCH VTH0 at +1 sigma),
    # cls and cls_stacked at lo and hi: all 100 static solves converge, and
    # plain Newton inside the hull of the sources finishes all but 11 of
    # them (with unbounded iterates 64 took the pseudo-transient fallback)
    circs = [elaborate(gen(topo), base_models=parse_seed_models(corner_models(f"0{b}3{d}")))
             for b in range(5) for d in range(5) for topo in ("cls", "cls_stacked")]
    ops = [dc_operating_point(pinned(c, st)) for c in circs for st in ("lo", "hi")]
    assert len(ops) == 100
    assert sum(op.homotopy_used == "ptc" for op in ops) <= 11
