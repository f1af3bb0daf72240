"""Property tests of the netlist dialect: serialization round trips, and the
typed-failure contract of parse + elaborate on arbitrary card text; and of
the simulator on netlists built to elaborate and on built-in topologies
under random parameters, with the Newton iterations of a step start cut to
force halvings: typed failures or finite figures, and batch members equal
to their lone runs."""

from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gen_with_stimulus
from lsbench import engine
from lsbench.devmodel import _RANGE, SourceWave, resolve_model_keys
from lsbench.engine import SolverError, dc_operating_point, transient
from lsbench.measure import MeasureError, characterize, characterize_many
from lsbench.netlist import (Circuit, ElaborationError, ParseError, TranCard, elaborate,
                             parse_netlist, serialize_netlist)
from lsbench.topologies import TOPOLOGY_IDS, TopoParams, validate_params

_MODEL_KEYS = ("VTH0", "KP", "N", "LAMBDA", "ETA", "GAMMA", "PHI", "COXA", "COVW", "CJW")
_SUFFIXES = ("", "f", "p", "n", "u", "m", "k", "meg", "g", "F", "pF", "V", "Meg")

_LOWER = "abcdefghijklmnopqrstuvwxyz"
_names = st.builds(str.__add__, st.sampled_from(_LOWER),
                   st.text(alphabet=_LOWER + "0123456789_", max_size=4))
_nodes = st.one_of(st.sampled_from(("0", "gnd", "GND")), _names, _names.map(str.upper))
_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_positive = st.floats(min_value=1e-15, max_value=1e9, allow_nan=False)
_case = st.sampled_from((str.upper, str.lower))
_model_value = st.one_of(st.floats(min_value=1e-12, max_value=10.0), _finite)  # mostly valid


@st.composite
def _value_text(draw, value=_positive):
    """A positive value, written plain or with an engineering suffix."""
    x = draw(value)
    return f"{x!r}{draw(st.sampled_from(_SUFFIXES))}"


@st.composite
def _pulse(draw):
    """PULSE values that satisfy the wave's own checks: td >= 0, positive
    edges, width and period, and edges plus width within the period."""
    td = draw(st.floats(min_value=0.0, max_value=1e-6))
    tr, tf, pw = (draw(st.floats(min_value=1e-15, max_value=1e-6)) for _ in range(3))
    per = tr + pw + tf + draw(st.floats(min_value=0.0, max_value=1e-6))
    v1, v2 = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    return "PULSE(" + " ".join(repr(v) for v in (v1, v2, td, tr, tf, pw, per)) + ")"


@st.composite
def _card(draw, k, kinds="MVRC."):
    """The text of one card of the dialect; k makes its name unique."""
    kind = draw(st.sampled_from(kinds))
    if kind == ".":
        body = " ".join(f"{draw(_case)(key)}={draw(_model_value)!r}"
                        for key in draw(st.lists(st.sampled_from(_MODEL_KEYS), max_size=4)))
        pol = draw(_case)(draw(st.sampled_from(("nmos", "pmos"))))
        return f".model {draw(_case)(f'mod{k}')} {pol} ({body})"
    name = draw(_case)(f"{kind}{k}")
    a, b = draw(_nodes), draw(_nodes)
    if kind == "M":
        nodes = " ".join(draw(_nodes) for _ in range(4))
        model = draw(_case)(f"mod{draw(st.integers(0, 2))}")  # mod2 may be undeclared
        return (f"{name} {nodes} {model} W={draw(_value_text())} "
                f"L={draw(_value_text())}")
    if kind == "V":
        spec = draw(st.one_of(_pulse(), _finite.map(lambda v: f"DC {v!r}")))
        return f"{name} {a} {b} {spec}"
    return f"{name} {a} {b} {draw(_value_text())}"


@st.composite
def _netlist(draw):
    """Title, two .model cards, then cards in any order with comments and
    '+' continuations, an optional .tran, then .end."""
    lines = [draw(st.builds(str.__add__, st.sampled_from("Tt"),
                            st.text(alphabet=_LOWER + "ABC 0123456789,:()-", max_size=30)))]
    for k in range(2 + draw(st.integers(0, 8))):
        card = draw(_card(k, "." if k < 2 else "MVRC."))
        if draw(st.booleans()) and " " in card:
            head, tail = card.split(" ", 1)
            lines += [head, "+ " + tail]
        else:
            lines.append(card)
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(("* a comment", "", "   "))))
    if draw(st.booleans()):
        lines.append(f".tran {draw(_value_text())} {draw(_value_text())}")
    return "\n".join(lines + [".end"]) + "\n"


def _without_lines(doc):
    """The document with every card's source line number set to 0."""
    return replace(doc, devices=tuple(replace(c, lineno=0) for c in doc.devices),
                   models=tuple(replace(m, lineno=0) for m in doc.models),
                   tran=doc.tran and replace(doc.tran, lineno=0))


@settings(deadline=None, max_examples=150)
@given(_netlist())
def test_parse_serialize_parse_is_identity(text):
    doc = parse_netlist(text)
    again = parse_netlist(serialize_netlist(doc))
    assert _without_lines(again) == _without_lines(doc)
    assert serialize_netlist(again) == serialize_netlist(doc)


_junk = st.text(alphabet="MVRCmvrc.+*()=-0123456789eEpnuk gndDCPULSEtranmodel\t", max_size=40)


@st.composite
def _mutated(draw):
    """Card text with lines replaced by junk, tokens dropped, repeated or
    swapped, and .end anywhere or nowhere."""
    lines = draw(_netlist()).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        tok = lines[i].split()
        how = draw(st.sampled_from(("junk", "drop", "repeat", "swap", "insert")))
        if how == "junk":
            lines[i] = draw(_junk)
        elif how == "insert":
            lines.insert(i, draw(_junk))
        elif tok:
            j = draw(st.integers(0, len(tok) - 1))
            if how == "drop":
                del tok[j]
            elif how == "repeat":
                tok.insert(j, tok[j])
            else:
                tok[j] = draw(st.sampled_from(tok))
            lines[i] = " ".join(tok)
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n.end\n", "\nextra\n")))


@settings(deadline=None, max_examples=250)
@given(st.one_of(_mutated(), _junk))
def test_arbitrary_card_text_fails_typed(text):
    # any text ends in a Circuit or in a ParseError or ElaborationError;
    # anything else escaping is a defect
    try:
        circ = elaborate(parse_netlist(text))
    except (ParseError, ElaborationError):
        return
    assert isinstance(circ, Circuit)


# ---------------------------------------------------------------------------
# simulated circuits: the typed-failure and batch contracts of the engine

TSTEP, TSTOP = 20e-12, 4e-9  # the fixed 200-step grid every transient runs on


def _node_key(name):
    """The node a name denotes, as elaboration reads it."""
    return "0" if name.lower() in ("0", "gnd") else name.lower()


@st.composite
def _elaborated(draw):
    """A Circuit from netlist text that elaborates by construction: two
    .model cards with every value in its physical range, MOSFETs on those
    models, R and C cards across two distinct nodes, and voltage sources
    that close no loop of sources (a source whose drawn terminals the
    sources before it already join takes a new + node, longer than any
    drawn name)."""
    lines = ["valid by construction"]
    for k in range(2):
        body = " ".join(
            f"{key}={draw(st.floats(*_RANGE[resolve_model_keys(key)], exclude_min=key == 'KP'))!r}"
            for key in draw(st.lists(st.sampled_from(_MODEL_KEYS), max_size=4)))
        lines.append(f".model mod{k} {draw(st.sampled_from(('nmos', 'pmos')))} ({body})")
    joined = {}  # the sources' union-find over node keys

    def root(key):
        while key in joined:
            key = joined[key]
        return key

    for k in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from("MVRC"))
        if kind == "M":
            nodes = " ".join(draw(_nodes) for _ in range(4))
            lines.append(f"M{k} {nodes} mod{draw(st.integers(0, 1))} W={draw(_value_text())} "
                         f"L={draw(_value_text())}")
        elif kind == "V":
            a, b = draw(_nodes), draw(_nodes)
            if root(_node_key(a)) == root(_node_key(b)):
                a = f"src{k}_p"
            joined[root(_node_key(a))] = root(_node_key(b))
            spec = draw(st.one_of(_pulse(), _finite.map(lambda v: f"DC {v!r}")))
            lines.append(f"V{k} {a} {b} {spec}")
        else:
            a, b = draw(st.lists(_nodes, min_size=2, max_size=2, unique_by=_node_key))
            lines.append(f"{kind}{k} {a} {b} {draw(_value_text())}")
    return elaborate(parse_netlist("\n".join(lines + [".end"]) + "\n"))


@st.composite
def _topology(draw):
    """A built-in topology under random valid TopoParams, its stimulus a
    pulse train of two or more periods on the fixed grid."""
    vddh = draw(st.floats(0.5, 5.0))
    vddl = vddh * draw(st.floats(0.2, 1.0))
    size = st.floats(0.2e-6, 10e-6)
    tr, tf = draw(st.floats(1e-12, 0.4e-9)), draw(st.floats(1e-12, 0.4e-9))
    pw = draw(st.floats(1e-12, 0.8e-9))
    p = TopoParams(vddh=vddh, vddl=vddl, vin_hi=vddl * draw(st.floats(0.1, 1.0)),
                   l=draw(st.floats(0.2e-6, 2e-6)), w_p=draw(size), w_n=draw(size),
                   w_n_stacked=draw(size), cload=draw(st.floats(1e-15, 1e-12)))
    wave = SourceWave("pulse", 0.0, p.vin_hi, draw(st.floats(0.0, 0.1e-9)), tr, tf, pw,
                      tr + pw + tf + draw(st.floats(0.0, 0.2e-9)))
    validate_params(p)
    return elaborate(gen_with_stimulus(draw(st.sampled_from(TOPOLOGY_IDS)), wave, p))


_circuits = st.one_of(_elaborated(), _topology())
# Newton iterations of a step start: 2, 3 and 5 force halved steps
_step_iters = st.sampled_from((2, 3, 5, engine._STEP_ITERS))
# two built-in topologies whose 1.6 ns pulse train the fixed grid measures
_measured = st.sampled_from(("ssls", "cmls")).map(lambda topo: elaborate(gen_with_stimulus(
    topo, SourceWave("pulse", 0.0, 1.6, 0.0, 20e-12, 20e-12, 0.78e-9, 1.6e-9))))


def _all_finite(*arrays):
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def _waves_bits(w):
    """Every array of a Waveforms, as bytes."""
    return [a.tobytes() for a in (w.t, w.resid_max, w.solved, *w.node_v.values(),
                                  *w.supply_i.values())]


@settings(deadline=None, derandomize=True, max_examples=30)
@given(_step_iters, _circuits | _measured)
def test_simulated_circuits_end_typed_or_finite(iters, circ):
    # the DC operating point, a transient on the fixed grid and a
    # characterization each end in a typed error or in finite figures,
    # without a floating-point overflow, division by zero or invalid
    # operation on the way (an exp underflowing to 0 in deep subthreshold
    # is benign); `_measured` circuits measure, so finite Reports are
    # checked too, not only errors
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="raise", divide="raise",
                                                         invalid="raise"):
        mp.setattr(engine, "_STEP_ITERS", iters)
        try:
            op = dc_operating_point(circ)
            assert _all_finite(op.state.v, op.state.i_branch, op.residual_max)
        except SolverError:
            pass
        try:
            w = transient(circ, TSTEP, TSTOP)
            assert _all_finite(w.resid_max, *w.node_v.values(), *w.supply_i.values())
        except SolverError:
            pass
        try:
            rep = characterize(circ, TSTEP, TSTOP)
            assert _all_finite(astuple(rep)[1:])
        except (SolverError, MeasureError):
            pass


@settings(deadline=None, derandomize=True, max_examples=20)
@given(st.lists(_circuits, min_size=2, max_size=5), _step_iters)
def test_batches_of_simulated_circuits_equal_lone_runs(circs, iters):
    # every member of an `engine._transient_many` batch, also one that
    # halves steps or fails, ends exactly as its lone run
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="raise", divide="raise",
                                                         invalid="raise"):
        mp.setattr(engine, "_STEP_ITERS", iters)
        got = engine._transient_many(circs, TSTEP, TSTOP)
        assert len(got) == len(circs)
        for c, w in zip(circs, got):
            try:
                want = transient(c, TSTEP, TSTOP)
            except SolverError as e:
                assert type(w) is SolverError and str(w) == str(e)
                continue
            assert _waves_bits(w) == _waves_bits(want)
            assert list(w.node_v) == list(want.node_v)
            assert list(w.supply_i) == list(want.supply_i)


def _report_bits(rep):
    """A Report's fields, each float as its hex string (NaN equal to NaN)."""
    return [x.hex() if isinstance(x, float) else x for x in astuple(rep)]


@settings(deadline=None, derandomize=True, max_examples=10)
@given(st.lists(_circuits | _measured, min_size=1, max_size=4), _step_iters)
def test_characterize_many_of_simulated_circuits_equals_lone_runs(circs, iters):
    # each circuit on the fixed grid as its .tran: the batch yields what its
    # lone `characterize` returns, or an error of the type and message that
    # one raises
    circs = [replace(c, tran=TranCard(TSTEP, TSTOP)) for c in circs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_STEP_ITERS", iters)
        got = list(characterize_many(circs))
        assert len(got) == len(circs)
        for c, r in zip(circs, got):
            try:
                want = characterize(c)
            except (SolverError, MeasureError) as e:
                assert type(r) is type(e) and str(r) == str(e)
                continue
            assert _report_bits(r) == _report_bits(want)
