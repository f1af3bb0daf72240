"""Netlist parsing, serialization round trips, and elaboration."""

import numpy as np
import pytest

from lsbench.engine import transient
from lsbench.netlist import (ElaborationError, NetlistDoc, ParseError,
                             elaborate, parse_netlist, parse_seed_models,
                             serialize_netlist)
from lsbench.topologies import TopoParams, gen

MODELS = ".model NCH NMOS ()\n.model PCH PMOS ()\n"


def _doc(body, title="test circuit"):
    return parse_netlist(title + "\n" + body + ".end\n")


# ---------------------------------------------------------------------------
# parsing

def test_empty_document():
    doc = parse_netlist("* comment\n.end")
    assert doc.title == "* comment"
    assert doc.devices == () and doc.models == () and doc.tran is None


def test_counts_on_generated_netlist():
    doc = gen("cls")
    mcards = [d for d in doc.devices if d.name.startswith("M")]
    assert len(mcards) == 10
    assert len(doc.models) == 2
    reparsed = parse_netlist(serialize_netlist(doc))
    assert len([d for d in reparsed.devices if d.name.startswith("M")]) == 10
    assert len(reparsed.models) == 2


def test_comments_blanks_continuations():
    doc = _doc(
        MODELS
        + "* a comment\n\n"
        + "M1 d g s 0 NCH\n+ W=1u\n+ L=0.35u\n"
        + "V1 d 0 DC 3.3\n"
    )
    (m, v) = doc.devices
    assert m.w == 1e-6 and m.l == 0.35e-6
    assert v.wave.kind == "dc" and v.wave.v1 == 3.3


def test_names_case_insensitive_and_ground_alias():
    doc = _doc(MODELS + "m1 D1 G1 GND gnd nch W=1u L=1u\nV1 d1 0 DC 1\n")
    m = doc.devices[0]
    assert m.name == "M1" and m.model == "NCH"
    assert m.s == "0" and m.b == "0" and m.d == "d1"
    circ = elaborate(doc)
    assert "d1" in circ.node_index


def test_pulse_source_parsing():
    doc = _doc("V1 in 0 PULSE(0 1.6 1n 1n 1n 48n 100n)\nR1 in 0 1k\n")
    w = doc.devices[0].wave
    assert (w.kind, w.v1, w.v2) == ("pulse", 0.0, 1.6)
    assert (w.td, w.tr, w.tf, w.pw, w.per) == pytest.approx(
        (1e-9, 1e-9, 1e-9, 48e-9, 100e-9), rel=1e-15)


@pytest.mark.parametrize("line,lineno", [
    ("M1 a b c NCH W=1u L=1u", 4),          # missing body terminal
    ("X1 a b 1k", 4),                        # unknown card letter
    ("R1 a b", 4),                           # wrong terminal count
    ("V1 a b SIN(0 1 1k)", 4),               # unsupported waveform
    ("M1 a b c d NCH W=1u L=1u Q=2", 4),     # unknown card parameter
    ("R1 a b -1k", 4),                       # non-positive value
    ("V1 in 0 PULSE(0 1 0 1n 1n 60n 50n)", 4),  # edges exceed period
    ("V1 in 0 PULSE(0 1 0 1n 1n 1n 0)", 4),     # zero period
    ("V1 in 0 DC 1e999", 4),                    # non-finite level
])
def test_parse_errors_carry_line_numbers(line, lineno):
    text = "title\n" + MODELS + line + "\n.end\n"
    with pytest.raises(ParseError) as e:
        parse_netlist(text)
    assert e.value.lineno == lineno
    assert f"line {lineno}" in str(e.value)


def test_duplicate_device_name():
    with pytest.raises(ParseError, match="duplicate"):
        _doc("R1 a 0 1k\nr1 b 0 2k\n")


def test_end_discipline():
    with pytest.raises(ParseError, match="missing .end"):
        parse_netlist("title\nR1 a 0 1k\n")
    with pytest.raises(ParseError, match="after .end"):
        parse_netlist("title\nR1 a 0 1k\n.end\nR2 b 0 1k\n.end\n")


def test_unknown_model_key_rejected():
    with pytest.raises(ParseError, match="unknown .model key"):
        _doc(".model X NMOS (FOO=1)\n")


# ---------------------------------------------------------------------------
# serialization

def test_round_trip_exact_for_all_topologies():
    for topo in ("cls", "cls_stacked", "ssls", "ssls_stacked", "cmls", "cmls_stacked"):
        doc = gen(topo)
        text = serialize_netlist(doc)
        again = parse_netlist(text)
        assert serialize_netlist(again) == text
        c1, c2 = elaborate(doc), elaborate(again)
        assert c1.node_index == c2.node_index
        assert c1.mosfets == c2.mosfets and c1.sources == c2.sources
        assert c1.resistors == c2.resistors and c1.caps == c2.caps
        assert (c1.tran.tstep, c1.tran.tstop) == (c2.tran.tstep, c2.tran.tstop)


def test_round_trip_model_overrides():
    doc = _doc(".model NX NMOS (VTH0=0.42 KP=210u N=1.3 LAMBDA=0.05 ETA=0.02 "
               "GAMMA=0.5 PHI=0.7 COXA=4e-3 COVW=1e-10 CJW=8e-10)\n"
               "M1 a b 0 0 NX W=1u L=0.35u\nV1 a 0 DC 1\n")
    again = parse_netlist(serialize_netlist(doc))
    assert again.models == doc.models
    p = elaborate(again).mosfets[0].params
    assert (p.vth0, p.n_slope) == (0.42, 1.3)
    assert p.kp == pytest.approx(210e-6, rel=1e-15)
    assert (p.lam, p.eta_dibl, p.gamma_body, p.phi_s) == (0.05, 0.02, 0.5, 0.7)
    assert (p.cox_a, p.cov_w, p.cj_w) == (4e-3, 1e-10, 8e-10)


# ---------------------------------------------------------------------------
# elaboration

def test_node_indices_first_appearance_order():
    doc = _doc("R1 in x 1k\nR2 x out 1k\nR3 out 0 1k\nV1 in 0 DC 1\n")
    circ = elaborate(doc)
    assert circ.node_index == {"in": 0, "x": 1, "out": 2}
    assert circ.n_nodes == 3 and circ.n_branches == 1


def test_cmls_mosfet_count():
    assert len(elaborate(gen("cmls")).mosfets) == 12


def test_undeclared_model():
    with pytest.raises(ElaborationError, match="NOPE"):
        elaborate(_doc("M1 a b 0 0 NOPE W=1u L=1u\nV1 a 0 DC 1\n"))


@pytest.mark.parametrize("override,key", [
    ("N=0", "N=0.0 must be positive"),
    ("KP=-1", "KP=-1.0 must be positive"),
    ("PHI=-1", "PHI=-1.0 must be positive"),
    ("LAMBDA=-0.1", "LAMBDA=-0.1 must not be negative"),
])
def test_invalid_model_parameters_rejected(override, key):
    doc = _doc(f".model WEAK NMOS ({override})\nM1 a b 0 0 WEAK W=1u L=1u\n"
               "V1 a 0 DC 1\nV2 b 0 DC 1\n")
    with pytest.raises(ElaborationError, match=f"line 2: model WEAK: {key}"):
        elaborate(doc)


def test_rc_same_node_rejected():
    with pytest.raises(ElaborationError, match="R1"):
        elaborate(_doc("R1 a a 1k\nV1 a 0 DC 1\n"))


@pytest.mark.parametrize("body,name,lineno", [
    ("V1 a 0 DC 1\nV2 a 0 DC 2\nR1 a 0 1k\n", "V2", 3),            # in parallel
    ("V1 a 0 DC 1\nR1 a b 1k\nV2 b a DC 1\nV3 b 0 DC 2\n", "V3", 5),  # a ring of three
    ("R1 a 0 1k\nV1 a a DC 1\n", "V1", 3),                          # on one node
])
def test_voltage_source_loop_rejected(body, name, lineno):
    with pytest.raises(ElaborationError,
                       match=f"line {lineno}: voltage source {name} closes a loop"):
        elaborate(_doc(body))


def test_shipped_topologies_have_no_source_loop():
    for topo in ("cls", "cls_stacked", "ssls", "ssls_stacked", "cmls", "cmls_stacked"):
        assert len(elaborate(gen(topo)).sources) >= 2


def test_floating_node_warning():
    circ = elaborate(_doc("V1 a 0 DC 1\nR1 a b 1k\n"))
    assert any("'b'" in w for w in circ.warnings)


def test_permuted_cards_same_waveforms():
    base = gen("ssls", TopoParams())
    shuffled = NetlistDoc(base.title, tuple(reversed(base.devices)),
                          base.models, base.tran)
    w1 = transient(elaborate(base), 100e-12, 20e-9)
    w2 = transient(elaborate(shuffled), 100e-12, 20e-9)
    assert set(w1.node_v) == set(w2.node_v)
    for name in w1.node_v:
        assert np.max(np.abs(w1.node_v[name] - w2.node_v[name])) < 1e-9


# ---------------------------------------------------------------------------
# seed model files

def test_seed_models_parse_and_override():
    seed = parse_seed_models(
        "* process seed\n.model FAST NMOS (VTH0=0.45 KP=200u)\n"
        ".model SLOW PMOS (VTH0=1.0)\n"
    )
    assert set(seed) == {"nmos", "pmos"}
    assert seed["nmos"].vth0 == 0.45
    assert seed["nmos"].kp == pytest.approx(200e-6, rel=1e-15)
    assert seed["pmos"].vth0 == 1.0

    doc = _doc(MODELS + "M1 a b 0 0 NCH W=1u L=1u\nV1 a 0 DC 1\n")
    circ = elaborate(doc, base_models=seed)
    assert circ.mosfets[0].params.vth0 == 0.45


def test_seed_models_reject_devices():
    with pytest.raises(ParseError, match="only .model"):
        parse_seed_models("M1 a b c d NCH W=1u L=1u\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_seed_models(".model A NMOS (VTH0=0.5)\n.model B NMOS (VTH0=0.6)\n")
    with pytest.raises(ParseError, match="line 2: model B: GAMMA=-0.5 must not be negative"):
        parse_seed_models("* corner\n.model B PMOS (GAMMA=-0.5)\n")
