"""Property tests of the netlist dialect: serialization round trips, and the
typed-failure contract of parse + elaborate on arbitrary card text."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from lsbench.netlist import (Circuit, ElaborationError, ParseError, elaborate,
                             parse_netlist, serialize_netlist)

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
