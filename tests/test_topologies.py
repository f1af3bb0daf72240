"""Topology generators, the series-stack transform, and the leakage fixture."""

from dataclasses import replace

import pytest

import refmodel as rm
from lsbench.devmodel import default_params
from lsbench.engine import dc_operating_point
from lsbench.netlist import MosCard, SourceCard, elaborate
from lsbench.topologies import (TOPOLOGY_IDS, StackSpec, TopoParams,
                                apply_stack, gen, stack_leakage_fixture,
                                validate_params)

EXPECTED_FETS = {
    "cls": 10, "cls_stacked": 13,
    "ssls": 6, "ssls_stacked": 8,
    "cmls": 12, "cmls_stacked": 15,
}


def _mos(doc):
    return [c for c in doc.devices if isinstance(c, MosCard)]


def _rails(doc):
    return {c.name: c.wave.v1 for c in doc.devices
            if isinstance(c, SourceCard) and c.wave.kind == "dc"}


def test_transistor_counts():
    assert set(EXPECTED_FETS) == set(TOPOLOGY_IDS)
    for topo, want in EXPECTED_FETS.items():
        assert len(_mos(gen(topo))) == want, topo


def test_default_sizing_and_rails():
    doc = gen("cls")
    for m in _mos(doc):
        assert m.l == 0.35e-6
        assert m.w == (2.5e-6 if m.model == "PCH" else 1.0e-6)
    assert _rails(doc) == {"VDDH": 3.3, "VDDL": 2.2}
    vin = next(c for c in doc.devices if isinstance(c, SourceCard)
               and c.wave.kind == "pulse")
    assert vin.wave.v2 == 1.6


def test_supply_count_per_family():
    for topo in TOPOLOGY_IDS:
        rails = _rails(gen(topo))
        if topo.startswith("ssls"):
            assert set(rails) == {"VDDH"}
        else:
            assert set(rails) == {"VDDH", "VDDL"}


def test_ssls_stacked_is_all_narrow():
    doc = gen("ssls_stacked")
    for m in _mos(doc):
        if m.model == "NCH":
            assert m.w == 0.5e-6, m.name
    names = {m.name for m in _mos(doc)}
    assert {"MN1", "MN2_S1", "MN2_S2", "MN3_S1", "MN3_S2"} <= names


def test_default_stack_width_halves_the_pulldown():
    p = TopoParams()
    assert 2 * p.w_n_stacked == p.w_n


def test_titles_warn_about_polarity():
    for topo in TOPOLOGY_IDS:
        assert "inverting" in gen(topo).title


def test_param_validation():
    with pytest.raises(ValueError, match="vin_hi"):
        validate_params(TopoParams(vin_hi=2.5))  # above vddl
    with pytest.raises(ValueError, match="vin_hi"):
        validate_params(TopoParams(vddl=3.6))  # above vddh
    with pytest.raises(ValueError, match="cload"):
        validate_params(TopoParams(cload=0.0))
    with pytest.raises(ValueError, match="unknown topology"):
        gen("nope")


# ---------------------------------------------------------------------------
# the stack transform

def test_stack_k1_is_identity():
    doc = gen("cls")
    assert apply_stack(doc, StackSpec(("MNA",), 1)) is doc


def test_stack_splits_preserve_everything_else():
    doc = gen("cls")
    stacked = apply_stack(doc, StackSpec(("MNA",), 2))
    orig = next(m for m in _mos(doc) if m.name == "MNA")
    s1 = next(m for m in _mos(stacked) if m.name == "MNA_S1")
    s2 = next(m for m in _mos(stacked) if m.name == "MNA_S2")
    assert s1.w == s2.w == orig.w / 2
    assert s1.l == s2.l == orig.l
    assert (s1.g, s1.b) == (orig.g, orig.b)
    assert (s2.g, s2.b) == (orig.g, orig.b)
    assert s1.d == orig.d and s2.s == orig.s  # S1 sits on the drain side
    assert s1.s == s2.d == "mna_m1"  # fresh internal node
    assert len(_mos(stacked)) == len(_mos(doc)) + 1
    # untouched cards, including order, survive verbatim
    others = [c for c in stacked.devices if not c.name.startswith("MNA")]
    assert others == [c for c in doc.devices if c.name != "MNA"]


def test_stack_deeper_chains():
    doc = gen("ssls")
    st = apply_stack(doc, StackSpec(("MN2",), 3))
    names = [m.name for m in _mos(st)]
    assert ["MN2_S1", "MN2_S2", "MN2_S3"] == [n for n in names if "MN2" in n]
    chain = {m.name: m for m in _mos(st)}
    assert chain["MN2_S1"].s == chain["MN2_S2"].d == "mn2_m1"
    assert chain["MN2_S2"].s == chain["MN2_S3"].d == "mn2_m2"
    total = sum(m.w for m in _mos(st) if "MN2" in m.name)
    assert total == pytest.approx(1.0e-6, rel=1e-12)


def test_stack_target_errors():
    doc = gen("cls")
    with pytest.raises(ValueError, match="MNOPE"):
        apply_stack(doc, StackSpec(("MNOPE",), 2))
    with pytest.raises(ValueError, match="CL"):
        apply_stack(doc, StackSpec(("CL",), 2))
    with pytest.raises(ValueError, match="k must be"):
        apply_stack(doc, StackSpec(("MNA",), 0))


STACKED_FAMILIES = [
    ("cls", "cls_stacked", ("MNA", "MNB", "MN3"), None),
    ("ssls", "ssls_stacked", ("MN2", "MN3"), "MN1"),
    ("cmls", "cmls_stacked", ("MN3", "MN4", "MN5"), None),
]

STACKED_TITLES = {
    "cls_stacked": "cls_stacked: cross-coupled level shifter, stacked inverter NMOS "
                   "(inverting)",
    "ssls_stacked": "ssls_stacked: single-supply level shifter, narrow/stacked NMOS "
                    "(inverting)",
    "cmls_stacked": "cmls_stacked: contention-mitigated level shifter, stacked core "
                    "NMOS (inverting)",
}


@pytest.mark.parametrize("base,stacked,targets,narrowed", STACKED_FAMILIES)
def test_stacked_variant_equals_transformed_baseline(base, stacked, targets, narrowed):
    for p in (TopoParams(), TopoParams(w_n=1.3e-6, w_n_stacked=0.4e-6)):
        doc = gen(base, p)
        if narrowed is not None:
            devs = tuple(
                replace(c, w=p.w_n_stacked)
                if isinstance(c, MosCard) and c.name == narrowed else c
                for c in doc.devices
            )
            doc = replace(doc, devices=devs)
        transformed = apply_stack(doc, StackSpec(targets, 2))
        if p.w_n_stacked != p.w_n / 2:  # the halves take w_n_stacked, not w_n/2
            halves = {f"{t}_S{i}" for t in targets for i in (1, 2)}
            transformed = replace(transformed, devices=tuple(
                replace(c, w=p.w_n_stacked)
                if isinstance(c, MosCard) and c.name in halves else c
                for c in transformed.devices))
        assert transformed.devices == gen(stacked, p).devices, p
        assert transformed.models == gen(stacked, p).models, p
        assert gen(stacked, p).title == STACKED_TITLES[stacked], p


def test_stack_width_override():
    for base, stacked, targets, narrowed in STACKED_FAMILIES:
        by = {m.name: m for m in _mos(gen(stacked, TopoParams(w_n_stacked=0.3e-6)))}
        for t in targets:
            assert by[f"{t}_S1"].w == by[f"{t}_S2"].w == 0.3e-6, t
        if narrowed is not None:
            assert by[narrowed].w == 0.3e-6
        # every other device, cls's latch pull-downs MN1/MN2 too, keeps its width
        for m in _mos(gen(base)):
            if m.name not in targets and m.name != narrowed:
                assert by[m.name].w == m.w, m.name


# ---------------------------------------------------------------------------
# leakage fixture (stacking vs off-state current)

@pytest.fixture(scope="module")
def fixture_ops():
    nmos = default_params("nmos")
    out = {}
    for k in (1, 2, 3):
        circ = elaborate(stack_leakage_fixture(k, 1e-6, nmos, 3.3))
        out[k] = (circ, dc_operating_point(circ))
    return out


def test_fixture_leakage_ordering(fixture_ops):
    leak = {k: -float(op.state.i_branch[0]) for k, (c, op) in fixture_ops.items()}
    assert leak[2] < leak[1]
    assert leak[3] < leak[2]
    assert leak[1] == pytest.approx(1.527028432030026e-11, rel=1e-6)
    assert leak[2] == pytest.approx(3.666886839200649e-12, rel=1e-6)
    assert leak[3] == pytest.approx(3.4849544441910855e-12, rel=1e-6)


def test_fixture_middle_nodes_match_bisection(fixture_ops):
    circ2, op2 = fixture_ops[2]
    vm = op2.state.v[circ2.node_index["mx1_m1"]]
    assert 0.0 < vm < 0.3
    assert vm == pytest.approx(rm.stack_vm(rm.RET_NMOS, 3.3, 0.5e-6, gmin=rm.GMIN),
                               abs=1e-6)

    circ3, op3 = fixture_ops[3]
    vm1 = op3.state.v[circ3.node_index["mx1_m1"]]
    vm2 = op3.state.v[circ3.node_index["mx1_m2"]]
    ref1, ref2 = rm.stack3_vm(rm.RET_NMOS, 3.3, 1e-6 / 3.0, gmin=rm.GMIN)
    assert vm1 == pytest.approx(ref1, abs=1e-6)
    assert vm2 == pytest.approx(ref2, abs=1e-6)
    assert 0.0 < vm2 < vm1 < 0.3


def test_fixture_k1_is_plain_device(fixture_ops):
    circ, op = fixture_ops[1]
    assert circ.n_nodes == 1  # just the supply rail
    assert -float(op.state.i_branch[0]) == pytest.approx(
        rm.ref_id(rm.RET_NMOS, 0.0, 3.3, 0.0, 1e-6) + rm.GMIN * 3.3, rel=1e-9)


def test_fixture_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be"):
        stack_leakage_fixture(0, 1e-6, default_params("nmos"), 3.3)
