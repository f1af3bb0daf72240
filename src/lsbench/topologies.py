"""Built-in level-shifter netlist generators and the series-stack transform.

Six circuits, three families x {baseline, stacked}:

  cls   10T dual-supply cross-coupled shifter: two input inverters on the low
        rail produce true/complement drive for an NMOS pull-down pair under a
        cross-coupled PMOS latch on the high rail, then an output inverter.
  ssls  6T single-supply chain of three inverters.  The first stage is
        under-driven: its PMOS gate only rises to the input swing, so the
        stage carries a large standing current while the input is high.
        That contention is the family's documented weakness.
  cmls  12T contention-mitigated shifter: the cls core with a series PMOS
        above each cross-coupled device, gated so the pull-up leg weakens
        exactly when the opposing NMOS pulls its node down.

The *_stacked variants replace selected NMOS pull-downs with two series
halves of equal total width (the stack effect): cls's MNA, MNB and MN3 and
cmls's MN3, MN4 and MN5, 3 added transistors each, and ssls's MN2 and MN3,
2 added, with MN1 narrowed to w_n_stacked.  Off-state series devices bias
their shared node a little above ground, which reverse-biases and
DIBL-relieves the top device; leakage drops well below a single device of
the summed width.  The same transform is exposed generically as apply_stack.

All generators emit inverting circuits (out is the logical complement of
in); titles say so.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dc_fields, replace

from .devmodel import MosParams, SourceWave
from .netlist import (ModelCard, MosCard, NetlistDoc, SourceCard, TranCard,
                      TwoTermCard)

NMOS_MODEL = "NCH"
PMOS_MODEL = "PCH"

DEFAULT_TSTEP = 10e-12
DEFAULT_TSTOP = 300e-9


@dataclass(frozen=True)
class TopoParams:
    vddh: float = 3.3
    vddl: float = 2.2
    vin_hi: float = 1.6
    l: float = 0.35e-6
    w_p: float = 2.5e-6
    w_n: float = 1.0e-6
    w_n_stacked: float = 0.5e-6
    cload: float = 10e-15

    def wave(self) -> SourceWave:
        """The input pulse train: 0 to vin_hi, 1 ns edges, 100 ns period."""
        return SourceWave("pulse", 0.0, self.vin_hi, 1e-9, 1e-9, 1e-9, 48e-9, 100e-9)


@dataclass(frozen=True)
class StackSpec:
    targets: tuple      # device names to replace
    k: int = 2          # series devices per target, each W_total/k wide


def validate_params(p: TopoParams) -> None:
    if not (0.0 < p.vin_hi <= p.vddl <= p.vddh):
        raise ValueError(
            f"need 0 < vin_hi <= vddl <= vddh, got vin_hi={p.vin_hi}, "
            f"vddl={p.vddl}, vddh={p.vddh}"
        )
    for name in ("l", "w_p", "w_n", "w_n_stacked", "cload"):
        if getattr(p, name) <= 0:
            raise ValueError(f"{name} must be positive, got {getattr(p, name)}")


def _models() -> tuple:
    return (ModelCard(NMOS_MODEL, "nmos", ()), ModelCard(PMOS_MODEL, "pmos", ()))


def _tran() -> TranCard:
    return TranCard(DEFAULT_TSTEP, DEFAULT_TSTOP)


def _nmos(name, d, g, s, w, l):
    return MosCard(name, d, g, s, "0", NMOS_MODEL, w, l)


def _pmos(name, d, g, rail, w, l):
    return MosCard(name, d, g, rail, rail, PMOS_MODEL, w, l)


def _gen_cls(p: TopoParams) -> NetlistDoc:
    devs = (
        SourceCard("VDDH", "vddh", "0", SourceWave("dc", p.vddh)),
        SourceCard("VDDL", "vddl", "0", SourceWave("dc", p.vddl)),
        SourceCard("VIN", "in", "0", p.wave()),
        _pmos("MPA", "inb", "in", "vddl", p.w_p, p.l),
        _nmos("MNA", "inb", "in", "0", p.w_n, p.l),
        _pmos("MPB", "in2", "inb", "vddl", p.w_p, p.l),
        _nmos("MNB", "in2", "inb", "0", p.w_n, p.l),
        _pmos("MP1", "x1", "x2", "vddh", p.w_p, p.l),
        _nmos("MN1", "x1", "in2", "0", p.w_n, p.l),
        _pmos("MP2", "x2", "x1", "vddh", p.w_p, p.l),
        _nmos("MN2", "x2", "inb", "0", p.w_n, p.l),
        _pmos("MP3", "out", "x2", "vddh", p.w_p, p.l),
        _nmos("MN3", "out", "x2", "0", p.w_n, p.l),
        TwoTermCard("C", "CL", "out", "0", p.cload),
    )
    return NetlistDoc("cls: cross-coupled level shifter, dual supply (inverting)",
                      devs, _models(), _tran())


def _gen_ssls(p: TopoParams) -> NetlistDoc:
    devs = (
        SourceCard("VDDH", "vddh", "0", SourceWave("dc", p.vddh)),
        SourceCard("VIN", "in", "0", p.wave()),
        _pmos("MP1", "x", "in", "vddh", p.w_p, p.l),
        _nmos("MN1", "x", "in", "0", p.w_n, p.l),
        _pmos("MP2", "y", "x", "vddh", p.w_p, p.l),
        _nmos("MN2", "y", "x", "0", p.w_n, p.l),
        _pmos("MP3", "out", "y", "vddh", p.w_p, p.l),
        _nmos("MN3", "out", "y", "0", p.w_n, p.l),
        TwoTermCard("C", "CL", "out", "0", p.cload),
    )
    return NetlistDoc("ssls: single-supply level shifter, under-driven first "
                      "stage (inverting)", devs, _models(), _tran())


def _gen_cmls(p: TopoParams) -> NetlistDoc:
    devs = (
        SourceCard("VDDH", "vddh", "0", SourceWave("dc", p.vddh)),
        SourceCard("VDDL", "vddl", "0", SourceWave("dc", p.vddl)),
        SourceCard("VIN", "in", "0", p.wave()),
        _pmos("MP6", "inb", "in", "vddl", p.w_p, p.l),
        _nmos("MN1", "inb", "in", "0", p.w_n, p.l),
        _pmos("MP7", "in2", "inb", "vddl", p.w_p, p.l),
        _nmos("MN2", "in2", "inb", "0", p.w_n, p.l),
        # series PMOS gated by the same phase as the opposing pull-down, so
        # each pull-up leg weakens exactly while its node is driven low
        _pmos("MP3", "sp1", "in2", "vddh", p.w_p, p.l),
        MosCard("MP1", "x1", "x2", "sp1", "vddh", PMOS_MODEL, p.w_p, p.l),
        _pmos("MP4", "sp2", "inb", "vddh", p.w_p, p.l),
        MosCard("MP2", "x2", "x1", "sp2", "vddh", PMOS_MODEL, p.w_p, p.l),
        _nmos("MN3", "x1", "in2", "0", p.w_n, p.l),
        _nmos("MN4", "x2", "inb", "0", p.w_n, p.l),
        _pmos("MP5", "out", "x2", "vddh", p.w_p, p.l),
        _nmos("MN5", "out", "x2", "0", p.w_n, p.l),
        TwoTermCard("C", "CL", "out", "0", p.cload),
    )
    return NetlistDoc("cmls: contention-mitigated level shifter, dual supply "
                      "(inverting)", devs, _models(), _tran())


# family: (baseline builder, StackSpec of the NMOS split into series halves,
# NMOS narrowed to w_n_stacked, stacked title).  cls keeps its latch
# pull-downs MN1/MN2 whole: a half-width series pair driven at vddl cannot
# out-pull a full-width PMOS at vsg=vddh, and the latch would not flip.
_STACKED = {
    "cls": (_gen_cls, StackSpec(("MNA", "MNB", "MN3")), frozenset(),
            "cls_stacked: cross-coupled level shifter, stacked inverter NMOS (inverting)"),
    "ssls": (_gen_ssls, StackSpec(("MN2", "MN3")), frozenset({"MN1"}),
             "ssls_stacked: single-supply level shifter, narrow/stacked NMOS (inverting)"),
    "cmls": (_gen_cmls, StackSpec(("MN3", "MN4", "MN5")), frozenset(),
             "cmls_stacked: contention-mitigated level shifter, stacked core NMOS (inverting)"),
}

TOPOLOGY_IDS = tuple(t for f in _STACKED for t in (f, f + "_stacked"))


def _gen_stacked(family: str, p: TopoParams) -> NetlistDoc:
    """The family's baseline, its targets split into halves of w_n/2 each; its
    narrowed NMOS take w_n_stacked, as do the halves when it is not w_n/2."""
    build, spec, narrowed, title = _STACKED[family]
    doc = apply_stack(build(p), spec)
    names = narrowed
    if p.w_n_stacked != p.w_n / 2:
        names = names.union(f"{t}_S{i}" for t in spec.targets for i in (1, 2))
    if names:
        doc = replace(doc, devices=tuple(
            replace(c, w=p.w_n_stacked)
            if isinstance(c, MosCard) and c.name in names else c
            for c in doc.devices
        ))
    return replace(doc, title=title)


def gen(topology: str, p: TopoParams | None = None) -> NetlistDoc:
    """Generate one of the built-in topologies as a NetlistDoc."""
    p = p if p is not None else TopoParams()
    family = topology.removesuffix("_stacked")
    entry = _STACKED.get(family)
    if entry is None:
        raise ValueError(f"unknown topology {topology!r} "
                         f"(expected one of {', '.join(TOPOLOGY_IDS)})")
    validate_params(p)
    return entry[0](p) if family == topology else _gen_stacked(family, p)


def apply_stack(doc: NetlistDoc, spec: StackSpec) -> NetlistDoc:
    """Replace each target MOSFET with spec.k series copies of width W/k.

    The copies share the original gate and body nets and chain drain to
    source through fresh internal nodes named <target>_m1..; names become
    <TARGET>_S1.. (S1 on the drain side).  k=1 returns the document
    unchanged.  Card order is preserved, so the transform is deterministic.
    """
    if spec.k < 1:
        raise ValueError(f"stack count k must be >= 1, got {spec.k}")
    by_name = {c.name: c for c in doc.devices}
    targets = []
    for t in spec.targets:
        name = t.upper()
        card = by_name.get(name)
        if card is None:
            raise ValueError(f"stack target {name} not found in netlist")
        if not isinstance(card, MosCard):
            raise ValueError(f"stack target {name} is not a MOSFET")
        targets.append(name)
    if spec.k == 1:
        return doc
    tset = set(targets)
    out = []
    for card in doc.devices:
        if isinstance(card, MosCard) and card.name in tset:
            out.extend(_split_series(card, spec.k))
        else:
            out.append(card)
    return replace(doc, devices=tuple(out))


def _split_series(card: MosCard, k: int) -> list:
    w = card.w / k
    chain = [card.d] + [f"{card.name.lower()}_m{i}" for i in range(1, k)] + [card.s]
    return [
        MosCard(f"{card.name}_S{i + 1}", chain[i], card.g, chain[i + 1],
                card.b, card.model, w, card.l, card.lineno)
        for i in range(k)
    ]


def stack_leakage_fixture(k: int, w_total: float, p: MosParams, vdd: float) -> NetlistDoc:
    """Off-state leakage fixture: one supply and a k-series stack of total
    width w_total and the default length (`TopoParams.l`) with every gate at
    the off rail.  The supply branch current is the stack's leakage."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    overrides = tuple(
        (f.name, getattr(p, f.name)) for f in dc_fields(p) if f.name != "polarity"
    )
    model = ModelCard("MLEAK", p.polarity, overrides)
    if p.polarity == "nmos":
        dut = MosCard("MX1", "vdd", "0", "0", "0", "MLEAK", w_total, TopoParams.l)
    else:
        dut = MosCard("MX1", "0", "vdd", "vdd", "vdd", "MLEAK", w_total, TopoParams.l)
    devs = (SourceCard("VDD", "vdd", "0", SourceWave("dc", vdd)), dut)
    doc = NetlistDoc(f"{p.polarity} off-state stack leakage fixture, k={k}",
                     devs, (model,), None)
    return apply_stack(doc, StackSpec(("MX1",), k))
