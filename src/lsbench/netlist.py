"""Line-oriented netlist parsing and elaboration.

The accepted format is a small SPICE subset:

    <title line>
    * comment (skipped; a leading + continues the previous card)
    .model <name> NMOS|PMOS (KEY=value ...)
    M<name> <drain> <gate> <source> <body> <model> W=<v> L=<v>
    V<name> <n+> <n-> DC <v>
    V<name> <n+> <n-> PULSE(<v1> <v2> <td> <tr> <tf> <pw> <per>)
    R<name> <n+> <n-> <value>
    C<name> <n+> <n-> <value>
    .tran <tstep> <tstop>
    .end

Values take engineering suffixes (f p n u m k meg g, longest match first so
"meg" wins over "m"); trailing unit letters after the suffix are ignored, so
"10pF" reads as "10p".  Node "0" (alias "gnd") is ground.  Device and model
names are case-insensitive and must be unique; node names are case-insensitive.

`parse_netlist` builds a NetlistDoc (pure syntax, order preserved),
`elaborate` turns a doc into a Circuit with interned node indices and fully
resolved device parameters.  Both report errors with the source line number.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

from .devmodel import (MosParams, SourceWave, default_params, model_key_for,
                       resolve_model_keys)

GROUND_NAMES = ("0", "gnd")

# ordering matters: "meg" must be tried before the single letters
SUFFIXES = (
    ("meg", 1e6),
    ("f", 1e-15),
    ("p", 1e-12),
    ("n", 1e-9),
    ("u", 1e-6),
    ("m", 1e-3),
    ("k", 1e3),
    ("g", 1e9),
)

_VALUE_RE = re.compile(
    r"^(?P<mant>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<tail>[a-zA-Z]*)$"
)


class ParseError(ValueError):
    """Syntax or value error, carrying the 1-based source line number."""

    def __init__(self, lineno: int, msg: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {msg}")


class ElaborationError(ValueError):
    pass


def parse_value(token: str) -> float:
    """Parse one numeric token with an optional engineering suffix.

    Returns the magnitude as a float.  Unit letters after the suffix (or after
    a bare number) are ignored: "10pF" == "10p", "3.3V" == "3.3".  A value
    that overflows a float ("1e400", "1e305g") is a ValueError.
    """
    m = _VALUE_RE.match(token.strip())
    if not m:
        raise ValueError(f"malformed numeric token {token!r}")
    mag = float(m.group("mant"))
    tail = m.group("tail").lower()
    for suf, mult in SUFFIXES:
        if tail.startswith(suf):
            mag *= mult
            break
    if not math.isfinite(mag):
        raise ValueError(f"numeric token {token!r} overflows a float")
    return mag


# --------------------------------------------------------------------------
# syntax layer


@dataclass(frozen=True)
class MosCard:
    name: str
    d: str
    g: str
    s: str
    b: str
    model: str
    w: float
    l: float
    lineno: int = 0


@dataclass(frozen=True)
class SourceCard:
    name: str
    p: str
    m: str
    wave: SourceWave
    lineno: int = 0


@dataclass(frozen=True)
class TwoTermCard:
    kind: str  # "R" or "C"
    name: str
    a: str
    b: str
    value: float
    lineno: int = 0


@dataclass(frozen=True)
class ModelCard:
    name: str
    polarity: str  # "nmos" | "pmos"
    overrides: tuple  # ((key, value), ...) in card order, keys lowercased
    lineno: int = 0


@dataclass(frozen=True)
class TranCard:
    tstep: float
    tstop: float
    lineno: int = 0


@dataclass(frozen=True)
class NetlistDoc:
    title: str
    devices: tuple = ()
    models: tuple = ()
    tran: TranCard | None = None


def _logical_lines(text: str):
    """Yield (lineno, joined_line) with '+' continuations merged and comments
    / blank lines dropped.  lineno is the first physical line of the card."""
    out: list[list] = []  # [lineno, text]
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        stripped = line.strip()
        if i == 1:
            out.append([1, line])  # title, verbatim
            continue
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if len(out) < 2:
                raise ParseError(i, "continuation with no preceding card")
            out[-1][1] += " " + stripped[1:].strip()
            continue
        out.append([i, stripped])
    return [(n, t) for n, t in out]


def _node(tok: str) -> str:
    n = tok.lower()
    return "0" if n in GROUND_NAMES else n


def _value(lineno: int, token: str) -> float:
    try:
        return parse_value(token)
    except ValueError as e:
        raise ParseError(lineno, str(e)) from None


_DC_RE = re.compile(r"^dc\s+(\S+)$", re.I)
_PULSE_RE = re.compile(r"^pulse\s*\(\s*(.*?)\s*\)$", re.I | re.S)
_MODEL_PARENS_RE = re.compile(r"^\(\s*(.*?)\s*\)$", re.S)


def _parse_mos(lineno: int, tok: list[str]) -> MosCard:
    if len(tok) < 6:
        raise ParseError(lineno, f"MOSFET card needs 4 nodes and a model, got {tok!r}")
    name, d, g, s, b, model = tok[0], *map(_node, tok[1:5]), tok[5].upper()
    kv = {}
    for t in tok[6:]:
        if "=" not in t:
            raise ParseError(lineno, f"expected KEY=value on MOSFET card, got {t!r}")
        k, v = t.split("=", 1)
        k = k.lower()
        if k not in ("w", "l"):
            raise ParseError(lineno, f"unknown MOSFET card parameter {k!r} (only W and L live on cards)")
        if k in kv:
            raise ParseError(lineno, f"duplicate {k.upper()}= on MOSFET card")
        kv[k] = _value(lineno, v)
    if "w" not in kv or "l" not in kv:
        raise ParseError(lineno, "MOSFET card requires both W= and L=")
    if kv["w"] <= 0 or kv["l"] <= 0:
        raise ParseError(lineno, "W and L must be positive")
    return MosCard(name.upper(), d, g, s, b, model, kv["w"], kv["l"], lineno)


def _parse_source(lineno: int, tok: list[str], rest: str) -> SourceCard:
    if len(tok) < 4:
        raise ParseError(lineno, "voltage source needs two nodes and a value spec")
    name, p, m = tok[0].upper(), _node(tok[1]), _node(tok[2])
    spec = rest.strip()
    mdc = _DC_RE.match(spec)
    mp = _PULSE_RE.match(spec)
    if mdc:
        args = ("dc", _value(lineno, mdc.group(1)))
    elif mp:
        args = [_value(lineno, t) for t in mp.group(1).split()]
        if len(args) != 7:
            raise ParseError(lineno, f"PULSE takes exactly 7 values (v1 v2 td tr tf pw per), got {len(args)}")
        args = ("pulse", *args)
    else:
        raise ParseError(lineno, f"unrecognized source spec {spec!r} (expected DC or PULSE)")
    try:
        return SourceCard(name, p, m, SourceWave(*args), lineno)
    except ValueError as e:
        raise ParseError(lineno, str(e)) from None


def _parse_model(lineno: int, tok: list[str], rest: str) -> ModelCard:
    if len(tok) < 3:
        raise ParseError(lineno, ".model needs a name and a polarity")
    name = tok[1].upper()
    pol = tok[2].lower()
    if pol not in ("nmos", "pmos"):
        raise ParseError(lineno, f"model polarity must be NMOS or PMOS, got {tok[2]!r}")
    body = rest.strip()
    mp = _MODEL_PARENS_RE.match(body)
    if mp:
        body = mp.group(1)
    pairs = []
    for t in body.split():
        if "=" not in t:
            raise ParseError(lineno, f"expected KEY=value in .model body, got {t!r}")
        k, v = t.split("=", 1)
        try:
            fname = resolve_model_keys(k)
        except KeyError:
            raise ParseError(lineno, f"unknown .model key {k.upper()!r}") from None
        pairs.append((fname, _value(lineno, v)))
    return ModelCard(name, pol, tuple(pairs), lineno)


def parse_netlist(text: str) -> NetlistDoc:
    """Parse netlist text into a NetlistDoc.  The first line is always the
    title.  Exactly one .end must terminate the document."""
    lines = _logical_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    title = lines[0][1]
    devices: list = []
    models: list[ModelCard] = []
    tran: TranCard | None = None
    seen_names: set[str] = set()
    ended = False
    for lineno, line in lines[1:]:
        if ended:
            raise ParseError(lineno, "content after .end")
        tok = line.split()
        head = tok[0].lower()
        if head == ".end":
            ended = True
            continue
        if head == ".model":
            card = _parse_model(lineno, tok, line.split(None, 3)[3] if len(tok) > 3 else "")
            if any(mc.name == card.name for mc in models):
                raise ParseError(lineno, f"duplicate model {card.name}")
            models.append(card)
            continue
        if head == ".tran":
            if len(tok) != 3:
                raise ParseError(lineno, ".tran takes exactly tstep and tstop")
            if tran is not None:
                raise ParseError(lineno, "duplicate .tran directive")
            tstep, tstop = _value(lineno, tok[1]), _value(lineno, tok[2])
            if tstep <= 0 or tstop <= 0:
                raise ParseError(lineno, ".tran times must be positive")
            tran = TranCard(tstep, tstop, lineno)
            continue
        if head.startswith("."):
            raise ParseError(lineno, f"unknown directive {tok[0]!r}")
        kind = head[0]
        if kind == "m":
            card = _parse_mos(lineno, tok)
        elif kind == "v":
            card = _parse_source(lineno, tok, line.split(None, 3)[3] if len(tok) > 3 else "")
        elif kind in ("r", "c"):
            if len(tok) != 4:
                raise ParseError(lineno, f"{kind.upper()} card takes two nodes and a value")
            val = _value(lineno, tok[3])
            if val <= 0:
                raise ParseError(lineno, f"{kind.upper()} value must be positive")
            card = TwoTermCard(kind.upper(), tok[0].upper(), _node(tok[1]), _node(tok[2]), val, lineno)
        else:
            raise ParseError(lineno, f"unknown card letter {tok[0][0]!r}")
        if card.name in seen_names:
            raise ParseError(lineno, f"duplicate device name {card.name}")
        seen_names.add(card.name)
        devices.append(card)
    if not ended:
        raise ParseError(len(text.splitlines()) or 1, "missing .end")
    return NetlistDoc(title, tuple(devices), tuple(models), tran)


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize_netlist(doc: NetlistDoc) -> str:
    """Render a NetlistDoc back to text.  parse_netlist(serialize_netlist(d))
    elaborates identically to d; float values are emitted with full repr
    precision so the round trip is exact."""
    out = [doc.title]
    for mc in doc.models:
        body = " ".join(f"{model_key_for(k)}={_fmt(v)}" for k, v in mc.overrides)
        out.append(f".model {mc.name} {mc.polarity.upper()} ({body})")
    for card in doc.devices:
        if isinstance(card, MosCard):
            out.append(
                f"{card.name} {card.d} {card.g} {card.s} {card.b} "
                f"{card.model} W={_fmt(card.w)} L={_fmt(card.l)}"
            )
        elif isinstance(card, SourceCard):
            wv = card.wave
            if wv.kind == "dc":
                out.append(f"{card.name} {card.p} {card.m} DC {_fmt(wv.v1)}")
            else:
                vals = " ".join(_fmt(v) for v in (wv.v1, wv.v2, wv.td, wv.tr, wv.tf, wv.pw, wv.per))
                out.append(f"{card.name} {card.p} {card.m} PULSE({vals})")
        else:
            out.append(f"{card.name} {card.a} {card.b} {_fmt(card.value)}")
    if doc.tran is not None:
        out.append(f".tran {_fmt(doc.tran.tstep)} {_fmt(doc.tran.tstop)}")
    out.append(".end")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# elaboration


@dataclass(frozen=True)
class MosInstance:
    name: str
    d: int
    g: int
    s: int
    b: int
    params: MosParams
    w: float
    l: float


@dataclass(frozen=True)
class SourceInstance:
    name: str
    p: int
    m: int
    wave: SourceWave


@dataclass(frozen=True)
class TwoTermInstance:
    name: str
    a: int
    b: int
    value: float


@dataclass
class Circuit:
    """Elaborated circuit: interned nodes (ground = index -1), bound devices.
    Treated as immutable after construction."""

    title: str
    node_names: list[str] = field(default_factory=list)
    node_index: dict = field(default_factory=dict)
    mosfets: list[MosInstance] = field(default_factory=list)
    resistors: list[TwoTermInstance] = field(default_factory=list)
    caps: list[TwoTermInstance] = field(default_factory=list)
    sources: list[SourceInstance] = field(default_factory=list)
    tran: TranCard | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)


def elaborate(doc: NetlistDoc, base_models: dict | None = None) -> Circuit:
    """Bind a NetlistDoc into a Circuit.

    Node indices are assigned in first-appearance order over the device cards.
    MOSFET parameters come from the named .model card applied on top of the
    polarity defaults (or on top of `base_models[polarity]` when given, which
    is how seed-model overrides enter).
    """
    base_models = base_models or {}
    params_by_model: dict[str, MosParams] = {}
    for mc in doc.models:
        base = base_models.get(mc.polarity) or default_params(mc.polarity)
        try:
            params_by_model[mc.name] = replace(base, **dict(mc.overrides),
                                               polarity=mc.polarity)
        except ValueError as e:
            raise ElaborationError(f"line {mc.lineno}: model {mc.name}: {e}") from None

    circ = Circuit(title=doc.title, tran=doc.tran)
    touch_count: dict[int, int] = {}
    # union-find over the terminals of voltage sources, ground (-1) included:
    # a source whose terminals are already joined closes a loop of sources,
    # whose MNA system is singular
    joined: dict[int, int] = {}

    def root(idx: int) -> int:
        while idx in joined:
            idx = joined[idx]
        return idx

    def intern(name: str) -> int:
        if name == "0":
            return -1
        idx = circ.node_index.get(name)
        if idx is None:
            idx = len(circ.node_names)
            circ.node_index[name] = idx
            circ.node_names.append(name)
        return idx

    def touch(idx: int):
        if idx >= 0:
            touch_count[idx] = touch_count.get(idx, 0) + 1

    for card in doc.devices:
        if isinstance(card, MosCard):
            if card.model not in params_by_model:
                raise ElaborationError(
                    f"line {card.lineno}: device {card.name} references undeclared model {card.model}"
                )
            inst = MosInstance(
                card.name,
                intern(card.d), intern(card.g), intern(card.s), intern(card.b),
                params_by_model[card.model], card.w, card.l,
            )
            circ.mosfets.append(inst)
            for n in (inst.d, inst.g, inst.s, inst.b):
                touch(n)
        elif isinstance(card, SourceCard):
            inst = SourceInstance(card.name, intern(card.p), intern(card.m), card.wave)
            rp, rm = root(inst.p), root(inst.m)
            if rp == rm:
                raise ElaborationError(
                    f"line {card.lineno}: voltage source {card.name} closes a loop of "
                    f"voltage sources between nodes {card.p!r} and {card.m!r}"
                )
            joined[rp] = rm
            circ.sources.append(inst)
            touch(inst.p)
            touch(inst.m)
        else:
            if _node(card.a) == _node(card.b):
                raise ElaborationError(
                    f"line {card.lineno}: {card.name} has both terminals on node {card.a!r}"
                )
            inst = TwoTermInstance(card.name, intern(card.a), intern(card.b), card.value)
            (circ.resistors if card.kind == "R" else circ.caps).append(inst)
            touch(inst.a)
            touch(inst.b)

    for idx, cnt in touch_count.items():
        if cnt == 1:
            circ.warnings.append(f"node {circ.node_names[idx]!r} has a single terminal attachment (possibly floating)")
    return circ


def parse_seed_models(text: str) -> dict:
    """Parse a process-seed file holding only .model cards (plus comments and
    blank lines, no title).  Returns {"nmos": MosParams, "pmos": MosParams}
    for the polarities present, each the built-in default with the card's
    overrides applied; feed the result to elaborate(base_models=...)."""
    # reuse the card tokenizer; the synthetic title shifts line numbers by one
    lines = _logical_lines("* seed\n" + text)
    base: dict = {}
    for lineno, line in lines[1:]:
        tok = line.split()
        if tok[0].lower() != ".model":
            raise ParseError(lineno - 1, "seed model files may contain only .model cards")
        card = _parse_model(lineno - 1, tok, line.split(None, 3)[3] if len(tok) > 3 else "")
        if card.polarity in base:
            raise ParseError(lineno - 1, f"duplicate {card.polarity.upper()} seed model")
        try:
            base[card.polarity] = replace(
                default_params(card.polarity), polarity=card.polarity, **dict(card.overrides)
            )
        except ValueError as e:
            raise ParseError(lineno - 1, f"model {card.name}: {e}") from None
    return base
