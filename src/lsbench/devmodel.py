"""Continuous MOSFET equations, lumped capacitances, and source waveforms.

The drain current uses a single charge-interpolation expression that is valid
from deep subthreshold through strong inversion:

    q(u)  = ln(1 + exp(u / (2 n VT)))
    id    = ispec * (q(vgs - vte)^2 - q(vgs - vte - n vds)^2) * (1 + lambda vds)
    ispec = 2 n kp (W/L) VT^2

with the effective threshold

    vte = vth0 + gamma (sqrt(phi + vsb) - sqrt(phi)) - eta vds

so drain-induced barrier lowering and body bias enter the exponent.  In
subthreshold this collapses to id ~ ispec exp((vgs-vte)/(n VT)), giving an
n*VT*ln10 swing per decade; in strong inversion q(u) -> u/(2 n VT) recovers
the square-law kp/(2n) (W/L) (vgs-vte)^2 asymptote.

Biases are normalized before evaluation: PMOS devices are handled by
reflecting all terminal voltages (the equations below are polarity-blind),
and drain/source are swapped so vds >= 0.  Derivatives gm, gds, gmb are exact
analytic partials of the expression above, including the vte dependence on
vds and vsb.  gmb is the partial with respect to -vsb (positive for normal
body bias).

Capacitances are bias-independent lumps:

    cgs = cgd = 0.5 cox_a W L + cov_w W        cdb = csb = cj_w W
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

VT = 0.025852  # thermal voltage kT/q at 300 K, volts
_QCLAMP = 40.0  # exp-argument clamp; beyond it q(u) is exactly its asymptote
# MosParams' physical ranges (SI): in them no _core_eval term overflows below 1e100 V
_RANGE = dict(vth0=(-100, 100), kp=(0, 1), n_slope=(0.1, 100), lam=(0, 10), eta_dibl=(0, 10),
              gamma_body=(0, 10), phi_s=(0.01, 10), cox_a=(0, 1), cov_w=(0, 1e-6), cj_w=(0, 1e-6))


@dataclass(frozen=True)
class MosParams:
    """Process parameters for one device polarity.  vth0 is stored positive
    for both polarities (reflection handles sign)."""

    polarity: str  # "nmos" | "pmos"
    vth0: float
    kp: float          # A/V^2, mobility * oxide capacitance
    n_slope: float     # subthreshold slope factor
    lam: float         # 1/V, channel-length modulation
    eta_dibl: float    # V/V, drain-induced barrier lowering
    gamma_body: float  # sqrt(V), body-effect coefficient
    phi_s: float       # V, surface potential
    cox_a: float = 4.6e-3   # F/m^2, gate oxide capacitance per area
    cov_w: float = 1.2e-10  # F/m, gate overlap capacitance per width
    cj_w: float = 9e-10     # F/m, junction capacitance per width

    def __post_init__(self):
        """Reject parameters the model cannot evaluate: every value must be
        finite, kp, n_slope and phi_s positive, all but vth0 non-negative, all
        in their physical ranges (_RANGE).  The ValueError names the .model key."""
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"polarity must be 'nmos' or 'pmos', got {self.polarity!r}")
        for f in fields(self)[1:]:
            x = getattr(self, f.name)
            if not math.isfinite(x):
                why = "must be finite"
            elif f.name in ("kp", "n_slope", "phi_s") and x <= 0:
                why = "must be positive"
            elif f.name != "vth0" and x < 0:
                why = "must not be negative"
            elif not _RANGE[f.name][0] <= x <= _RANGE[f.name][1]:
                why = "must be within [{}, {}]".format(*_RANGE[f.name])
            else:
                continue
            raise ValueError(f"{model_key_for(f.name)}={x!r} {why}")


# Default 0.35 um-class parameter set.  Chosen so that the bundled shifter
# topologies switch with the widths and rails they are generated with; fully
# overridable per-netlist via .model cards (see resolve_model_keys).
DEFAULT_NMOS = MosParams(
    polarity="nmos", vth0=0.50, kp=190e-6, n_slope=1.35,
    lam=0.06, eta_dibl=0.03, gamma_body=0.58, phi_s=0.8,
)
DEFAULT_PMOS = MosParams(
    polarity="pmos", vth0=0.95, kp=48e-6, n_slope=1.5,
    lam=0.05, eta_dibl=0.03, gamma_body=0.45, phi_s=0.8,
)

_MODEL_KEYS = {
    "VTH0": "vth0",
    "KP": "kp",
    "N": "n_slope",
    "LAMBDA": "lam",
    "ETA": "eta_dibl",
    "GAMMA": "gamma_body",
    "PHI": "phi_s",
    "COXA": "cox_a",
    "COVW": "cov_w",
    "CJW": "cj_w",
}


def resolve_model_keys(key: str) -> str:
    """Map a .model card key (VTH0, KP, N, ...) to its MosParams field name.
    Raises KeyError for unknown keys."""
    return _MODEL_KEYS[key.upper()]


def model_key_for(field_name: str) -> str:
    for k, v in _MODEL_KEYS.items():
        if v == field_name:
            return k
    raise KeyError(field_name)


def default_params(polarity: str) -> MosParams:
    if polarity.lower() == "nmos":
        return DEFAULT_NMOS
    if polarity.lower() == "pmos":
        return DEFAULT_PMOS
    raise ValueError(f"unknown polarity {polarity!r}")


@dataclass(frozen=True)
class MosBias:
    """Source-referenced bias after polarity reflection and drain/source
    swap normalization (vds >= 0 for normal use; the equations stay smooth
    for slightly negative vds, which finite-difference probes rely on)."""

    vgs: float
    vds: float
    vsb: float = 0.0


@dataclass(frozen=True)
class MosEval:
    id: float   # A, drain -> source
    gm: float   # S, d id / d vgs
    gds: float  # S, d id / d vds
    gmb: float  # S, d id / d (-vsb)


def effective_vth(p: MosParams, vds: float = 0.0, vsb: float = 0.0) -> float:
    """Threshold shifted by body bias and DIBL.  vsb is clamped below at
    -phi_s/2 so the square root stays real."""
    vsb_c = max(vsb, -0.5 * p.phi_s)
    return p.vth0 + p.gamma_body * (math.sqrt(p.phi_s + vsb_c) - math.sqrt(p.phi_s)) - p.eta_dibl * vds


def _q_sigma(x):
    """q(x) = ln(1+exp(x)) and its logistic derivative for an array x of one
    or more dimensions, with the positive branch clamped at x = 40 where
    q(x) = x to machine precision.  The derivative uses the identity
    sigma = 1 - exp(-q), exact in both branches."""
    q = np.log1p(np.exp(np.minimum(x, _QCLAMP)))
    np.copyto(q, x, where=x > _QCLAMP)
    return q, 1.0 - np.exp(-q)


def _eval_consts(n, kp, lam, eta, gamma, phi, w, l):
    """The bias-independent terms of _core_eval, for computing once per
    compiled circuit: (-phi/2, sqrt(phi), a = 1/(2 n VT), 2a, the DIBL
    factors (eta, eta - n) of the forward and reverse channel ends stacked
    on a leading axis of 2, ispec = 2 n kp (w/l) VT^2, ispec*lam)."""
    a = 1.0 / (2.0 * n * VT)
    ispec = 2.0 * n * kp * (w / l) * VT * VT
    return (-0.5 * phi, np.sqrt(phi), a, 2.0 * a, np.array((eta, eta - n)),
            ispec, ispec * lam)


def _core_eval(vgs, vds, vsb, vth0, lam, eta, gamma, phi, c):
    """Vectorized current and exact partials in the normalized frame, with
    c = _eval_consts(...) of the same devices: n, kp, w and l enter only
    through it.

    Returns (id, gm, gds, gmb) as arrays broadcast over the inputs.  All vte
    dependencies (body effect on vsb, DIBL on vds) are differentiated, so a
    central-difference probe of id agrees with gm/gds/gmb to roundoff.
    The forward and reverse channel ends are evaluated stacked, as the rows
    of one (2, ...) array.
    """
    nhphi, sqphi, a, a2, etas, ispec, ispec_lam = c
    vsb_c = np.maximum(vsb, nhphi)
    sphi = np.sqrt(phi + vsb_c)
    vte = vth0 + gamma * (sphi - sqphi) - eta * vds
    uf = (vgs - vte) * a
    # rows: forward end u, reverse end u - a * n * vds
    q, s = _q_sigma(np.array((uf, uf - vds / (2.0 * VT))))
    qsq = q * q
    qq = qsq[0] - qsq[1]
    mlam = 1.0 + lam * vds
    idrain = ispec * qq * mlam
    common = ispec * mlam * a2
    qs = q * s
    qse = qs * etas
    gm = common * (qs[0] - qs[1])
    gds = common * (qse[0] - qse[1]) + ispec_lam * qq
    # d vte / d vsb, zero where vsb is clamped: gamma/(2 sphi) is finite and
    # non-negative, so the mask product equals np.where(..., 0.0) exactly
    dvte_dvsb = (gamma / (sphi + sphi)) * (vsb > nhphi)
    gmb = gm * dvte_dvsb
    return idrain, gm, gds, gmb


def mosfet_eval(p: MosParams, bias: MosBias, w: float, l: float) -> MosEval:
    """Evaluate drain current and conductances at one normalized bias point.

    The caller owns polarity reflection and drain/source swapping; given the
    same parameter values, NMOS and PMOS evaluate identically here.
    """
    c = _eval_consts(p.n_slope, p.kp, p.lam, p.eta_dibl, p.gamma_body, p.phi_s, w, l)
    idr, gm, gds, gmb = _core_eval(bias.vgs, bias.vds, bias.vsb, p.vth0, p.lam,
                                   p.eta_dibl, p.gamma_body, p.phi_s, c)
    return MosEval(float(idr), float(gm), float(gds), float(gmb))


def cap_lumps(p: MosParams, w: float, l: float) -> tuple:
    """(gate lump cgs = cgd, junction lump cdb = csb) of one device."""
    return 0.5 * p.cox_a * w * l + p.cov_w * w, p.cj_w * w


# --------------------------------------------------------------------------
# independent sources


@dataclass(frozen=True)
class SourceWave:
    """DC value or periodic pulse.  For pulses: v1 until td, then per period:
    linear rise to v2 over tr, hold pw, linear fall to v1 over tf, v1 for the
    rest of the period."""

    kind: str  # "dc" | "pulse"
    v1: float
    v2: float = 0.0
    td: float = 0.0
    tr: float = 0.0
    tf: float = 0.0
    pw: float = 0.0
    per: float = 0.0

    def __post_init__(self):
        """Reject waves that cannot be evaluated: every value must be finite,
        and a pulse needs positive tr, tf, pw and per, a non-negative td, and
        edges plus width that fit in the period.  The ValueError names the
        field."""
        # whole-tuple tests first: sources are built on every parse and DC
        # solve, and a per-field loop doubled the construction time
        if self.kind not in ("dc", "pulse"):
            raise ValueError(f"source kind must be 'dc' or 'pulse', got {self.kind!r}")
        vals = (self.v1, self.v2, self.td, self.tr, self.tf, self.pw, self.per)
        if not all(map(math.isfinite, vals)):
            name = next(f.name for f in fields(self)[1:]
                        if not math.isfinite(getattr(self, f.name)))
            raise ValueError(f"{self.kind.upper()} {name}={getattr(self, name)!r} "
                             f"must be finite")
        if self.kind == "dc":
            return
        if min(self.tr, self.tf, self.pw, self.per) <= 0:
            name = next(nm for nm in ("tr", "tf", "pw", "per") if getattr(self, nm) <= 0)
            raise ValueError(f"PULSE {name}={getattr(self, name)!r} must be positive")
        if self.td < 0:
            raise ValueError(f"PULSE td={self.td!r} must not be negative")
        if self.tr + self.pw + self.tf > self.per:
            raise ValueError(f"PULSE edges and width (tr+pw+tf={self.tr + self.pw + self.tf:g}) "
                             f"exceed the period per={self.per:g}")


def source_value(wave: SourceWave, t: float) -> float:
    """Instantaneous source voltage at time t (t in seconds, >= 0)."""
    if wave.kind == "dc":
        return wave.v1
    if t < wave.td:
        return wave.v1
    tau = math.fmod(t - wave.td, wave.per)
    if tau < wave.tr:
        return wave.v1 + (wave.v2 - wave.v1) * tau / wave.tr
    tau -= wave.tr
    if tau < wave.pw:
        return wave.v2
    tau -= wave.pw
    if tau < wave.tf:
        return wave.v2 + (wave.v1 - wave.v2) * tau / wave.tf
    return wave.v1
