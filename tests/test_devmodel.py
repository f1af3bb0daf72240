"""MOSFET model: threshold shifts, current, derivatives, caps, sources."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refmodel as rm
from lsbench.devmodel import (VT, MosBias, MosParams, SourceWave,
                              cap_lumps, default_params, effective_vth,
                              mosfet_eval, source_value)

W = 1e-6
L = 0.35e-6


def _params(d, polarity="nmos"):
    return MosParams(polarity=polarity, vth0=d["vth0"], kp=d["kp"],
                     n_slope=d["n"], lam=d["lam"], eta_dibl=d["eta"],
                     gamma_body=d["gamma"], phi_s=d["phi"])


ALT = _params(rm.ALT_NMOS)
NMOS = default_params("nmos")
PMOS = default_params("pmos")


# ---------------------------------------------------------------------------
# threshold

def test_vth_zero_bias_is_vth0():
    assert effective_vth(NMOS) == NMOS.vth0
    assert effective_vth(PMOS) == PMOS.vth0


def test_vth_dibl_example():
    # 0.55 - 0.03 * 3.3
    assert effective_vth(ALT, vds=3.3) == pytest.approx(0.451, abs=1e-12)


def test_vth_body_effect_example():
    # 0.55 + 0.58 * (sqrt(1.8) - sqrt(0.8))
    got = effective_vth(ALT, vsb=1.0)
    assert got == pytest.approx(0.8093838853899756, abs=1e-12)
    assert got == pytest.approx(rm.ref_vth(rm.ALT_NMOS, vsb=1.0), abs=1e-15)


def test_vth_vsb_clamped_at_minus_half_phi():
    at_clamp = effective_vth(NMOS, vsb=-0.5 * NMOS.phi_s)
    assert effective_vth(NMOS, vsb=-0.7) == at_clamp
    assert effective_vth(NMOS, vsb=-5.0) == at_clamp
    assert at_clamp < NMOS.vth0  # reverse body bias lowers the threshold


# ---------------------------------------------------------------------------
# drain current

def test_zero_vds_zero_current():
    for vgs in (0.0, 0.3, 1.0, 3.3):
        assert mosfet_eval(NMOS, MosBias(vgs=vgs, vds=0.0), W, L).id == 0.0


def test_leakage_matches_reference():
    got = mosfet_eval(NMOS, MosBias(vgs=0.0, vds=3.3), W, L).id
    assert got == pytest.approx(1.1970284320300262e-11, rel=1e-12)
    assert got == pytest.approx(rm.ref_id(rm.RET_NMOS, 0.0, 3.3, 0.0, W), rel=1e-12)

    got_alt = mosfet_eval(ALT, MosBias(vgs=0.0, vds=3.3), W, L).id
    assert got_alt == pytest.approx(4.210833564761671e-12, rel=1e-12)
    assert got_alt == pytest.approx(rm.ref_id(rm.ALT_NMOS, 0.0, 3.3, 0.0, W), rel=1e-12)


def test_strong_inversion_asymptote():
    # deep saturation: id -> (kp / 2n) (W/L) (vgs - vte)^2 (1 + lam vds)
    p, vgs, vds = NMOS, 3.3, 3.3
    vte = effective_vth(p, vds=vds)
    sat = (p.kp / (2 * p.n_slope)) * (W / L) * (vgs - vte) ** 2 * (1 + p.lam * vds)
    got = mosfet_eval(p, MosBias(vgs=vgs, vds=vds), W, L).id
    assert got == pytest.approx(sat, rel=0.05)


def test_subthreshold_decade_slope():
    for p, ref in ((NMOS, rm.RET_NMOS), (ALT, rm.ALT_NMOS)):
        vte = effective_vth(p, vds=1.0)
        vg = np.linspace(vte - 0.4, vte - 0.2, 41)
        logi = np.log10([mosfet_eval(p, MosBias(v, 1.0), W, L).id for v in vg])
        slope = np.polyfit(vg, logi, 1)[0]  # decades per volt
        want = 1.0 / (p.n_slope * VT * math.log(10.0))
        assert slope == pytest.approx(want, rel=0.05)


def test_monotone_in_vgs_and_vds():
    vg = np.linspace(0.0, 3.6, 241)
    i_vg = [mosfet_eval(NMOS, MosBias(v, 1.5), W, L).id for v in vg]
    assert np.all(np.diff(i_vg) > 0)
    vd = np.linspace(1e-3, 3.6, 241)
    i_vd = [mosfet_eval(NMOS, MosBias(1.0, v), W, L).id for v in vd]
    assert np.all(np.diff(i_vd) > 0)


def test_polarity_is_just_a_label_here():
    # reflection lives in the stamping layer; same numbers, same answer
    mirrored = _params(rm.RET_NMOS, polarity="pmos")
    b = MosBias(vgs=1.2, vds=0.7, vsb=0.2)
    assert mosfet_eval(mirrored, b, W, L) == mosfet_eval(NMOS, b, W, L)


def test_derivatives_match_central_differences():
    rng = np.random.default_rng(20260815)
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        vgs, vds = rng.uniform(0.0, 3.6, size=2)
        vsb = rng.uniform(0.0, 1.0)
        ev = mosfet_eval(NMOS, MosBias(vgs, vds, vsb), W, L)

        def fd(dg=0.0, dd=0.0, db=0.0):
            hi = mosfet_eval(NMOS, MosBias(vgs + dg, vds + dd, vsb + db), W, L).id
            lo = mosfet_eval(NMOS, MosBias(vgs - dg, vds - dd, vsb - db), W, L).id
            return (hi - lo) / (2 * h)

        for got, want in ((ev.gm, fd(dg=h)), (ev.gds, fd(dd=h)),
                          (ev.gmb, -fd(db=h))):
            err = abs(got - want) / max(abs(want), 1e-15)
            worst = max(worst, err)
    assert worst < 1e-4


def test_off_stack_splits_the_drop_and_cuts_leakage():
    # two half-width devices in series, gates grounded: the middle node
    # settles where the currents balance, and the stack leaks far less
    # than the single full-width device it replaces
    vm = rm.stack_vm(rm.RET_NMOS, 3.3, 0.5e-6)
    assert 0.0 < vm < 0.3
    assert vm == pytest.approx(0.07756960777273864, abs=1e-12)
    top = mosfet_eval(NMOS, MosBias(-vm, 3.3 - vm, vm), 0.5e-6, L).id
    bot = mosfet_eval(NMOS, MosBias(0.0, vm, 0.0), 0.5e-6, L).id
    assert top == pytest.approx(bot, rel=1e-9)
    assert top == pytest.approx(2.99574639167446e-13, rel=1e-9)
    i_single = mosfet_eval(NMOS, MosBias(0.0, 3.3, 0.0), W, L).id
    assert top < 0.1 * i_single


# ---------------------------------------------------------------------------
# capacitances

@pytest.mark.parametrize("field,value,why", [
    ("vth0", float("nan"), "VTH0=nan must be finite"),
    ("kp", float("inf"), "KP=inf must be finite"),
    ("n_slope", 0.0, "N=0.0 must be positive"),
    ("phi_s", -0.8, "PHI=-0.8 must be positive"),
    ("eta_dibl", -0.01, "ETA=-0.01 must not be negative"),
    ("cj_w", -1e-10, "CJW=-1e-10 must not be negative"),
])
def test_invalid_params_rejected(field, value, why):
    with pytest.raises(ValueError, match=why):
        replace(NMOS, **{field: value})


def test_param_bounds_edges():
    with pytest.raises(ValueError, match="polarity"):
        replace(NMOS, polarity="xmos")
    # a negative threshold and zero lambda/body effect are valid devices
    assert replace(NMOS, vth0=-0.2, lam=0.0, gamma_body=0.0).vth0 == -0.2


def test_cap_values():
    cg, cj = cap_lumps(NMOS, W, L)  # cgs = cgd, cdb = csb
    # 0.5 * 4.6e-3 * 1e-6 * 0.35e-6 + 1.2e-10 * 1e-6
    assert cg == pytest.approx(9.25e-16, rel=1e-12)
    assert cj == pytest.approx(9e-16, rel=1e-12)


def test_caps_scale_linearly_with_width():
    (cg1, cj1), (cg2, cj2) = cap_lumps(NMOS, W, L), cap_lumps(NMOS, 2 * W, L)
    assert cj2 == pytest.approx(2 * cj1, rel=1e-12)
    assert cg2 == pytest.approx(2 * cg1, rel=1e-12)
    # splitting a device into two half-width ones conserves total gate cap
    cgh, _ = cap_lumps(NMOS, 0.5 * W, L)
    assert 2 * cgh == pytest.approx(cg1, rel=1e-12)


# ---------------------------------------------------------------------------
# sources

PULSE = SourceWave("pulse", 0.0, 1.6, 1e-9, 1e-9, 1e-9, 48e-9, 100e-9)


@pytest.mark.parametrize("args,why", [
    (("pulse", 0.0, 1.6, 1e-9, 1e-9, 1e-9, 48e-9, 0.0), "PULSE per=0.0 must be positive"),
    (("pulse", 0.0, 1.6, 1e-9, 0.0, 1e-9, 48e-9, 1e-7), "PULSE tr=0.0 must be positive"),
    (("pulse", 0.0, 1.6, -1e-9, 1e-9, 1e-9, 48e-9, 1e-7), "PULSE td=-1e-09 must not be negative"),
    (("pulse", 0.0, 1.6, 1e-9, 1e-9, 1e-9, 99e-9, 1e-7), "exceed the period"),
    (("pulse", 0.0, math.nan, 1e-9, 1e-9, 1e-9, 48e-9, 1e-7), "PULSE v2=nan must be finite"),
    (("pulse", 0.0, 1.6, 1e-9, 1e-9, 1e-9, 48e-9, math.inf), "PULSE per=inf must be finite"),
    (("dc", math.inf), "DC v1=inf must be finite"),
    (("sin", 0.0), "kind"),
])
def test_invalid_source_waves_rejected(args, why):
    # the library path meets the same checks as the parser; per=0 used to
    # fail only when evaluated, with a bare "math domain error"
    with pytest.raises(ValueError, match=why):
        SourceWave(*args)


def test_pulse_sample_points():
    assert source_value(PULSE, 0.0) == 0.0
    assert source_value(PULSE, 1.5e-9) == pytest.approx(0.8)
    assert source_value(PULSE, 2e-9) == 1.6
    assert source_value(PULSE, 40e-9) == 1.6
    assert source_value(PULSE, 50.5e-9) == pytest.approx(0.8)  # mid-fall
    assert source_value(PULSE, 80e-9) == 0.0
    assert source_value(PULSE, 101.5e-9) == pytest.approx(0.8)


def test_dc_is_constant():
    w = SourceWave("dc", 2.2)
    for t in (0.0, 1e-9, 1.0):
        assert source_value(w, t) == 2.2


@settings(max_examples=200, derandomize=True)
@given(t=st.floats(min_value=1e-9, max_value=1e-6))
def test_pulse_periodic_and_bounded(t):
    v = source_value(PULSE, t)
    assert 0.0 <= v <= 1.6
    assert source_value(PULSE, t + PULSE.per) == pytest.approx(v, abs=1e-9)
