"""Engineering-notation value parsing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsbench.netlist import ParseError, parse_netlist, parse_value

SUFFIXES = {
    "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6,
    "m": 1e-3, "k": 1e3, "meg": 1e6, "g": 1e9,
}


# scaling is defined as mantissa * factor, so comparisons against decimal
# literals get one-ulp slack
EXACT = dict(rel=1e-15, abs=0.0)


def test_suffix_examples():
    assert parse_value("2.5u") == pytest.approx(2.5e-6, **EXACT)
    assert parse_value("10f") == pytest.approx(1.0e-14, **EXACT)
    assert parse_value("3meg") == pytest.approx(3.0e6, **EXACT)


def test_plain_numbers():
    assert parse_value("42") == 42.0
    assert parse_value("-1.5e-3") == -1.5e-3
    assert parse_value(".5") == 0.5
    assert parse_value("+3.3") == 3.3


def test_meg_wins_over_m():
    # the classic pitfall: "3m" is milli, "3meg" is mega
    assert parse_value("3m") == 3e-3
    assert parse_value("3MEG") == 3e6
    assert parse_value("3Meg") == 3e6


def test_trailing_unit_letters_ignored():
    assert parse_value("10pF") == parse_value("10p") == pytest.approx(1e-11, **EXACT)
    assert parse_value("1kOhm") == 1e3
    assert parse_value("3.3V") == 3.3
    assert parse_value("100nS") == pytest.approx(1e-7, **EXACT)


def test_case_insensitive():
    assert parse_value("2.5U") == pytest.approx(2.5e-6, **EXACT)
    assert parse_value("10F") == pytest.approx(1e-14, **EXACT)
    assert parse_value("1K") == 1e3


@pytest.mark.parametrize("bad", ["", "abc", "1.2.3", "--5", "u5", "5 u", "1e+"])
def test_malformed_rejected(bad):
    with pytest.raises(ValueError):
        parse_value(bad)


@pytest.mark.parametrize("big", ["1e400", "-1e400", "1e305g", "2e302meg"])
def test_overflowing_value_rejected(big):
    # float() reads these as +-inf; a netlist value or CLI flag of inf went
    # on to a netlist that could not be read back, or to NaN figures
    with pytest.raises(ValueError, match="overflows a float"):
        parse_value(big)
    with pytest.raises(ParseError, match=r"^line 2: numeric token .* overflows a float"):
        parse_netlist(f"t\nR1 a 0 {big}\n.end\n")


@settings(max_examples=300, derandomize=True)
@given(
    mant=st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False),
    suffix=st.sampled_from(sorted(SUFFIXES)),
    unit=st.sampled_from(["", "F", "V", "s", "Hz"]),
)
def test_total_on_suffix_table(mant, suffix, unit):
    token = repr(mant) + suffix + unit
    got = parse_value(token)
    want = mant * SUFFIXES[suffix]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0) or (mant == 0.0 and got == 0.0)


@settings(max_examples=200, derandomize=True)
@given(mant=st.floats(min_value=-1e9, max_value=1e9,
                      allow_nan=False, allow_infinity=False))
def test_no_suffix_is_identity(mant):
    assert parse_value(repr(mant)) == mant


def test_scientific_with_suffix():
    assert parse_value("1e-3k") == pytest.approx(1.0)
    assert math.isclose(parse_value("2E2m"), 0.2)
