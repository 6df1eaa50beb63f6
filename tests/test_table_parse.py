"""Table entries are read once, exactly, and as `int` where integral.

`tables._rational` reads a JSON integer, a plain integer string and every
other entry by different routes; each route must give what `Fraction` gives.
Where `Fraction` raises (ValueError, or ZeroDivisionError and OverflowError,
which the loader reports as ValueError so that `tkk-check` exits 2 with a
table-parse error), `_rational` raises ValueError.  Booleans and exponents
past the interpreter's integer digit limit are refused on purpose.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smodquiver import tables as TB

# 0 where the interpreter has no integer digit limit
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# ASCII digits, Arabic-Indic three and four, fullwidth one, Devanagari nine
_DIGITS = "0123456789٣٤１९"
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n", " ", "\x1c", "\xa0"])
_SIGN = st.sampled_from(["", "+", "-", "--", "+-"])
_RUN = st.text(alphabet=_DIGITS, min_size=0, max_size=5)


@st.composite
def _digit_groups(draw):
    """A digit run, sometimes split by underscores, well placed or not."""
    groups = draw(st.lists(_RUN, min_size=1, max_size=3))
    return draw(st.sampled_from(["_", "__"])).join(groups)


@st.composite
def _number_strings(draw):
    """Strings near the decimal grammar `Fraction` reads: integers with
    leading zeros, signs, surrounding space and underscores, decimals,
    exponents and quotients, plus digit strings over the digit limit."""
    body = draw(_digit_groups())
    tail = draw(st.sampled_from(
        ["", "decimal", "exponent", "both", "quotient"]))
    if tail in ("decimal", "both"):
        body += "." + draw(_digit_groups())
    if tail in ("exponent", "both"):
        body += draw(st.sampled_from("eE")) + draw(_SIGN) + str(
            draw(st.integers(0, 40)))
    if tail == "quotient":
        body += draw(st.sampled_from(["/", " / "])) + draw(_digit_groups())
    if draw(st.integers(0, 19)) == 0:
        body = "1" * (LIMIT + draw(st.integers(-1, 1)))
    return draw(_SPACE) + draw(_SIGN) + body + draw(_SPACE)


def _expected(x):
    """Fraction(x) as `linalg.exact` makes it, or ValueError."""
    if type(x) is bool:
        return ValueError
    try:
        q = Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        return ValueError
    return q.numerator if q.denominator == 1 else q


def _outcome(x):
    try:
        return TB._rational(x)
    except ValueError:
        return ValueError


def _assert_reads_like_fraction(x):
    want, got = _expected(x), _outcome(x)
    assert got == want, repr(x)
    # same type too: an int where the value is integral, else a Fraction
    assert type(got) is type(want), repr(x)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_number_strings(), st.text(max_size=8)))
def test_strings_read_like_fraction(x):
    _assert_reads_like_fraction(x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.integers(), st.booleans(),
                 st.floats(allow_nan=True, allow_infinity=True)))
def test_json_numbers_read_like_fraction(x):
    _assert_reads_like_fraction(x)


@pytest.mark.parametrize("x, value", [
    pytest.param("1_000", 1000, marks=pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="Fraction reads underscores from Python 3.11 on")),
    (" 7 ", 7), ("٣", 3), ("007", 7), ("-0", 0),
    ("+12", 12), ("6/3", 2), ("1.50", Fraction(3, 2)), ("2e2", 200),
    ("1/2", Fraction(1, 2)), (3, 3), (2.0, 2), (0.5, Fraction(1, 2))])
def test_examples(x, value):
    got = TB._rational(x)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("x", ["", "1__0", "_1", "1_", "- 1", "1/0", "0x10",
                               "1e", True, None, [1], float("inf"),
                               float("nan")])
def test_rejects(x):
    with pytest.raises(ValueError):
        TB._rational(x)


def test_exponent_over_the_digit_limit_is_refused():
    # Fraction would build the integer; the loader refuses it first
    if not LIMIT:
        pytest.skip("the interpreter runs without an integer digit limit")
    assert TB._rational(f"1e{LIMIT}") == 10 ** LIMIT
    with pytest.raises(ValueError, match="digit limit"):
        TB._rational(f"1e{LIMIT + 1}")


def test_table_keeps_ints_and_builds_ops_from_its_entries():
    table = TB.table_from_dict({"dim": 2, "products": [
        [["1", 0], [0, "1/2"]], [[0, "0.5"], ["3/6", "2e0"]]]})
    entries = [x for row in table.c for v in row for x in v]
    assert {type(x) for x in entries} == {int, Fraction}
    assert [type(x) for x in table.c[0][0]] == [int, int]
    assert table.c[1][1] == (Fraction(1, 2), 2)
    assert type(table.c[1][1][1]) is int
    # ops hold the very objects of the table, without zeros
    assert all(x is table.c[i][j][k] for i, op in enumerate(table.ops)
               for (k, j), x in op.items())
