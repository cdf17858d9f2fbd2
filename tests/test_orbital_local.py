import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rtfverify import orbital_local as ol
from rtfverify.errors import InputError
from rtfverify.formal import FormalLog


def pt(ordb, ordb1=None):
    if ordb1 is None:
        ordb1 = 0 if ordb > 0 else (ordb if ordb < 0 else 0)
    return ol.LocalPoint(ordb, ordb1)


def test_local_point_consistency():
    with pytest.raises(ValueError):
        ol.LocalPoint(-2, 0)
    with pytest.raises(ValueError):
        ol.LocalPoint(2, 1)
    with pytest.raises(ValueError):
        ol.LocalPoint(0, -1)
    assert ol.LocalPoint(0, 5).ord_bb1 == 5


def test_lambda_examples():
    assert ol.lambda_v(pt(1)) == 2          # b = varpi
    assert ol.lambda_v(pt(-3)) == 0         # b not integral
    assert ol.lambda_v(pt(0, 0)) == 1       # b, b+1 both units


def test_tau_rational():
    # b = u/v is read as its integer pair
    # b = 2: tau = number of divisors of 2*3 = 4
    assert ol.tau_S_rational(2, 1, 1) == 4
    # with the support {2} the factor at 2 is only an indicator
    assert ol.tau_S_rational(1, 2, 2) == 2
    assert ol.tau_S_rational(1, 4, 2) == 0
    assert ol.tau_S_rational(1, 3, 2) == 0
    for u, v in ((-1, 1), (0, 1), (2, 4), (1, -2)):
        with pytest.raises(ValueError):
            ol.tau_S_rational(u, v, 1)


def test_tilde_delta_examples():
    # split side: minus the triangular number
    assert ol.tilde_delta(0, pt(2), 1) == -3
    # depth-one coefficient at a unit
    assert ol.tilde_delta(1, pt(0, 0), -1) == 1
    # inert side, order two: the shell sum gives -1 (its sign-flipped
    # variant +1 is rejected by the oracle below)
    assert ol.tilde_delta(0, pt(2), -1) == -1


def test_tilde_delta_against_shell_oracle():
    for eta in (-1, 1):
        for n in range(0, 5):
            for point in ol.enumerate_points(9):
                got = ol.tilde_delta(n, point, eta)
                want = ol.tilde_delta_oracle(n, point, eta)
                assert got == want, (n, point, eta)


def test_shell_sum_values():
    assert ol.shell_sum(1, 1, 3) == 6
    assert ol.shell_sum(-1, 0, 2) == 1
    assert ol.shell_sum(-1, -2, -1) == -1   # k=-2 even -> -2; k=-1 odd -> +1
    assert ol.shell_sum(-1, 5, 4) == 0


def test_tilde_I_plus_m1_example():
    # only the l = 0 term survives for m = 1 at integral b
    q = 3
    for eta in (-1, 1):
        point = pt(2)
        got = ol.tilde_I_plus_scaled(1, point, q, eta)
        want = -ol.tilde_delta(1, point, eta) + (0 * q - 2) * ol.tilde_delta(0, point, eta)
        assert got == want


def test_tilde_I_plus_oracle_grid():
    for q in (2, 3):
        for eta in (-1, 1):
            for m in range(1, 6):
                for point in ol.enumerate_points(8):
                    assert ol.tilde_I_plus_scaled(m, point, q, eta) == \
                        ol.tilde_I_plus_oracle_scaled(m, point, q, eta)


def test_bullet_integral_example():
    # level-one shell at a unit: eta(varpi b) (l + ord b) with a sign
    assert ol.tilde_delta_oracle(1, pt(0, 0), -1) == 1


def test_w_unramified_examples():
    # both units: vanishes
    assert ol.w_unramified(pt(0, 0), 3, 1).is_zero()
    # split side at depth two
    assert ol.w_unramified(pt(2), 3, 1) == FormalLog.symbol("log@3", -3)
    # shifted branch: |b+1| < 1
    got = ol.w_unramified(pt(0, 2), 3, 1)
    assert got == FormalLog.symbol("log@3", 3)


def test_w_unramified_matches_oracle():
    for q in (2, 3, 5):
        for eta in (-1, 1):
            for point in ol.enumerate_points(12):
                assert ol.w_unramified(point, q, eta) == ol.w_unramified_oracle(point, q, eta)


def test_w_level_examples():
    assert ol.w_level(pt(0, 0), 1, 3, 1).is_zero()     # b outside the level
    got = ol.w_level(pt(2), 1, 3, 1)
    assert got == FormalLog.symbol("log@3", -3)
    got = ol.w_level(pt(2), 1, 3, -1)
    assert got == FormalLog.symbol("log@3", -1)


def test_w_level_matches_oracle():
    for q in (2, 3, 5):
        for eta in (-1, 1):
            for ordn in range(1, 7):
                for point in ol.enumerate_points(12):
                    assert ol.w_level(point, ordn, q, eta) == \
                        ol.w_level_oracle(point, ordn, q, eta)


def test_w_ramified_example():
    # unit b with unit b+1 at conductor exponent one
    val = ol.w_ramified(pt(0, 0), 1, 3, eta_minus1=1, eta_bb1=1)
    assert val == pytest.approx(-1.0)
    val = ol.w_ramified(pt(0, 0), 1, 3, eta_minus1=-1, eta_bb1=1)
    assert val == pytest.approx(1.0)
    # support cut
    assert ol.w_ramified(pt(-2, -2), 1, 3, 1, 1) == 0.0
    with pytest.raises(InputError, match=r"^eta\(b\(b\+1\)\) must be \+-1, got eta_bb1=0$"):
        ol.w_ramified(pt(0, 0), 1, 3, 1, 0)


def test_w_ramified_bound():
    for q in (2, 3, 5):
        for f in (1, 2, 3):
            for d_v in (0, 1):
                for em1 in (-1, 1):
                    for ebb in (-1, 1):
                        for point in ol.enumerate_points(8):
                            val = abs(ol.w_ramified(point, f, q, em1, ebb, d_v))
                            assert val <= ol.w_ramified_bound(point, f, q) + 1e-12


def test_w_unramified_stated_bound():
    # |W| <= C log q (ord(b(b+1)) + 1)^2 on the support |b(b+1)| < 1, C fitted
    worst = 0.0
    for q in (2, 3, 5):
        for eta in (-1, 1):
            for point in ol.enumerate_points(12):
                w = abs(ol.w_unramified(point, q, eta).evaluate())
                if point.ord_bb1 <= 0 or point.ordb < 0:
                    assert w == 0.0
                    continue
                env = (point.ord_bb1 + 1) ** 2
                worst = max(worst, w / (env * math.log(q)))
    assert worst <= 1.0


def test_w_level_stated_bound():
    # |W| <= log q (ord(b) + ord(n) + 1)^2 on b in the level
    for q in (2, 3, 5):
        for eta in (-1, 1):
            for ordn in range(1, 7):
                for point in ol.enumerate_points(12):
                    w = abs(ol.w_level(point, ordn, q, eta).evaluate())
                    if point.ordb < ordn:
                        assert w == 0.0
                        continue
                    env = (point.ordb + ordn + 1) ** 2
                    assert w <= env * math.log(q) + 1e-12


# ---------------------------------------------------------------------------
# the shell coefficients and the tilde-I sums run on integers; they must
# equal, in value and type, the Fraction arithmetic they replaced, kept here
# as a literal copy


def _fraction_shell_sum(eta_val, lo, hi):
    total = 0
    for k in range(lo, hi + 1):
        total += k if (eta_val == 1 or k % 2 == 0) else -k
    return Fraction(total)


def _fraction_tilde_delta(n, point, eta_val):
    if n >= 1:
        if point.ordb <= -n:
            return Fraction(0)
        return Fraction(ol.eta_at(eta_val, n) * ol.eta_at(eta_val, point.ordb) * (-n - point.ordb))
    if point.ordb <= 0:
        return Fraction(0)
    if eta_val == 1:
        return Fraction(-point.ordb * (point.ordb + 1), 2)
    eb = ol.eta_at(-1, point.ordb)
    return Fraction(1 - eb, 4) - Fraction(point.ordb * eb, 2)


def _fraction_tilde_delta_oracle(n, point, eta_val):
    if n == 0:
        if point.ordb <= 0:
            return Fraction(0)
        return -_fraction_shell_sum(eta_val, 0, point.ordb)
    if point.ordb < -n:
        return Fraction(0)
    k = n + point.ordb
    return Fraction(-ol.eta_at(eta_val, k) * k)


def _fraction_tilde_I_plus_scaled(m, point, q, eta_val):
    double = 2 if m == 0 else 1
    total = -_fraction_tilde_delta(m, point, eta_val)
    for l in range(max(0, 1 - point.ordb), m):
        total += ((m - l - 1) * q - (m - l + 1)) * _fraction_tilde_delta(l, point, eta_val)
    return Fraction(double) * total


def _fraction_tilde_I_plus_oracle_scaled(m, point, q, eta_val):
    total = Fraction(0)
    total += -_fraction_tilde_delta_oracle(m, point, eta_val)
    for l in range(0, m):
        total += ((m - l - 1) * q - (m - l + 1)) * _fraction_tilde_delta_oracle(l, point, eta_val)
    return total


@st.composite
def local_points(draw):
    kind, k = draw(st.sampled_from(("b", "b+1", "pole", "unit"))), draw(st.integers(1, 40))
    return {"b": ol.LocalPoint(k, 0), "b+1": ol.LocalPoint(0, k), "pole": ol.LocalPoint(-k, -k),
            "unit": ol.LocalPoint(0, 0)}[kind]


def _same(got, want):
    assert got == want and type(got) is type(want) is Fraction, (got, want)


@settings(max_examples=300, deadline=None)
@given(local_points(), st.integers(0, 40), st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 10 ** 9 + 7)),
       st.sampled_from((1, -1)))
def test_integer_shell_sums_equal_their_fraction_form(point, m, q, eta_val):
    _same(ol.tilde_delta(m, point, eta_val), _fraction_tilde_delta(m, point, eta_val))
    _same(ol.tilde_delta_oracle(m, point, eta_val), _fraction_tilde_delta_oracle(m, point, eta_val))
    _same(ol.tilde_I_plus_scaled(m, point, q, eta_val), _fraction_tilde_I_plus_scaled(m, point, q, eta_val))
    if m >= 1:
        _same(ol.tilde_I_plus_oracle_scaled(m, point, q, eta_val),
              _fraction_tilde_I_plus_oracle_scaled(m, point, q, eta_val))
    # shell_sum is an int now; the two log-sum oracles read it as before
    assert ol.w_unramified_oracle(point, q, eta_val) == FormalLog.log_integer(
        q, 0 if point.ordb < 0 else -_fraction_shell_sum(eta_val, 1, point.ordb)
        - _fraction_shell_sum(eta_val, -point.ordb1, -1))
    ordn = m + 1
    want = 0 if point.ordb < ordn else -_fraction_shell_sum(eta_val, ordn, point.ordb)
    assert ol.w_level_oracle(point, ordn, q, eta_val) == FormalLog.log_integer(q, want)


def test_shell_coefficient_guards_name_their_value():
    point = ol.LocalPoint(2, 0)
    for call, text in ((lambda: ol.tilde_delta(-1, point, 1), "n=-1"),
                       (lambda: ol.tilde_I_plus_scaled(-2, point, 3, 1), "m=-2"),
                       (lambda: ol.tilde_I_plus_oracle_scaled(0, point, 3, 1), "m=0")):
        with pytest.raises(InputError, match=f"got {text}$"):
            call()
