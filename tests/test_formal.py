import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp import isprime

from rtfverify import ntransform as nt
from rtfverify.formal import LOG_DF, FormalLog, _factor_small
from rtfverify.ideals import Ideal, Prime

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


def _check_factors(n):
    factors = _factor_small(n)
    primes = [p for p, _e in factors]
    assert primes == sorted(set(primes)) and all(e >= 1 for _p, e in factors), n
    assert all(isprime(p) for p in primes), n
    assert math.prod(p ** e for p, e in factors) == n, n


def test_factor_small_gives_ascending_primes_with_product_n():
    assert _factor_small(1) == []
    for n in range(2, 2 * 10 ** 4):
        _check_factors(n)
    rng = random.Random(7)
    for _ in range(10 ** 4):
        _check_factors(rng.randint(1, 10 ** 7))
    # past the table of small primes, on both sides of its reach
    for n in (10 ** 9 + 7, 2053 * 2053, 2039 * 2053, 2 ** 31 - 1, 3 * (10 ** 9 + 7)):
        _check_factors(n)


def test_zero_and_const():
    assert FormalLog.zero().is_zero()
    assert FormalLog(Fraction(3, 2)).const == Fraction(3, 2)
    assert not FormalLog.symbol("log@3").is_zero()


def test_log_integer_canonicalises_prime_powers():
    # log 8 = 3 log 2, log 12 = 2 log 2 + log 3
    assert FormalLog.log_integer(8) == FormalLog.symbol("log@2", 3)
    assert FormalLog.log_integer(12) == FormalLog.symbol("log@2", 2) + FormalLog.symbol("log@3")
    assert FormalLog.log_integer(1).is_zero()
    # equal residue cardinalities from different places share a symbol
    assert FormalLog.log_integer(9, Fraction(1, 2)) == FormalLog.symbol("log@3")


@given(rationals, rationals, rationals)
def test_linear_algebra(a, b, c):
    x = FormalLog(a, {"log@2": b, LOG_DF: c})
    y = FormalLog(c, {"log@2": a})
    assert (x + y) - y == x
    assert x * 2 == x + x
    assert (x - x).is_zero()
    assert -(-x) == x


def test_evaluate_defaults_and_bindings():
    x = FormalLog(1, {"log@2": 2, LOG_DF: Fraction(1, 2)})
    val = x.evaluate({LOG_DF: math.log(9.0)})
    assert val == pytest.approx(1 + 2 * math.log(2) + 0.5 * math.log(9))
    with pytest.raises(KeyError):
        FormalLog.symbol("mystery").evaluate()


def test_json_roundtrip():
    x = FormalLog(Fraction(-5, 3), {"log@7": Fraction(2, 9), "LpL": 1})
    assert FormalLog.from_json(x.to_json()) == x


# ---------------------------------------------------------------------------
# what __init__ would establish, on every FormalLog built by FormalLog._trusted


def _assert_normal(x):
    assert isinstance(x, FormalLog)
    assert type(x.const) is Fraction
    assert all(type(c) is Fraction and c != 0 for c in x.coeffs.values())
    twin = FormalLog(x.const, x.coeffs)
    assert x == twin and hash(x) == hash(twin)


ideals = st.lists(st.tuples(st.integers(2, 13), st.integers(0, 6)), min_size=1, max_size=4).map(
    lambda places: Ideal.of({Prime(f"p{i}", q): e for i, (q, e) in enumerate(places)}))


def _formal_fn(rng, kind):
    cache = {}

    def fn(m):
        if m not in cache:
            frac = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
                cache[m] = frac
            else:
                cache[m] = FormalLog(frac, {"log@2": Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                                            "LpL": rng.randint(-2, 2)})
        return cache[m]

    return fn


@settings(max_examples=80, deadline=None)
@given(ideals, rationals, st.randoms(use_true_random=False))
def test_trusted_results_are_normal(n, coeff, rng):
    _assert_normal(FormalLog.log_integer(n.norm, coeff))
    _assert_normal(nt.closed_log(n))
    for op in (nt.n_transform, nt.n_plus, nt.convolve_omega):
        assert type(op(_formal_fn(rng, "fraction"), n)) is Fraction
        for kind in ("formal", "mixed"):
            got = op(_formal_fn(rng, kind), n)
            if isinstance(got, FormalLog):   # a mixed B may meet only Fractions
                _assert_normal(got)
        _assert_normal(op(lambda m: FormalLog.zero(), n))
    # every coefficient cancels to a zero numerator, which must be dropped
    A_rand = _formal_fn(rng, "formal")
    A = lambda m: FormalLog.zero() if m == n else A_rand(m)
    got = nt.n_transform(lambda m: nt.convolve_omega(A, m), n)
    _assert_normal(got)
    assert got.is_zero()


# the arithmetic builds through FormalLog._trusted: each result is normal,
# equals the sum or product formed coefficient by coefficient, and owns its dict

SYMBOLS = ("log@2", "log@3", LOG_DF, "LpL")
formal_logs = st.builds(FormalLog, rationals, st.dictionaries(st.sampled_from(SYMBOLS), rationals | st.just(0)))
scalars = rationals | st.integers(-5, 5)


def _by_coefficient(const, pairs):
    coeffs = {}
    for sym, c in pairs:
        coeffs[sym] = coeffs.get(sym, 0) + c
    return FormalLog(const, coeffs)


@settings(max_examples=100, deadline=None)
@given(formal_logs, formal_logs, scalars, st.booleans())
def test_arithmetic_results_are_normal_and_fresh(x, y, s, cancel):
    if cancel:   # y takes x's coefficients on some symbols, negated, so they cancel in x + y
        y = FormalLog(y.const, {**y.coeffs, **{sym: -c for sym, c in list(x.coeffs.items())[::2]}})
    neg_y = FormalLog(-y.const, {sym: -c for sym, c in y.coeffs.items()})
    cases = [
        (x + y, _by_coefficient(x.const + y.const, [*x.coeffs.items(), *y.coeffs.items()]), (x, y)),
        (x - y, _by_coefficient(x.const - y.const, [*x.coeffs.items(), *neg_y.coeffs.items()]), (x, y)),
        (-x, _by_coefficient(-x.const, [(sym, -c) for sym, c in x.coeffs.items()]), (x,)),
        (x * s, _by_coefficient(x.const * s, [(sym, c * s) for sym, c in x.coeffs.items()]), (x,)),
        (s * x, _by_coefficient(x.const * s, [(sym, c * s) for sym, c in x.coeffs.items()]), (x,)),
        (x + s, _by_coefficient(x.const + s, x.coeffs.items()), (x,)),
        (s + x, _by_coefficient(x.const + s, x.coeffs.items()), (x,)),
        (x - s, _by_coefficient(x.const - s, x.coeffs.items()), (x,)),
        (s - x, _by_coefficient(s - x.const, [(sym, -c) for sym, c in x.coeffs.items()]), (x,)),
        (x - x, FormalLog.zero(), (x,)),
        (x + (-x), FormalLog.zero(), (x,)),
        (x * 0, FormalLog.zero(), (x,)),
        (0 * x, FormalLog.zero(), (x,)),
        (x * Fraction(0), FormalLog.zero(), (x,)),
    ]
    if s:
        cases.append((x / s, _by_coefficient(x.const / s, [(sym, c / s) for sym, c in x.coeffs.items()]), (x,)))
    for got, want, operands in cases:
        _assert_normal(got)
        assert (got.const, got.coeffs) == (want.const, want.coeffs)
        assert all(got.coeffs is not op.coeffs for op in operands)
    # a result's dict is its own: changing it changes no operand
    before = (x.const, dict(x.coeffs))
    for got, _want, _operands in cases:
        got.coeffs["log@5"] = Fraction(1)
    assert (x.const, x.coeffs) == before
