import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rtfverify import ntransform as nt
from rtfverify.errors import DomainError, NonRationalPower
from rtfverify.formal import FormalLog
from rtfverify.ideals import Ideal, Prime

P3 = Prime("p", 3)
Q2 = Prime("q", 2)


def test_transform_of_one_examples():
    assert nt.n_transform(nt.one_fn(), Ideal.of({P3: 2})) == Fraction(5, 6)
    # squarefree levels are fixed points
    assert nt.n_transform(nt.one_fn(), Ideal.of({P3: 1, Q2: 1})) == 1
    assert nt.n_transform(nt.one_fn(), Ideal.unit()) == 1


def test_transform_of_log_example():
    got = nt.n_transform(nt.log_norm_fn(), Ideal.of({P3: 2}))
    assert got == FormalLog.symbol("log@3", 2)


def test_convolve_examples():
    # squarefree: only the unit square divisor contributes
    n = Ideal.of({P3: 1})
    A = nt.ArithFn(lambda m: Fraction(7, 3))
    assert nt.convolve_omega(A, n) == Fraction(7, 3)
    # weighted two-term sum at p^2
    assert nt.convolve_omega(nt.one_fn(), Ideal.of({P3: 2})) == Fraction(7, 6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 5))
def test_inversion_roundtrip(e1, e2, e3):
    primes = [P3, Q2, Prime("r", 5)]
    n = Ideal.of(dict(zip(primes, (e1, e2, e3))))
    rng = random.Random((e1, e2, e3).__hash__())
    cache = {}

    def raw(m):
        if m not in cache:
            cache[m] = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        return cache[m]

    A = nt.ArithFn(raw)
    B = nt.ArithFn(lambda m: nt.convolve_omega(A, m))
    assert nt.n_transform(B, n) == A(n)
    B2 = nt.ArithFn(raw)
    A2 = nt.ArithFn(lambda m: nt.n_transform(B2, m))
    assert nt.convolve_omega(A2, n) == B2(n)


def test_closed_power_examples():
    n = Ideal.of({P3: 2})
    assert nt.closed_power(n, 0) == Fraction(5, 6)
    assert nt.closed_power(n, 1) == Fraction(53, 6)
    # squarefree: just the norm power
    m = Ideal.of({P3: 1, Q2: 1})
    assert nt.closed_power(m, 2) == 36
    assert nt.closed_power(m, Fraction(1, 2), exact=False) == pytest.approx(6 ** 0.5)


def test_closed_power_matches_brute_force():
    for exps in [(2, 0), (3, 2), (4, 1), (6, 6), (5, 3)]:
        n = Ideal.of({P3: exps[0], Q2: exps[1]})
        for t in (-1, 0, 1, 2):
            assert nt.closed_power(n, t) == nt.n_transform(nt.norm_power_fn(t), n)


def test_closed_log_examples():
    n = Ideal.of({P3: 2})
    assert nt.closed_log(n) == FormalLog.symbol("log@3", 2)
    sqfree = Ideal.of({P3: 1, Q2: 1})
    assert nt.closed_log(sqfree) == FormalLog.log_integer(6)
    both = Ideal.of({P3: 2, Q2: 2})
    assert nt.closed_log(both) == nt.n_transform(nt.log_norm_fn(), both)


def test_n_plus_examples():
    n = Ideal.of({P3: 2})
    assert nt.n_plus(nt.one_fn(), n) == Fraction(7, 6)
    assert nt.n_plus(nt.one_fn(), Ideal.of({P3: 1})) == 1
    # dual path at t = -1
    assert nt.n_plus(nt.norm_power_fn(-1), n) == nt.n_plus_closed_power(n, -1) == Fraction(5, 18)


def test_non_rational_power():
    with pytest.raises(NonRationalPower):
        nt.closed_power(Ideal.of({P3: 1}), Fraction(1, 2))


@pytest.mark.parametrize("q, e", [(3, 70), (3, 700), (2, 3000)])
def test_half_power_of_large_square_norm(q, e):
    # norms past the float range (or past float root precision) stay exact
    n = Ideal.of({Prime("p", q): e})
    half = Fraction(1, 2)
    assert nt.closed_power(n, half) == nt.n_transform(nt.norm_power_fn(half), n)
    assert nt._norm_power_exact(n, half) == q ** (e // 2)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13)), st.integers(0, 60)),
                min_size=1, max_size=4),
       st.integers(2, 7), st.integers(-5, 5))
def test_norm_power_exact_of_perfect_powers(place_exps, d, a):
    primes = [Prime(f"p{i}", q) for i, (q, _) in enumerate(place_exps)]
    root = Ideal.of({p: e for p, (_, e) in zip(primes, place_exps)})
    n = Ideal.of({p: d * e for p, (_, e) in zip(primes, place_exps)})
    assert nt._norm_power_exact(n, Fraction(a, d)) == Fraction(root.norm) ** a


def test_domain_refusal():
    dom = nt.DivisorsOf(Ideal.of({P3: 2}))
    B = nt.ArithFn(lambda m: Fraction(1), dom)
    assert nt.n_transform(B, Ideal.of({P3: 2})) == Fraction(5, 6)
    with pytest.raises(DomainError):
        nt.n_transform(B, Ideal.of({P3: 2, Q2: 2}))


def test_majorant_bound_family():
    # closed form of the majorant stays within the power envelope as the
    # exponent family grows
    for q in (2, 3, 5):
        p = Prime("p", q)
        prev = None
        for k in range(1, 13):
            n = Ideal.of({p: 2 * k})
            val = nt.n_plus_closed_power(n, Fraction(-1, 2), exact=False)
            ratio = val / n.norm ** -0.5
            assert ratio < 3.0
            prev = ratio
