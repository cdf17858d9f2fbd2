import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rtfverify import ntransform as nt
from rtfverify.errors import NonRationalPower
from rtfverify.formal import FormalLog
from rtfverify.ideals import Ideal, Prime, iota, omega_pair, omega_v, square_decompose, stratum

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
    A = lambda m: Fraction(7, 3)
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

    B = lambda m: nt.convolve_omega(raw, m)
    assert nt.n_transform(B, n) == raw(n)
    A = lambda m: nt.n_transform(raw, m)
    assert nt.convolve_omega(A, n) == raw(n)


def test_closed_power_examples():
    n = Ideal.of({P3: 2})
    assert nt.closed_power(n, 0) == Fraction(5, 6)
    assert nt.closed_power(n, 1) == Fraction(53, 6)
    # squarefree: just the norm power
    m = Ideal.of({P3: 1, Q2: 1})
    assert nt.closed_power(m, 2) == 36
    assert nt.n_plus_closed_power(m, Fraction(1, 2), exact=False) == pytest.approx(6 ** 0.5)
    with pytest.raises(NonRationalPower):
        nt.closed_power(m, Fraction(1, 2))


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


# ---------------------------------------------------------------------------
# reference sums: every weight computed literally from iota and omega


def _reference_subset_sum(B, n, sign):
    """sum_I sign^|I| prod_{v in I cap S1(n1)} omega_v(p, n0) iota(m)/iota(n) B(m)."""
    n0, n1 = square_decompose(n)
    s1 = set(stratum(n1, 1))
    supp = n1.support
    total = Fraction(0)
    for mask in range(1 << len(supp)):
        chosen = [p for i, p in enumerate(supp) if mask >> i & 1]
        m = n.divide(Ideal.of({p: 2 for p in chosen}))
        w = Fraction(sign) ** len(chosen) * iota(m) / iota(n)
        for p in chosen:
            if p in s1:
                w *= omega_v(p, n0)
        total = total + w * B(m)
    return total


def _reference_convolve(A, n):
    """sum_{b | n1} omega(n, b^2) iota(n b^-2)/iota(n) A(n b^-2)."""
    _, n1 = square_decompose(n)
    total = Fraction(0)
    for b in n1.divisors():
        m = n.divide(b.pow(2))
        total = total + omega_pair(n, b.pow(2)) * iota(m) / iota(n) * A(m)
    return total


@st.composite
def monoid_ideal(draw):
    qs = draw(st.lists(st.integers(2, 13), min_size=1, max_size=5))
    return Ideal.of({Prime(f"p{i}", q): draw(st.integers(0, 7)) for i, q in enumerate(qs)})


def _random_value(rng, kind):
    frac = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
        return frac
    return FormalLog(frac, {"log@2": Fraction(rng.randint(-9, 9), rng.randint(1, 5)), "LpL": rng.randint(-3, 3)})


def _random_fn(rng, kind, seen=None):
    cache = {}

    def fn(m):
        if seen is not None:
            seen.append(m)
        if m not in cache:
            cache[m] = _random_value(rng, kind)
        return cache[m]

    return fn


KINDS = ("fraction", "formal", "mixed")


@settings(max_examples=150, deadline=None)
@given(monoid_ideal(), st.sampled_from(KINDS), st.randoms(use_true_random=False),
       st.lists(st.sampled_from(KINDS), min_size=1, max_size=5), st.integers(0, 2 ** 32))
def test_kernel_equals_reference_sums(n, kind, rng, batch_kinds, seed):
    seen = []
    B = _random_fn(rng, kind, seen)
    for got, want in ((nt.n_transform(B, n), _reference_subset_sum(B, n, -1)),
                      (nt.n_plus(B, n), _reference_subset_sum(B, n, 1)),
                      (nt.convolve_omega(B, n), _reference_convolve(B, n))):
        assert got == want and type(got) is type(want)
    for m in seen:   # the kernel builds each m without Ideal.of
        twin = Ideal.of(m.as_dict())
        assert m == twin and hash(m) == hash(twin)
    # the batched call, item by item, against one-item calls on fresh twins
    # of its summands: the same values (type and FormalLog coefficient order
    # included), and each summand meets the same ideals in the same order
    batch_seen = [[] for _ in batch_kinds]
    batch = nt.n_transforms([_random_fn(random.Random(seed + i), k, batch_seen[i])
                             for i, k in enumerate(batch_kinds)], n)
    assert len(batch) == len(batch_kinds)
    for i, k in enumerate(batch_kinds):
        one_seen = []
        want = nt.n_transform(_random_fn(random.Random(seed + i), k, one_seen), n)
        assert batch[i] == want and type(batch[i]) is type(want)
        if isinstance(want, FormalLog):
            assert list(batch[i].coeffs.items()) == list(want.coeffs.items())
        assert batch_seen[i] == one_seen


@settings(max_examples=40, deadline=None)
@given(monoid_ideal(), st.randoms(use_true_random=False))
def test_vanishing_formal_transform_stays_formal(n, rng):
    zero = lambda m: FormalLog.zero()
    for op in (nt.n_transform, nt.n_plus, nt.convolve_omega):
        got = op(zero, n)
        assert isinstance(got, FormalLog) and got.is_zero()
    # every coefficient cancels: the transform of convolve(A) at n is A(n) = 0
    A_rand = _random_fn(rng, "formal")
    A = lambda m: FormalLog.zero() if m == n else A_rand(m)
    got = nt.n_transform(lambda m: nt.convolve_omega(A, m), n)
    assert isinstance(got, FormalLog) and got.is_zero()


# ---------------------------------------------------------------------------
# the closed forms as a per-place Fraction product and a FormalLog bracket,
# literally: the integer products of ntransform must equal them, type included


def _literal_power_exact(x, t, label):
    xt = Fraction(x) ** t.numerator
    if t.denominator == 1:
        return xt
    d = t.denominator
    rn = nt._iroot(xt.numerator, d)
    rd = nt._iroot(xt.denominator, d)
    if rn ** d == xt.numerator and rd ** d == xt.denominator:
        return Fraction(rn, rd)
    raise NonRationalPower(f"norm({label})^{t} is irrational")


def _literal_closed_product(n, t, sign, exact):
    if exact:
        out = _literal_power_exact(n.norm, t, n)
        for p, e in n:
            if e >= 2:
                qpow = _literal_power_exact(p.q, -2 * (1 + t), p.id)
                out *= 1 + sign * (Fraction(p.q, p.q - 1) * qpow if e == 2 else qpow)
        return out
    out_f = float(n.norm) ** float(t)
    for p, e in n:
        if e >= 2:
            qpow = float(p.q) ** float(-2 * (1 + t))
            out_f *= 1 + sign * ((p.q / (p.q - 1)) * qpow if e == 2 else qpow)
    return out_f


def _literal_log_integer(n, coeff):
    out = {}
    for p, e in _factor(n):
        out[f"log@{p}"] = out.get(f"log@{p}", Fraction(0)) + Fraction(coeff) * e
    return FormalLog(0, out)


def _factor(n):
    out, d = [], 2
    while n > 1:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out


def _literal_closed_log(n):
    bracket = FormalLog.zero()
    for p, e in n:
        coeff = Fraction(e)
        if e >= 2:
            coeff += Fraction(2, p.q ** 2 - p.q - 1 if e == 2 else p.q ** 2 - 1)
        bracket = bracket + _literal_log_integer(p.q, coeff)
    return bracket * _literal_closed_product(n, Fraction(0), -1, True)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonRationalPower as exc:
        return f"NonRationalPower: {exc}"


@settings(max_examples=200, deadline=None)
@given(monoid_ideal(), st.sampled_from([Fraction(t) for t in ("-2", "-3/2", "-1", "0", "1/3", "1/2", "1", "2", "3")]))
def test_closed_forms_equal_literal_products(n, t):
    pairs = [(_outcome(nt.closed_power, n, t), _outcome(_literal_closed_product, n, t, -1, True))]
    pairs += [(_outcome(nt.n_plus_closed_power, n, t, exact), _outcome(_literal_closed_product, n, t, 1, exact))
              for exact in (True, False)]
    for got, want in pairs:
        assert got == want and type(got) is type(want)
    got, want = nt.closed_log(n), _literal_closed_log(n)
    assert got == want and type(got) is type(want)
    assert list(got.coeffs) == list(want.coeffs)   # the order evaluate() sums in


# ---------------------------------------------------------------------------
# composite q: log@r canonicalisation where two places share a rational prime


def _composite_grid(qs):
    """Exponents 0..4 at places of the given q, whose ids sort in that order."""
    places = [Prime(name, q) for name, q in zip("abcd", qs)]
    return [Ideal.of(dict(zip(places, exps))) for exps in itertools.product(range(5), repeat=4)]


# q = 3, 4, 8, 9 in two place orders.  In BY_Q the place order is not the
# order of the rational primes 2 and 3; in BY_PRIME (4, 8, 3, 9) it is.
# closed_log emits its symbols in place order and log_norm_fn in ascending
# rational-prime order, so their coefficient orders agree on BY_PRIME only.
BY_Q = _composite_grid((3, 4, 8, 9))
BY_PRIME = _composite_grid((4, 8, 3, 9))


@pytest.mark.parametrize("grid, same_order", [(BY_Q, False), (BY_PRIME, True)], ids=["by-q", "by-prime"])
def test_closed_forms_equal_defining_sums_at_composite_q(grid, same_order):
    for n in grid:
        got, want = nt.closed_log(n), nt.n_transform(nt.log_norm_fn(), n)
        assert got == want, n
        if same_order:
            assert list(got.coeffs) == list(want.coeffs), n
        square = math.isqrt(n.norm) ** 2 == n.norm
        for t in [Fraction(t) for t in (-2, -1, 0, 1, 2)] + ([Fraction(1, 2)] if square else []):
            assert nt.closed_power(n, t) == nt.n_transform(nt.norm_power_fn(t), n), (n, t)


def test_summands_equal_their_definitions_at_composite_q():
    for m in BY_Q:
        for t in (-2, -1, 0, 1, 2):
            got = nt.norm_power_fn(t)(m)
            assert got == Fraction(m.norm) ** t and type(got) is Fraction, (m, t)
        got, want = nt.log_norm_fn()(m), FormalLog.log_integer(m.norm)
        assert got == want and list(got.coeffs.items()) == list(want.coeffs.items()), m
