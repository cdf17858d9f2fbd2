import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rtfverify import ntransform as nt, verify
from rtfverify.errors import InputError, NonRationalPower
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
    got = nt.n_transform(nt.log_norm, Ideal.of({P3: 2}))
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
    assert nt.closed_power(m, 2) == nt.n_plus_closed_power(m, 2) == 36
    for form in (nt.closed_power, nt.n_plus_closed_power):
        with pytest.raises(NonRationalPower):
            form(m, Fraction(1, 2))


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
    assert nt.closed_log(both) == nt.n_transform(nt.log_norm, both)


def test_n_plus_examples():
    n = Ideal.of({P3: 2})
    assert nt.n_plus(nt.one_fn(), n) == Fraction(7, 6)
    assert nt.n_plus(nt.one_fn(), Ideal.of({P3: 1})) == 1
    # dual path at t = -1
    assert nt.n_plus(nt.norm_power_fn(-1), n) == nt.n_plus_closed_power(n, -1) == Fraction(5, 18)


def test_closed_forms_at_t_zero_form_no_norm(monkeypatch):
    # norm(n)^0 is 1, so t = 0 never forms norm(n), whose digits at
    # p^100000000 take seconds to build
    n = Ideal.of({P3: 2, Q2: 3, Prime("r", 5): 1})
    forms = [lambda: nt.closed_power(n, 0), lambda: nt.n_plus_closed_power(n, 0), lambda: nt.closed_log(n)]
    want = [form() for form in forms]

    def no_norm(self):
        raise AssertionError(f"norm({self}) formed")

    monkeypatch.setattr(Ideal, "norm", property(no_norm))
    for form, value in zip(forms, want):
        got = form()
        assert got == value and type(got) is type(value)


def test_non_rational_power():
    with pytest.raises(NonRationalPower):
        nt.closed_power(Ideal.of({P3: 1}), Fraction(1, 2))


def test_root_of_high_order_is_refused_at_once():
    # x < 2^k leaves r = 1, so no Newton step forms r^(k-1) at k = 10^12
    assert nt._iroot(9, 10 ** 12) == nt._iroot(2 ** 64 - 1, 64) == 1
    assert nt._iroot(2 ** 64, 64) == 2 and nt._iroot(3 ** 40, 40) == 3
    with pytest.raises(NonRationalPower, match=r"norm\(p\)\^1/1000000000000 is irrational"):
        nt._power_pair(9, Fraction(1, 10 ** 12), "p")


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
    # the majorant's defining sum on norm^-1/2 stays within the power
    # envelope norm^-1/2 = q^-k as the exponent family grows
    for q in (2, 3, 5):
        p = Prime("p", q)
        for k in range(1, 13):
            n = Ideal.of({p: 2 * k})
            assert nt.n_plus(nt.norm_power_fn(Fraction(-1, 2)), n) * q ** k < 3


def _float_majorant_reference(n, t):
    """The float branch n_plus_closed_power(n, t, exact=False) had, verbatim
    from its body: the closed form of the all-positive majorant on norm^t
    in floats."""
    out_f = 1.0
    if t:
        try:
            norm_f = float(n.norm)
        except OverflowError:   # norm(n) is past the float range; norm^t may not be
            out_f = math.prod(float(p.q) ** (e * float(t)) for p, e in n)
        else:
            out_f = norm_f ** float(t)
    for p, e in n:
        if e >= 2:
            qpow = float(p.q) ** float(-2 * (1 + t))
            out_f *= 1 + ((p.q / (p.q - 1)) * qpow if e == 2 else qpow)
    return out_f


def test_majorant_audit_defining_sums_equal_the_float_closed_form():
    # the 108 (q, c, k) cases of verify's n-plus-closed-and-bounded: the
    # ratios of the defining sum n_plus against those of the float closed form
    eps = Fraction(1, 20)
    got, want = [], []
    for q, c_exp, k in itertools.product(verify.QS, (Fraction(1, 2), Fraction(1), Fraction(2)), range(1, 13)):
        n = Ideal.of({Prime("p", q): 2 * k})
        t = float(-c_exp + eps)
        envelope = n.norm ** float(-min(c_exp, Fraction(1)) + eps)
        got.append(float(nt.n_plus(lambda m: Fraction(float(m.norm) ** t), n)) / envelope)
        want.append(_float_majorant_reference(n, -c_exp + eps) / envelope)
    assert len(got) == 108
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * w, (g, w)
    assert max(got) == max(want)


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
@given(monoid_ideal(), st.sampled_from(KINDS), st.randoms(use_true_random=False))
def test_kernel_equals_reference_sums(n, kind, rng):
    seen = []
    B = _random_fn(rng, kind, seen)
    for got, want in ((nt.n_transform(B, n), _reference_subset_sum(B, n, -1)),
                      (nt.n_plus(B, n), _reference_subset_sum(B, n, 1)),
                      (nt.convolve_omega(B, n), _reference_convolve(B, n))):
        assert got == want and type(got) is type(want)
    for m in seen:   # the kernel builds each m without Ideal.of
        twin = Ideal.of(dict(m))
        assert m == twin and hash(m) == hash(twin)


@st.composite
def box(draw):
    """Up to four places, q prime or not (4, 9), each with exponents
    start, start + 2, ... from start 0 or 1, at most 36 ideals."""
    qs = draw(st.lists(st.sampled_from((2, 3, 4, 5, 7, 9, 11)), min_size=1, max_size=4))
    places, size = [], 1
    for i, q in enumerate(qs):
        start = draw(st.integers(0, 1))
        count = draw(st.integers(1, max(1, min(4, 36 // size))))
        size *= count
        places.append((Prime(f"p{i}", q), range(start, start + 2 * count, 2)))
    return draw(st.permutations(places))


def _box_value(sums, i):
    """The transform at the i-th ideal of one summand's box sums, each
    integer numerator over its denominator reduced to a Fraction, as a
    FormalLog."""
    const = Fraction(sums[None][0][i], sums[None][1])
    return FormalLog(const, {sym: Fraction(vec[i], den) for sym, (vec, den) in sums.items() if sym is not None})


@settings(max_examples=120, deadline=None)
@given(box(), st.lists(st.tuples(st.sampled_from(KINDS + ("zero",)), st.integers(0, 2 ** 32)), min_size=1, max_size=3))
def test_box_transform_equals_the_defining_sums(places, summands):
    Bs = [(lambda m: FormalLog.zero()) if kind == "zero" else _random_fn(random.Random(seed), kind)
          for kind, seed in summands]
    ideals, got = nt.n_transform_box(Bs, places)
    want_ideals = {Ideal.of(dict(zip([p for p, _ in places], exps)))
                   for exps in itertools.product(*[es for _, es in places])}
    assert len(ideals) == len(want_ideals) and set(ideals) == want_ideals
    assert len(got) == len(Bs)
    for B, sums in zip(Bs, got):
        assert all(len(vec) == len(ideals) for vec, _den in sums.values())
        for i, n in enumerate(ideals):
            value = _box_value(sums, i)
            for want in (_reference_subset_sum(B, n, -1), nt.n_transform(B, n)):
                assert value == want


@pytest.mark.parametrize("es", [range(2, 7, 2), range(0, 7), range(1, 1, 2), range(-1, 5, 2)])
def test_box_refuses_exponents_the_sums_leave(es):
    with pytest.raises(InputError, match="steps of 2 from 0 or 1"):
        nt.n_transform_box([nt.one_fn()], [(P3, range(0, 3, 2)), (Q2, es)])


def test_box_refuses_a_place_twice():
    with pytest.raises(InputError, match="distinct places"):
        nt.n_transform_box([nt.one_fn()], [(P3, range(0, 3, 2)), (Prime("p", 5), range(1, 4, 2))])


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


def _literal_closed_form(n, t, sign):
    out = _literal_power_exact(n.norm, t, n)
    for p, e in n:
        if e >= 2:
            qpow = _literal_power_exact(p.q, -2 * (1 + t), p.id)
            out *= 1 + sign * (Fraction(p.q, p.q - 1) * qpow if e == 2 else qpow)
    return out


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
    return bracket * _literal_closed_form(n, Fraction(0), -1)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NonRationalPower as exc:
        return f"NonRationalPower: {exc}"


SWEEP_TS = [Fraction(t) for t in range(-2, 4)] + [Fraction(-3, 2), Fraction(1, 3), Fraction(1, 2)]


def _assert_closed_forms_match(n, ts):
    """closed_power and n_plus_closed_power at each t, and closed_log,
    against the per-place products, in value, type and coefficient order,
    and NonRationalPower messages too; an integral t is also passed as an
    int."""
    for t in ts:
        wants = [_outcome(_literal_closed_form, n, t, sign) for sign in (-1, 1)]
        for arg in ((t, int(t)) if t.denominator == 1 else (t,)):
            gots = [_outcome(form, n, arg) for form in (nt.closed_power, nt.n_plus_closed_power)]
            for got, want in zip(gots, wants):
                assert got == want and type(got) is type(want), (n, arg)
    got, want = nt.closed_log(n), _literal_closed_log(n)
    assert got == want and type(got) is type(want), n
    assert list(got.coeffs) == list(want.coeffs), n   # the order evaluate() sums in


@settings(max_examples=200, deadline=None)
@given(monoid_ideal(), st.sampled_from(SWEEP_TS))
def test_closed_forms_equal_literal_products(n, t):
    _assert_closed_forms_match(n, [t])


# ---------------------------------------------------------------------------
# composite q: log@r canonicalisation where two places share a rational prime


def _composite_grid(qs):
    """Exponents 0..4 at places of the given q, whose ids sort in that order."""
    places = [Prime(name, q) for name, q in zip("abcd", qs)]
    return [Ideal.of(dict(zip(places, exps))) for exps in itertools.product(range(5), repeat=4)]


# q = 3, 4, 8, 9 in two place orders.  In BY_Q the place order is not the
# order of the rational primes 2 and 3; in BY_PRIME (4, 8, 3, 9) it is.
# closed_log emits its symbols in place order and log_norm in ascending
# rational-prime order, so their coefficient orders agree on BY_PRIME only.
BY_Q = _composite_grid((3, 4, 8, 9))
BY_PRIME = _composite_grid((4, 8, 3, 9))


@pytest.mark.parametrize("grid, same_order", [(BY_Q, False), (BY_PRIME, True)], ids=["by-q", "by-prime"])
def test_closed_forms_equal_defining_sums_at_composite_q(grid, same_order):
    for n in grid:
        got, want = nt.closed_log(n), nt.n_transform(nt.log_norm, n)
        assert got == want, n
        if same_order:
            assert list(got.coeffs) == list(want.coeffs), n
        square = math.isqrt(n.norm) ** 2 == n.norm
        for t in [Fraction(t) for t in (-2, -1, 0, 1, 2)] + ([Fraction(1, 2)] if square else []):
            assert nt.closed_power(n, t) == nt.n_transform(nt.norm_power_fn(t), n), (n, t)


# the grid of verify's closed-forms-exhaustive check: exponents 0..6 at q = 2, 3, 5, 7
CHECK_GRID = [Ideal.of(dict(zip([Prime(name, q) for name, q in zip("pqrs", (2, 3, 5, 7))], exps)))
              for exps in itertools.product(range(7), repeat=4)]
def test_place_table_equals_literal_products_on_the_check_grid():
    # every (q, e, t, sign) the table meets here, from an empty table
    nt._place.cache_clear()
    for n in CHECK_GRID + BY_Q + BY_PRIME:
        _assert_closed_forms_match(n, SWEEP_TS)


def test_the_norm_is_refused_before_a_place():
    # t = 1/3: norm(p^2) = 4 is not a cube, and p's factor 2^(-8/3) is irrational
    p, r = Prime("p", 2), Prime("r", 2)
    for form in (nt.closed_power, nt.n_plus_closed_power):
        with pytest.raises(NonRationalPower, match=r"^norm\(p\^2\)\^1/3 is irrational$"):
            form(Ideal.of({p: 2}), Fraction(1, 3))
        # norm(p^3) = 8 is a cube, so p's factor is refused
        with pytest.raises(NonRationalPower, match=r"^norm\(p\)\^-8/3 is irrational$"):
            form(Ideal.of({p: 3}), Fraction(1, 3))
    # one root of the whole norm: sqrt 2 * sqrt 8 = 4, so p r^3 has a rational half power
    n = Ideal.of({p: 1, r: 3})
    assert nt.closed_power(n, Fraction(1, 2)) == nt.n_transform(nt.norm_power_fn(Fraction(1, 2)), n) == Fraction(7, 2)


def test_place_table_is_bounded():
    fn = nt._place
    size = fn.cache_info().maxsize
    fn.cache_clear()
    keys = [(q, e, t, sign) for q in (2, 3, 5, 7) for e in range(7) for t in SWEEP_TS for sign in (-1, 1)]
    assert len(set(keys)) > size
    for key in keys:
        assert fn(*key) == fn.__wrapped__(*key)
    assert fn.cache_info().currsize == size


def test_summands_equal_their_definitions_at_composite_q():
    for m in BY_Q:
        for t in (-2, -1, 0, 1, 2):
            got = nt.norm_power_fn(t)(m)
            assert got == Fraction(m.norm) ** t and type(got) is Fraction, (m, t)
        got, want = nt.log_norm(m), FormalLog.log_integer(m.norm)
        assert got == want and list(got.coeffs.items()) == list(want.coeffs.items()), m
