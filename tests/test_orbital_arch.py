import dataclasses
import decimal
import functools
import importlib.util
import math
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _reference import reference
from rtfverify import orbital_arch as oa, quadrature
from rtfverify.errors import ConvergenceError, DomainError, InputError, RTFError

# the pairs of the arch.w-plus-closed-vs-quadrature check
SUITE_PAIRS = [(l, b) for l in (6, 8, 10) for b in (Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 2),
                                                    Fraction(-3), Fraction(2), Fraction(10))]
# large |b| and l up to 12, the range of the rtf arch queries
WIDE_BS = (Fraction(-120, 7), Fraction(113, 11), Fraction(119), Fraction(-1, 12))


def _query_pairs(n: int, seed: int) -> list[tuple[int, Fraction]]:
    """Pairs drawn like the arch queries: l in {6,...,12}, b = +-(1..120)/(1..12)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 120), rng.randint(1, 12))
        if b != -1:
            out.append((rng.choice((6, 8, 10, 12)), b))
    return out


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _exact_parts_at(ctx, l: int, b: Fraction, which: int):
    """J_+ (which = 0) or W_+ = -pi i J_+ - A - i B (which = 1) from their
    exact parts, evaluated on the mpmath context ctx."""
    def q(x: Fraction):
        return ctx.mpf(x.numerator) / x.denominator

    jp, parts = oa.j_plus_parts(l, b), oa.residue_parts(l, b)
    L, pi, i = ctx.log(abs(q(b / (b + 1)))), +ctx.pi, ctx.mpc(0, 1)
    j = q(jp.const) + q(jp.log_coeff) * (L - (i * pi if b * (b + 1) < 0 else 0))
    a = q(parts.a_const) + q(parts.a_L) * L + q(parts.a_L2) * L * L + q(parts.a_pi2) * pi * pi
    b_ = (q(parts.b_L_over_pi) * L + q(parts.b_const_over_pi)) * pi
    return -i * pi * j - a - i * b_ if which else j


def _exact_parts_on_mpmath(l: int, b: Fraction, which: int) -> complex:
    """J_+ (which = 0) or W_+ (which = 1) from their exact parts: a reference
    that shares no evaluation code with w_plus, and checks its own digits.
    At (26, 119) the terms cancel to J_+ = 1.4597e-35, which 50 and 60 digits
    give as -8.0e-21 and -1.5e-31."""
    return complex(reference(_exact_parts_at, l, b, which, rtol=1e-15))


# The J^one reference: 4 Q_n(x), n = k/2 - 1, x = 2b + 1, by two standard
# forms of Q_n, neither of them a recurrence.  Where |x| >= 3 it is the
# series in 1/x^2 (DLMF 14.3), whose terms are all of one sign.
# Elsewhere it is Q_n = P_n Q_0 - W_(n-1), W_(n-1) = sum_(m=1..n) P_(m-1)
# P_(n-m) / m, with every P_m summed exactly from the explicit
# P_m(2b+1) = sum_j binom(m, j) binom(m+j, j) b^j; there the two terms
# cancel by at most about 10^130, which the reference's doubling absorbs.
J_REF_RTOL = 1e-25


@functools.cache
def _p_numerators(b: float, top: int) -> tuple[tuple[int, ...], int]:
    """(d^m P_m(2b+1) for m <= top) and d, where b = u/d: exact integers.
    One table serves every degree up to top."""
    u, d = b.as_integer_ratio()
    u_pow, d_pow = [u ** j for j in range(top + 1)], [d ** j for j in range(top + 1)]
    return tuple(sum(math.comb(m, j) * math.comb(m + j, j) * u_pow[j] * d_pow[m - j] for j in range(m + 1))
                 for m in range(top + 1)), d


def _j_one_at(ctx, k: int, b: float, top: int):
    """J^one(k; b) on the mpmath context ctx, for k/2 - 1 <= top."""
    n = k // 2 - 1
    x = 2 * ctx.mpf(b) + 1
    if abs(x) >= 3:
        scale = ctx.mpf(math.factorial(n) * math.factorial(n + 1) * 2 ** (n + 1)) / math.factorial(2 * n + 2)
        half = ctx.mpf(1) / 2
        return 4 * scale / x ** (n + 1) * ctx.hyp2f1(n / 2 + half, n / 2 + 1, n + 3 * half, 1 / x ** 2)
    a, d = _p_numerators(b, top)
    lcm = math.lcm(*range(1, n + 1))
    w = sum(a[m - 1] * a[n - m] * (lcm // m) for m in range(1, n + 1))
    q0 = ctx.log(abs((1 + ctx.mpf(b)) / b)) / 2
    return 4 * (ctx.mpf(a[n]) / d ** n * q0 - ctx.mpf(w) / (lcm * d ** (n - 1)))


def _assert_j_arch_meets_the_reference(k: int, bs, top: int) -> None:
    """j_arch(k, b) for each b of bs within 1e-11 relative of the
    reference, J^one by _j_one_at and J^sgn = 2 pi i P_n(2b+1) from the
    exact P_n on the cut.  Where J is below the normal floats the bound is
    1e-11 of the least normal float: j_arch underflows with it."""
    for b in bs:
        a, d = _p_numerators(b, top)
        n = k // 2 - 1
        want = {"one": complex(reference(_j_one_at, k, b, top, rtol=J_REF_RTOL)),
                "sgn": 2j * math.pi * (a[n] / d ** n) if b * (b + 1) < 0 else 0}
        for (eps, value), got in zip(want.items(), oa.j_arch(k, b)):
            assert abs(got - value) <= 1e-11 * max(abs(value), sys.float_info.min), (k, b, eps, got, value)


# Every even k up to 170, and b on the cut and on both sides of it: 1.5e-9
# and 1e-8 from 0 and 2e-9 from -1 on either side, and |b| up to 1e6.  At
# b = -1/2, J^one (k/2 odd) or J^sgn (k/2 even) is exactly 0, where no
# relative bound holds; test_j_arch_examples takes that point.
J_SWEEP_BS = (1.5e-9, 1e-8, 1e-6, 1e-3, 0.1, 0.4141701729754739, 1.0, 3.7, 20.0, 1e3, 1e6,
              -1.5e-9, -1e-8, -1e-6, -0.01, -0.3, -0.55, -0.77, -0.999, -1 + 1e-6, -1 + 2e-9,
              -1 - 2e-9, -1 - 5e-7, -1.0001, -1.3, -2.5, -17.0, -1e4, -1e6)


def test_j_arch_sweep_against_the_reference():
    for k in range(4, 172, 2):
        _assert_j_arch_meets_the_reference(k, J_SWEEP_BS, 170 // 2 - 1)


def test_j_arch_past_the_gamma_range_meets_the_reference():
    # Gamma(k) leaves the floats from k = 172; j_arch uses none
    for k in (172, 400):
        _assert_j_arch_meets_the_reference(k, (2.0, -0.3, -7.5), k // 2 - 1)


def _case_formula_at(ctx, k: int, b: float):
    """The paper's case formula for J^one at b(b+1) > 0,
    (1+b)^(-k/2) 2 Gamma(k/2)^2 / Gamma(k) 2F1(k/2, k/2; k; 1/(b+1)), on
    the mpmath context ctx."""
    bm = ctx.mpf(b)
    return (1 + bm) ** (-k // 2) * 2 * ctx.gamma(k // 2) ** 2 / ctx.gamma(k) * ctx.hyp2f1(k // 2, k // 2, k, 1 / (1 + bm))


def _j_one_2f1(k: int, b: float) -> float:
    """The case formula by the self-checking reference, from 25 digits
    (hyp2f1 at 100 digits takes up to 70 ms next to z = 1): the 2F1 form
    that j_arch's Legendre Q form is held to."""
    return float(reference(_case_formula_at, k, b, rtol=1e-20, start=25))


def test_legendre_values():
    # J^sgn(k; b) = 2 pi i P_(k/2-1)(2b+1) on the cut
    for n in range(1, 6):
        for x in np.linspace(-1, 1, 11)[1:-1]:
            b = (float(x) - 1) / 2
            want = 2 * math.pi * float(mp.legendre(n, x))
            assert oa.j_arch(2 * n + 2, b)[1] == pytest.approx(1j * want, abs=1e-13)


@pytest.mark.parametrize("x", [-0.9, -0.4, 0.1, 0.45, 0.6, 0.85, 0.97, -3.5, -40.0])
@pytest.mark.parametrize("k", [4, 6, 10])
def test_2f1_against_mpmath(k, x):
    # J^one at b = 1/x - 1, where the 2F1 of the case formula is at x
    b = 1 / x - 1
    assert oa.j_arch(k, b)[0].real == pytest.approx(_j_one_2f1(k, b), rel=1e-11, abs=0)


# b = 1/x - 1 for x across (0.7, 1), next to b = 0, and for b < -1
F21_SWEEP_X = ([0.7 + 0.3 * i / 60 for i in range(1, 60)] + [1 - 10.0 ** -e for e in range(2, 9)]
               + [1 / (b + 1) for b in (-1 - 1.01e-9, -1 - 1e-6, -1.001, -1.05, -1.2, -1.4141701729754739,
                                        -1.7, -2.0, -2.5, -3.3, -5.0, -12.0, -100.0, -1e4)])


@pytest.mark.parametrize("k", range(4, 28, 2))
def test_2f1_sweep_against_mpmath(k):
    worst = max((abs(oa.j_arch(k, 1 / x - 1)[0].real / _j_one_2f1(k, 1 / x - 1) - 1), x) for x in F21_SWEEP_X)
    assert worst[0] <= 1e-10, worst


def test_j_arch_next_to_minus_one_at_large_k():
    # the case formula's (1+b)^(-k/2) and its 2F1 at 1/(1+b) each leave the
    # float range here, and J does not.  One ulp of b moves J by about 1e-8
    # relative this close to -1.
    for k, b in ((80, 1 / -5e8 - 1), (170, -1 - 2e-9), (100, -1 - 5e-7), (170, -1.0001)):
        assert oa.j_arch(k, b)[0].real == pytest.approx(_j_one_2f1(k, b), rel=1e-9, abs=0)


def test_j_arch_examples():
    assert oa.j_arch(6, 2.0)[1] == 0.0
    assert oa.j_arch(4, -0.5) == (-4.0, 0.0)   # 4 Q_1(0) and 2 pi i P_1(0)
    one, sgn = oa.j_arch(6, -0.5)
    assert one == 0.0   # 4 Q_2(0)
    assert abs(sgn + 1j * math.pi) < 1e-14   # 2 pi i P_2(0) = -pi i


def test_j_arch_domain_guard():
    with pytest.raises(DomainError):
        oa.j_arch(6, 1e-12)
    with pytest.raises(DomainError):
        oa.j_arch(6, -1.0 + 1e-12)
    # a NaN b is refused by name, before any float conversion or quadrature meets it
    for call in (lambda: oa.j_arch(4, math.nan), lambda: oa.j_arch_quads(6, [2.0, math.nan]),
                 lambda: oa.j_plus_quad(6, math.nan), lambda: oa.w_plus_quads(6, [math.nan])):
        with pytest.raises(DomainError, match=r"singular points 0, -1, got b=nan$"):
            call()


@pytest.mark.parametrize("b", [0.0, -1.0, 1e-12])
@pytest.mark.parametrize("call", [
    lambda b: oa.j_arch(6, b), lambda b: oa.j_arch_quads(6, [2.0, b]),
    lambda b: oa.j_plus_parts(6, Fraction(b)), lambda b: oa.j_plus_quad(6, b),
    lambda b: oa.w_plus_quads(6, [2.0, b]),
])
def test_b_guard_names_b(call, b):
    with pytest.raises(DomainError, match=r"singular points 0, -1, got b=-?[0-9.e/-]+$"):
        call(b)


def test_weight_guards_name_their_value():
    for call, got in ((lambda: oa.j_arch(2, 2.0), "k=2"),
                      (lambda: oa.j_arch_quads(7, [2.0]), "k=7"), (lambda: oa.residue_parts(3, Fraction(2)), "l=3"),
                      (lambda: oa.j_plus_parts(5, Fraction(2)), "l=5"), (lambda: oa.w_plus_quads(4, [2.0]), "l=4")):
        with pytest.raises(InputError, match=f"required, got {got}$"):
            call()


@pytest.mark.parametrize("call, name", [(oa.j_arch_quads, "J^one at k=170"),
                                        (oa.w_plus_quads, "W_+ quadrature at l=170")])
def test_prefactor_past_the_float_range_names_b(call, name):
    # (1 + b)^(-85) at b = -1 + 1e-6 is 1e510
    with pytest.raises(DomainError, match=rf"^{re.escape(name)}, b=-0\.999999: the prefactor \(1\+b\)\^\(-85\) "
                                          r"is past the float range$"):
        call(170, [-1 + 1e-6])


def test_j_arch_quads_holds_its_tolerance_on_j():
    # next to b = -1 at k = 26 the prefactor (1+b)^(-13) is up to 1e26: the
    # error check holds on J itself, not on the integral before it
    bs = [-1.2, -1.05, -1.01, 0.4141701729754739, -1.4141701729754739]
    for b, quads in zip(bs, oa.j_arch_quads(26, bs)):
        for eps, quad, closed in zip(("one", "sgn"), quads, oa.j_arch(26, b)):
            assert abs(quad - closed) <= 1e-9 * (abs(closed) if closed else 1.0), (b, eps, quad, closed)


def test_j_arch_quads_bit_identical_to_one_item_calls():
    bs = [-0.7, 0.2, 4.0, -1.2, -10.0, -1.01]
    for k in (4, 10, 26):
        batched = [(_bits(one), _bits(sgn)) for one, sgn in oa.j_arch_quads(k, bs)]
        assert batched == [(_bits(one), _bits(sgn)) for b in bs for one, sgn in oa.j_arch_quads(k, [b])]


def test_j_functional_equation():
    # J(b) = (-1)^(k/2) J(-b-1): b < -1 against its mirror b > 0, the sign
    # that j_arch takes from the parity of Q
    for k in (4, 6, 8):
        for b in (-1.3, -2.0, -5.0, -100.0):
            mirror = (-1) ** (k // 2) * oa.j_arch(k, -b - 1)[0]
            assert abs(oa.j_arch(k, b)[0] - mirror) <= 1e-10 * max(1.0, abs(mirror))


def test_j_decay_envelope():
    eps = 0.1
    for k in (6, 8):
        for b in (-500.0, -7.0, -0.7, -0.2, 0.3, 40.0, 800.0):
            val = abs(b * (b + 1)) ** eps * abs(oa.j_arch(k, b)[0])
            assert val <= 50 * oa.j_arch_bound_envelope(k, b, eps)


def test_w_plus_vs_quadrature():
    for l, b in ((6, Fraction(1)), (6, Fraction(-1, 2)), (8, Fraction(2)), (10, Fraction(10))):
        closed = oa.w_plus(l, b)
        (quad,) = oa.w_plus_quads(l, [float(b)])
        assert abs(closed - quad) <= max(1e-6 * abs(quad), 1e-11)


@pytest.mark.parametrize("l", [6, 8, 10, 12])
def test_w_plus_at_large_b_vs_quadrature(l):
    # the arch check's relative tolerance; none of these b is the zero at -1/2
    for b in WIDE_BS:
        closed = oa.w_plus(l, b)
        (quad,) = oa.w_plus_quads(l, [float(b)])
        assert abs(closed - quad) <= 1e-6 * abs(quad), (l, b)


@pytest.mark.parametrize("l", [6, 8, 10, 12, 26])
def test_j_plus_parts_vs_quadrature(l):
    for b in (Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 2), Fraction(-3), Fraction(2), Fraction(10),
              *WIDE_BS):
        closed = _exact_parts_on_mpmath(l, b, 0)
        quad = oa.j_plus_quad(l, float(b))
        assert abs(closed - quad) <= 1e-12 * abs(quad), (l, b, closed, quad)


@pytest.mark.parametrize("l, b", [(12, Fraction(-101, 100)), (20, Fraction(-21, 20)), (26, Fraction(-21, 20))])
def test_j_plus_quad_holds_its_tolerance_next_to_minus_one(l, b):
    # the prefactor (1+b)^(-l/2) is 10^12 to 20^13 here; the oracle's error
    # check, 1e-13 max(1, |J_+|), holds on J_+ itself, and |J_+| < 1
    want = _exact_parts_on_mpmath(l, b, 0)
    assert abs(oa.j_plus_quad(l, float(b)) - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("l, b", [(12, Fraction(-99, 100)), (14, Fraction(-92, 93)), (26, Fraction(-4519, 4988))])
def test_w_plus_quads_holds_its_tolerance_next_to_minus_one(l, b):
    # the prefactor (1+b)^(-l/2) is 10^12 to 6e13 here; the oracle's error
    # check, 1e-11 max(1, |W_+|), holds on W_+ itself, not on the integral
    # before the prefactor
    want = oa.w_plus(l, b)
    (quad,) = oa.w_plus_quads(l, [float(b)])
    assert abs(quad - want) <= 1e-9 * abs(want)


def test_quadrature_oracles_where_the_prefactor_underflows():
    # (1+b)^(-13) underflows to 0 at |b| = 1e300: each oracle returns the
    # value 0 that floats hold, with no division by the prefactor's size
    assert oa.w_plus_quads(26, [1e300]) == [0j]
    assert oa.j_plus_quad(26, 1e300) == 0j
    assert oa.j_arch_quads(26, [1e300, -1e300]) == [(0j, 0j), (0j, 0j)]


def test_w_plus_quads_where_w_plus_underflows():
    # W_+ is about 1e-754 at (26, 1e58): the ray integral's scale (1 + b)^(-13)
    # underflows with it, and the relative rule never sees the value
    assert oa.w_plus_quads(26, [1e58]) == [0j]


def _off_cut_draws(n: int, seed: int) -> list[tuple[int, float]]:
    """n (l, b) off the cut: even l from 6 to 26, and b = x or -1 - x with x
    from 1 to 1e6 or from 1e-8 to 1e-3, each side and size in turn."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x = 10 ** rng.uniform(-8, -3) if i % 2 else 10 ** rng.uniform(0, 6)
        out.append((2 * rng.randint(3, 13), x if i % 4 < 2 else -1 - x))
    return out


def test_ray_oracles_meet_the_closed_forms_off_the_cut():
    # J^sgn is 0 there by the contour shift, and J^one and W_+ are held relative
    for l, b in _off_cut_draws(120, seed=31):
        want = oa.w_plus(l, Fraction(b))
        (quad,) = oa.w_plus_quads(l, [b])
        assert abs(quad - want) <= 1e-12 * abs(want), (l, b, quad, want)
        ((one, sgn),) = oa.j_arch_quads(l, [b])
        closed = oa.j_arch(l, b)[0]
        assert sgn == 0 and abs(one - closed) <= 1e-12 * abs(closed), (l, b, one, closed)


def _query_arch_pairs(seed: int, n: int = 400) -> list[tuple[int, Fraction]]:
    """The (l, b) of the first n draws of the benchmark's arch query generator,
    perfbench/workloads.py's _arch, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)      # its dataclasses look their module up by name
    rng = random.Random(seed)
    argvs = [workloads._arch(rng) for _ in range(n)]      # ["arch", "--l", l, "--b=" + b, ...]
    return [(int(argv[2]), Fraction(argv[3].removeprefix("--b="))) for argv in argvs]


def test_w_plus_quads_takes_few_rounds_on_the_queries(monkeypatch):
    # each one-item call starts from the fixed break points, and off the cut
    # the one-signed ray integrand meets its relative rule at once
    rounds = []
    panels = quadrature._panels
    monkeypatch.setattr(quadrature, "_panels", lambda *args: rounds.append(1) or panels(*args))
    pairs = _query_arch_pairs(seed=7)
    for l, b in pairs:
        oa.w_plus_quads(l, [float(b)])
    assert len(rounds) / len(pairs) <= 1.5


def test_j_plus_parts_exact_example():
    # l = 6, b = 1: J_+ = -9 - 13 log(1/2), with no pi term since b(b+1) > 0
    assert oa.j_plus_parts(6, Fraction(1)) == oa.JPlusParts(Fraction(-9), Fraction(-13))
    with pytest.raises(DomainError):
        oa.j_plus_parts(6, Fraction(-1))


def test_w_plus_is_quadrature_free(monkeypatch):
    want = {(l, b): oa.w_plus(l, b) for l, b in SUITE_PAIRS[:6] + [(12, b) for b in WIDE_BS]}

    def refuse(*args, **kwargs):
        raise AssertionError("quadrature called")

    monkeypatch.setattr(oa, "j_plus_quad", refuse)
    monkeypatch.setattr(oa, "quad_many", refuse)
    monkeypatch.setattr(quadrature, "quad_many", refuse)
    for (l, b), w in want.items():
        assert _bits(oa.w_plus(l, b)) == _bits(w)


def test_w_plus_bit_identical_under_threads():
    pairs = SUITE_PAIRS + _query_pairs(40, seed=4)
    ctx = decimal.getcontext()
    prec, rounding = ctx.prec, ctx.rounding
    serial = [_bits(oa.w_plus(l, b)) for l, b in pairs]
    work = pairs * 4
    random.Random(5).shuffle(work)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # interleave the threads as finely as the interpreter allows
    try:
        with ThreadPoolExecutor(8) as pool:
            threaded = list(pool.map(lambda p: (p, _bits(oa.w_plus(*p))), work, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    want = dict(zip(pairs, serial))
    assert [p for p, bits in threaded if bits != want[p]] == []
    assert decimal.getcontext() is ctx and (ctx.prec, ctx.rounding) == (prec, rounding)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((6, 8, 10, 12)), st.integers(-120, 120).filter(lambda n: n != 0), st.integers(1, 12))
def test_w_plus_ignores_global_precision(l, num, den):
    b = Fraction(num, den)
    assume(b != -1)
    results = set()
    for prec, rounding in ((15, decimal.ROUND_HALF_EVEN), (30, decimal.ROUND_FLOOR), (80, decimal.ROUND_UP)):
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding = prec, rounding
            ctx.clear_flags()
            results.add(_bits(oa.w_plus(l, b)))
            # neither replaced, changed nor used for arithmetic
            assert decimal.getcontext() is ctx and (ctx.prec, ctx.rounding) == (prec, rounding)
            assert not any(ctx.flags.values())
    assert len(results) == 1


@pytest.mark.parametrize("l, b", [(12, Fraction(10 ** 4)), (16, Fraction(1000)), (20, Fraction(120)),
                                  (14, Fraction(-2000, 3))])
def test_w_plus_keeps_precision_at_large_b_and_l(l, b):
    # 50 digits lose 46 to 51 of them to cancellation here
    want = _exact_parts_on_mpmath(l, b, 1)
    assert abs(oa.w_plus(l, b) - want) <= 1e-12 * abs(want)


def test_w_plus_refuses_past_the_digit_cap(monkeypatch):
    # (16, 1000) needs about 76 digits
    monkeypatch.setattr(oa, "_MAX_DPS", 60)
    with pytest.raises(ConvergenceError, match=r"w_plus\(l=16, b=1000\)"):
        oa.w_plus(16, Fraction(1000))


@pytest.mark.parametrize("l", [6, 12, 26])
def test_w_plus_at_huge_b_meets_its_quadrature(l):
    # L = log|b/(b+1)| is about -1/b here, and the terms cancel by about
    # b^(l-1): L must keep the digits that rounding the ratio would lose.
    # Where W_+ is below the normal floats both sides underflow with it, so
    # the bound is 1e-9 of the least normal float there.
    for e in range(20, 59):
        b = Fraction(10 ** e)
        try:
            closed = oa.w_plus(l, b)
        except RTFError as exc:
            assert f"l={l}, b={b}" in str(exc), exc
            continue
        (quad,) = oa.w_plus_quads(l, [float(b)])
        assert abs(closed - quad) <= 1e-9 * max(abs(quad), sys.float_info.min), (l, b, closed, quad)


def test_w_plus_query_inputs_stay_at_50_digits(monkeypatch):
    # the arch check and query inputs keep enough digits: no re-evaluation
    pairs = SUITE_PAIRS + [(12, b) for b in WIDE_BS] + _query_pairs(60, seed=9) + [(12, Fraction(-120))]
    want = {p: _bits(oa.w_plus(*p)) for p in pairs}
    digits = []
    one_pass = oa._w_plus_sum

    def counted(jp, parts, b, dps):
        digits.append(dps)
        return one_pass(jp, parts, b, dps)

    monkeypatch.setattr(oa, "_w_plus_sum", counted)
    assert {p: _bits(oa.w_plus(*p)) for p in pairs} == want
    assert digits == [50] * len(pairs)


def test_w_plus_sizes_its_first_pass_at_huge_b(monkeypatch):
    # the terms cancel by about b^(l-1) here; a lower bound of |W_+| sizes
    # the first pass, so no pass is spent on digits that cannot survive
    digits = []
    one_pass = oa._w_plus_sum
    monkeypatch.setattr(oa, "_w_plus_sum", lambda jp, parts, b, dps: digits.append(dps) or one_pass(jp, parts, b, dps))
    for l in (6, 12, 26):
        for e in range(20, 59):
            digits.clear()
            oa.w_plus(l, Fraction(10 ** e))
            assert 1 <= len(digits) <= 2, (l, e, digits)


def test_w_plus_quad_regression_pins():
    # frozen from the oracle itself (mpmath cross-checked)
    (val,) = oa.w_plus_quads(6, [1.0])
    assert val.real == pytest.approx(-0.0037822779485555, abs=1e-12)
    assert val.imag == pytest.approx(0.0171426458193443, abs=1e-12)
    jp = oa.j_plus_quad(6, 1.0)
    assert complex(jp).real == pytest.approx(0.0109133472792890, abs=1e-12)
    assert abs(complex(jp).imag) < 1e-12


def test_w_plus_zero_at_minus_half():
    # t -> 1/t symmetry kills the log weight there
    assert abs(oa.w_plus_quads(6, [-0.5])[0]) < 1e-12
    assert abs(oa.w_plus(8, Fraction(-1, 2))) < 1e-20


def test_residue_parts_exactness():
    parts = oa.residue_parts(6, Fraction(10))
    # the coefficients are exact rationals; the assembled values are finite
    assert isinstance(parts.a_L2, Fraction)
    assert math.isfinite(abs(_exact_parts_on_mpmath(6, Fraction(10), 1)))


# residue_parts runs on integers; it must equal, field by field in value and
# type, the Fraction arithmetic it replaced, kept here as a literal copy


@functools.cache
def _fraction_residue_weights(h):
    out = []
    for k in range(h):
        c1 = math.comb(h + k - 1, k)
        s = s_h = Fraction(0)
        harmonic = Fraction(0)
        for j in range(1, h - k):
            cj = c1 * math.comb(h - 1, k + j) * Fraction((-1) ** j, j)
            s += cj
            s_h += cj * harmonic
            harmonic += Fraction(1, j)
        out.append((c1 * math.comb(h - 1, k), s, s_h))
    return tuple(out)


def _fraction_residue_parts(l, b):
    h = l // 2
    th_is_half = b * (b + 1) < 0
    th_over_pi = Fraction(1, 2) if th_is_half else Fraction(3, 2)
    a_const = Fraction(0)
    a_L = Fraction(0)
    a_L2 = Fraction(0)
    a_pi2 = Fraction(0)
    b_L = Fraction(0)
    b_const = Fraction(0)
    bk = b1k = Fraction(1)
    for k, (c2, s, s_h) in enumerate(_fraction_residue_weights(h)):
        sgn_b1k = b1k if (k + h) % 2 == 0 else -b1k
        a_L2 += c2 * bk / 2
        a_pi2 += -c2 * th_over_pi ** 2 * bk / 2 - Fraction(9, 8) * c2 * sgn_b1k
        b_L += c2 * bk * th_over_pi
        a_const += s_h * (bk + sgn_b1k)
        a_L += -s * bk
        b_const += -s * (Fraction(3, 2) * sgn_b1k + bk * th_over_pi)
        bk *= b
        b1k *= b + 1
    return oa.ResidueParts(a_const, a_L, a_L2, a_pi2, b_L, b_const)


_small = st.fractions(min_value=-1, max_value=1, max_denominator=10 ** 4).filter(bool).map(lambda x: x / 1000)
residue_bs = st.one_of(_small.map(lambda x: x - 1), _small, st.just(Fraction(-1, 2)),
                       st.fractions(min_value=-10 ** 4, max_value=10 ** 4, max_denominator=50))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 85).map(lambda h: 2 * h), residue_bs)
def test_residue_parts_equal_their_fraction_form(l, b):
    assume(b != 0 and b != -1)
    got, want = oa.residue_parts(l, b), _fraction_residue_parts(l, b)
    assert got == want
    assert all(type(getattr(got, f.name)) is Fraction for f in dataclasses.fields(got))


# j_plus_parts runs on integers; it must equal the Fraction arithmetic it
# replaced, kept here as a literal copy


def _fraction_laurent_sum(h, k, x):
    p, q = x.numerator, x.denominator
    num, qpow = 0, 1
    for n in range(h - k, -1, -1):
        num = num * p + math.comb(h - 1, h - k - n) * math.comb(h + n - 1, n) * qpow
        qpow *= q
    return Fraction(num, qpow // q)


def _fraction_j_plus_parts(l, b):
    h = l // 2
    sgn = (-1) ** h
    const = sum(Fraction((-1) ** (k - 1), k - 1) * (_fraction_laurent_sum(h, k, b) + sgn * _fraction_laurent_sum(h, k, -1 - b))
                for k in range(2, h + 1))
    return oa.JPlusParts(const, -_fraction_laurent_sum(h, 1, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 85).map(lambda h: 2 * h), residue_bs)
def test_j_plus_parts_equal_their_fraction_form(l, b):
    assume(b != 0 and b != -1)
    got = oa.j_plus_parts(l, b)
    assert got == _fraction_j_plus_parts(l, b)
    assert type(got.const) is Fraction and type(got.log_coeff) is Fraction


def test_j_plus_parts_equal_their_fraction_form_on_the_queries():
    for l, b in _query_arch_pairs(seed=7) + [(26, Fraction(10 ** 40)), (170, Fraction(13, 5))]:
        assert oa.j_plus_parts(l, b) == _fraction_j_plus_parts(l, b), (l, b)


@pytest.mark.parametrize("dps", [1, 15, 50, 51, 76, 500, 2000])
def test_pi_helper_is_pi_rounded_to_dps_digits(dps):
    ctx = mp.MPContext()
    ctx.dps = dps + 20
    want = decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_EVEN).create_decimal(ctx.nstr(+ctx.pi, dps + 20))
    assert oa._pi(dps) == want
