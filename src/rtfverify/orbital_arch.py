"""Archimedean orbital integrals: Legendre/2F1 closed forms and the
log-weighted half-line integral, each with its quadrature oracle.

The closed form of the log-weighted integral W_+ follows the keyhole-contour
identity  W_+(b) = -pi i J_+(l; b) - A(b) - i B(b).  A and B are exact residue
polynomials in b with rational coefficients against 1, L = log|b/(b+1)|, pi
and pi^2.  J_+ is the same defining integral without the log factor; its
integrand is rational in t, so partial fractions close it exactly in the
basis (1, L, pi) as well.  The whole combination is evaluated at 50 digits
on a private stdlib `decimal` context (again on a more precise one when the
terms cancel to fewer than 20 digits): no quadrature runs, and the thread's
decimal context is neither read nor written.

The oracles integrate the defining integrand
g(t) = (t+i)^-h (t+ci)^-h t^(h-1), h = k/2, c = b/(b+1), by adaptive
Gauss-Kronrod (quadrature.quad_many), with each half line folded onto
(0, 1].  j_arch_quads gives (J^one, J^sgn) for a list of b, with t < 0
folded onto t > 0, and j_plus_quad integrates over t > 0; both carry the
prefactor inside the integrand, so their error checks hold on J itself.
w_plus_quads integrates with the weight log t over t > 0 for a list of b.
A list of b runs in one quad_many call whose integrand reads c at row
`which`.
"""
from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, InputError
from .quadrature import quad_many

DELTA_CUT = 1e-9
_DPS = 50            # the residue sums cancel to ~b^(-l/2); floats cannot
_MIN_DIGITS = 20     # w_plus: digits that must survive cancellation
_MAX_DPS = 2000      # w_plus: refuse rather than evaluate at more digits
_F21_TOL = 1e-14     # gauss_2f1: series truncation tolerance
_F21_TERMS = 4000    # gauss_2f1: the most terms either expansion sums
_F21_SPLIT = 0.7     # gauss_2f1: the series takes |x| <= 0.7; Pfaff or the log expansion the rest
# gauss_2f1: the log expansion's terms cancel more as (k/2)^2 (1-x) grows.
# Against mpmath, up to 8 it is within 1e-11 relative for even k <= 26 and
# 5e-11 up to k = 170; at 49 (k = 26, x = 0.71) it is off by 8e-4.
_F21_LOG_REACH = 8
# gauss_2f1: the series at x < 0 alternates, and its terms cancel more as
# (k/2)|x| grows.  Up to 10 it is within 1.5e-12 relative of mpmath for every
# even k <= 170, which covers all of [-0.7, 0) up to k = 28; at k = 100,
# x = -0.7 it is off by 0.7.
_F21_ALT_REACH = 10
_W_PLUS_QUAD_TOL = 1e-11  # w_plus_quads: absolute and relative tolerance
_J_QUAD_TOL = 1e-13       # absolute and relative tolerance of J in j_arch_quads and of J_+ in j_plus_quad


def _check_weight(name: str, value: int, least: int = 4) -> None:
    if value < least or value % 2:
        raise InputError(f"even {name} >= {least} required, got {name}={value}")


def _check_b(b) -> None:
    if abs(b) < DELTA_CUT or abs(b + 1) < DELTA_CUT:
        raise DomainError(f"b too close to the singular points 0, -1, got b={b}")


def _check_eps(eps: str) -> None:
    if eps not in ("one", "sgn"):
        raise InputError(f"eps must be 'one' or 'sgn', got eps={eps!r}")


def legendre(n: int, x: float) -> float:
    """Legendre polynomial by the standard three-term recurrence."""
    if n < 0:    # an internal invariant: j_arch passes k/2 - 1 and k/2 - 2m, m <= k/4
        raise ValueError("n >= 0 required")
    p0, p1 = 1.0, x
    if n == 0:
        return p0
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1


def gauss_2f1(k: int, x: float) -> float:
    """2F1(k/2, k/2; k; x) for even k >= 4 and real x < 1.

    The direct series takes x in [0, 0.7], and x in [-0.7, 0) where its
    alternating terms keep their digits, (k/2)|x| <= _F21_ALT_REACH; every
    other x < 0 is first mapped into (0, 1) by Pfaff's x -> x/(x-1).  The
    logarithmic 1-x expansion (c = a + b case) takes x > 0.7 where
    (k/2)^2 (1-x) <= _F21_LOG_REACH, and the series the rest of (0.7, 1).
    An x that the series cannot reach in _F21_TERMS terms where the log
    expansion loses digits (from k = 48) is refused.
    """
    _check_weight("k", k)
    if x >= 1 or abs(1 - x) < DELTA_CUT:
        raise DomainError("argument too close to the logarithmic point 1")
    a = k // 2
    if x < -min(_F21_SPLIT, _F21_ALT_REACH / a):   # 2F1(a, a; 2a; x) = (1-x)^(-a) 2F1(a, a; 2a; x/(x-1))
        # (1-x)^(-a) is applied in two halves: it underflows where the product does not
        half, y, z = (1 - x) ** (-k / 4), x / (x - 1), 1 / (1 - x)     # z = 1 - y, without cancellation
    else:
        half, y, z = 1.0, x, 1 - x
    if y > _F21_SPLIT and a ** 2 * z <= _F21_LOG_REACH:
        return half * (half * _f21_log_branch(k, z))
    try:
        return half * (half * _f21_series(k, y))
    except ConvergenceError as exc:
        raise DomainError(f"2F1 at k={k}, x={x}: the series needs more than {_F21_TERMS} terms, and the log "
                          f"expansion loses digits where (k/2)^2 (1-x) > {_F21_LOG_REACH}") from exc


def _f21_series(k: int, x: float) -> float:
    a = k // 2
    term, total = 1.0, 1.0
    for n in range(1, _F21_TERMS):
        term *= (a + n - 1) * (a + n - 1) * x / ((k + n - 1) * n)
        total += term
        # geometric tail bound: ratio of successive terms tends to x
        if abs(term) < _F21_TOL * (1 - abs(x)):
            return total
    raise ConvergenceError("2F1 series failed to meet tolerance")


def _f21_log_branch(k: int, z: float) -> float:
    """2F1(a, a; 2a; 1 - z) for small z > 0 via the standard logarithmic expansion:
    Gamma(2a)/Gamma(a)^2 sum_n ((a)_n)^2/(n!)^2 [2 H_n - 2 H_(a+n-1) - log z] z^n."""
    a = k // 2
    lg = math.log(z)
    pref = math.gamma(k) / math.gamma(a) ** 2
    poch_sq_over_fact_sq = 1.0
    h_n = 0.0
    h_an = sum(1.0 / m for m in range(1, a))  # H_(a-1)
    total = 0.0
    zn = 1.0
    for n in range(0, _F21_TERMS):
        if n > 0:
            poch_sq_over_fact_sq *= ((a + n - 1) / n) ** 2
            zn *= z
            h_n += 1.0 / n
            h_an += 1.0 / (a + n - 1)
        term = poch_sq_over_fact_sq * (2 * h_n - 2 * h_an - lg) * zn
        total += term
        if n > 2 and abs(term) < _F21_TOL * max(1.0, abs(total)) * (1 - z):
            return pref * total
    raise ConvergenceError("2F1 log-branch failed to meet tolerance")


def f21_series_oracle(k: int, x: float) -> tuple[float, float]:
    """Plain 2000-term partial sum with an explicit geometric remainder bound."""
    a = k // 2
    term, total = 1.0, 1.0
    for n in range(1, 2000):
        term *= (a + n - 1) * (a + n - 1) * x / ((k + n - 1) * n)
        total += term
    tail = abs(term) * abs(x) / max(1e-300, 1 - abs(x))
    return total, tail


# ---------------------------------------------------------------------------
# the J integrals


def j_arch(k: int, b: float, eps: str) -> complex:
    """J^eps(k; b) for eps in  "one", "sgn": the two displayed case formulas.

    For b(b+1) > 0 the trivial-character value is
    (1+b)^(-k/2) 2 Gamma(k/2)^2 / Gamma(k) 2F1(k/2, k/2; k; 1/(b+1)) on both
    sides, b > 0 and b < -1.  Where x = 1/(b+1) < -0.7 (-17/7 < b < -1)
    gauss_2f1 would map x by Pfaff to -1/b, and the two powers are taken as
    one: (1+b)^(-k/2) (1-x)^(-k/2) = b^(-k/2), which stays a float next to
    b = -1 where each factor alone leaves the float range.  verify checks
    the parity functional equation J(b) = (-1)^(k/2) J(-b-1) between the two
    sides; from b = -17/7 down (every b for k <= 28), the b < -1 side sums
    the series at x < 0 and its mirror the series at -1/b.
    """
    _check_weight("k", k)
    if k >= 172:
        raise DomainError(f"k < 172 required: Gamma(k) overflows a float from k = 172, got k={k}")
    _check_b(b)
    _check_eps(eps)
    prod = b * (b + 1)
    if eps == "sgn":
        if prod > 0:
            return 0.0
        return 2j * math.pi * legendre(k // 2 - 1, 2 * b + 1)
    if prod < 0:
        val = 2 * math.log(abs((b + 1) / b)) * legendre(k // 2 - 1, 2 * b + 1)
        for m in range(1, k // 4 + 1):
            val -= 8 * (k - 4 * m + 1) / ((2 * m - 1) * (k - 2 * m)) * legendre(k // 2 - 2 * m, 2 * b + 1)
        return complex(val)
    gamma_ratio = 2 * math.gamma(k / 2) ** 2 / math.gamma(k)
    x = 1 / (b + 1)
    if x < -_F21_SPLIT:
        return b ** (-k / 2) * (gamma_ratio * gauss_2f1(k, -1 / b))
    return (1 + b) ** (-k / 2) * (gamma_ratio * gauss_2f1(k, x))


def j_arch_bound_envelope(k: int, b: float, epsilon: float) -> float:
    """(1 + |b|)^(-k/2 + 2 epsilon): the claimed decay envelope for
    |b(b+1)|^epsilon |J(k; b)|."""
    return (1 + abs(b)) ** (-k / 2 + 2 * epsilon)


def _integrands(h: int, bs: Sequence[float]):
    """For each b of bs, pref = i^h (1+b)^-h and g(t) = (t+i)^-h (t+ci)^-h
    t^(h-1), c = b/(b+1): J^sgn(2h; b) = pref int_R g, J^one(2h; b) =
    pref int_R sgn(t) g and J_+(2h; b) = pref int_0^inf g.  Returns the
    prefs and g(t, which), the integrand of bs[which] on each row of t."""
    ic = 1j * np.array([b / (b + 1) for b in bs])

    def g(t: np.ndarray, which: np.ndarray) -> np.ndarray:
        return (t + 1j) ** (-h) * (t + ic[which]) ** (-h) * t ** (h - 1)

    return [1j ** h * (1 + b) ** (-h) for b in bs], g   # negative base, integer power: real


def _half_lines(f, tol: float, names: Sequence[str], floor: float = 1.0) -> list[complex]:
    """int_0^inf f(t, which) dt for each integral which < len(names), by
    quadrature.quad_many, with [1, inf) folded onto (0, 1] by t -> 1/t.
    Each integral is held to its own error estimate, err <= tol max(floor,
    |value|), and a failure is named by its names entry."""
    try:
        results = quad_many(lambda t, which: f(t, which) + f(1 / t, which) / (t * t), [(0.0, 1.0)] * len(names),
                            epsabs=tol * floor, epsrel=tol, limit=200)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{names[exc.which]}: {exc}") from exc
    return [value for value, _err in results]


def j_arch_quads(k: int, bs: Sequence[float]) -> list[tuple[complex, complex]]:
    """Defining-integral oracle for j_arch: (J^one, J^sgn) at each b of bs,
    in order.  The t < 0 half of pref int g is folded onto t > 0, so J^one
    is the half-line integral of pref (g(t) - g(-t)) and J^sgn that of
    pref (g(t) + g(-t)).  All 2 len(bs) integrals run in one quad_many
    call; with the prefactor inside the integrand, each error check,
    err <= tol max(1, |value|), holds on J itself, and each value has the
    bits of a one-item call."""
    _check_weight("k", k)
    for b in bs:
        _check_b(b)
    # integral 2j is J^one at bs[j], integral 2j + 1 J^sgn
    prefs, g = _integrands(k // 2, [b for b in bs for _eps in (0, 1)])
    pref, sign = np.array(prefs), np.array([-1.0, 1.0] * len(bs))
    values = _half_lines(lambda t, which: pref[which] * (g(t, which) + sign[which] * g(-t, which)), _J_QUAD_TOL,
                         [f"J^{eps} at k={k}, b={b}" for b in bs for eps in ("one", "sgn")])
    return list(zip(values[::2], values[1::2]))


# ---------------------------------------------------------------------------
# the log-weighted integral W_+


@dataclass(frozen=True)
class ResidueParts:
    """A(b) and B(b) decomposed over the transcendental basis
    (1, L, L^2, pi^2 | 1, L) with L = log|b/(b+1)|; exact rationals, each a
    reduced Fraction.

    Evaluation runs at elevated precision: the rational coefficients grow
    like binom(l-2, l/2-1) b^(l/2-1) while A, B themselves decay like
    |b|^(-l/2), so float64 would lose everything at large |b|.
    """

    a_const: Fraction
    a_L: Fraction
    a_L2: Fraction
    a_pi2: Fraction
    b_L_over_pi: Fraction
    b_const_over_pi: Fraction


@dataclass(frozen=True)
class JPlusParts:
    """J_+(l; b) = const + log_coeff (L - i pi [b(b+1) < 0]) with
    L = log|b/(b+1)|; exact rationals.  The logarithm comes from the
    order-1 poles alone."""

    const: Fraction
    log_coeff: Fraction


@functools.cache
def _residue_weights(h: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The b-free factors of the residue sums, on integers: (D, rows) with a
    row per k < h of c1 binom(h-1, k) and D times the inner sums over j of
    cj and of cj H_(j-1), where cj = c1 binom(h-1, k+j) (-1)^j / j,
    c1 = binom(h+k-1, k), and D is the lcm of the inner sums' denominators."""
    sums = []
    for k in range(h):
        c1 = comb(h + k - 1, k)
        s = s_h = Fraction(0)
        harmonic = Fraction(0)                  # H_(j-1)
        for j in range(1, h - k):
            cj = c1 * comb(h - 1, k + j) * Fraction((-1) ** j, j)
            s += cj
            s_h += cj * harmonic
            harmonic += Fraction(1, j)
        sums.append((c1 * comb(h - 1, k), s, s_h))
    d = math.lcm(*(x.denominator for _c2, s, s_h in sums for x in (s, s_h)))
    return d, tuple((c2, s.numerator * (d // s.denominator), s_h.numerator * (d // s_h.denominator))
                    for c2, s, s_h in sums)


def residue_parts(l: int, b: Fraction) -> ResidueParts:
    """Exact coefficient assembly of the residue sums A(b), B(b).

    The naive float evaluation of the displayed double sums loses all
    precision for |b| >> 1 (binomial terms up to b^(l/2-1) cancel almost
    completely); assembling the rational coefficients first avoids that.
    With b = u/v and h = l/2, every coefficient is an integer numerator
    over 8 D v^(h-1), D from _residue_weights: b^k and (b+1)^k enter as
    u^k v^(h-1-k) and (u+v)^k v^(h-1-k).  One Fraction is built per
    coefficient.
    """
    _check_weight("l", l)
    h = l // 2
    u, v = b.numerator, b.denominator
    t = 1 if u * (u + v) < 0 else 3       # theta(b) = t pi / 2: pi/2 where b(b+1) < 0, else 3 pi/2
    d, rows = _residue_weights(h)
    # the sums over k of c2, s and s_h against b^k (bk) and (-1)^(k+h) (b+1)^k (b1k), times v^(h-1)
    c2_bk = c2_b1k = s_bk = s_b1k = sh_bk = sh_b1k = 0
    uk, wk, vpow = 1, -1 if h % 2 else 1, [v ** i for i in range(h)]
    for k, (c2, s, s_h) in enumerate(rows):
        bk, b1k = uk * vpow[h - 1 - k], wk * vpow[h - 1 - k]
        c2_bk += c2 * bk
        c2_b1k += c2 * b1k
        s_bk += s * bk
        s_b1k += s * b1k
        sh_bk += s_h * bk
        sh_b1k += s_h * b1k
        uk *= u
        wk *= -(u + v)
    den = 8 * d * vpow[h - 1]
    # per k, with the weight c2: A gets b^k L^2/2 - theta^2 b^k/2 - 9 pi^2 (-1)^(k+h) (b+1)^k/8 and
    # B/pi gets b^k L theta/pi; with the inner sums: A gets s_h (b^k + (-1)^(k+h) (b+1)^k) - s b^k L,
    # and B/pi gets -s (3 (-1)^(k+h) (b+1)^k/2 + b^k theta/pi)
    return ResidueParts(Fraction(8 * (sh_bk + sh_b1k), den), Fraction(-8 * s_bk, den),
                        Fraction(4 * d * c2_bk, den), Fraction(-d * (t * t * c2_bk + 9 * c2_b1k), den),
                        Fraction(4 * t * d * c2_bk, den), Fraction(-4 * (3 * s_b1k + t * s_bk), den))


def _laurent_sum(h: int, k: int, x: Fraction) -> Fraction:
    """P_k(x) = sum_(n <= h-k) binom(h-1, h-k-n) binom(h+n-1, n) x^n, by
    Horner's rule on the integers p, q of x = p/q."""
    p, q = x.numerator, x.denominator
    num, qpow = 0, 1
    for n in range(h - k, -1, -1):
        num = num * p + comb(h - 1, h - k - n) * comb(h + n - 1, n) * qpow
        qpow *= q
    return Fraction(num, qpow // q)


def j_plus_parts(l: int, b: Fraction) -> JPlusParts:
    """Exact partial-fraction assembly of
    J_+(l; b) = i^h (1+b)^-h int_0^inf t^(h-1) (t+i)^-h (t+ci)^-h dt,
    h = l/2, c = b/(b+1).

    With u = t+i, v = t+ci and d = i/(b+1) (so t+ci = u-d, t+i = v+d), the
    integrand is sum_k alpha_k u^-k + beta_k v^-k, Gaussian rationals in b
    with beta_1 = -alpha_1.  An order k >= 2 pole integrates to
    alpha_k i^(1-k)/(k-1) + beta_k (ci)^(1-k)/(k-1); with the prefactor this
    is (-1)^(k-1)/(k-1) [P_k(b) + (-1)^h P_k(-1-b)] (see _laurent_sum).  The
    order-1 pair integrates to alpha_1 (log(ci) - log(i)) = alpha_1 (L - i pi
    [c < 0]), and the prefactor turns alpha_1 into -P_1(b).
    """
    _check_weight("l", l)
    _check_b(b)
    h = l // 2
    sgn = (-1) ** h
    const = sum(Fraction((-1) ** (k - 1), k - 1) * (_laurent_sum(h, k, b) + sgn * _laurent_sum(h, k, -1 - b))
                for k in range(2, h + 1))
    return JPlusParts(const, -_laurent_sum(h, 1, b))


def j_plus_quad(l: int, b: float) -> complex:
    """J_+(l; b) by adaptive Gauss-Kronrod of its defining integral: the
    oracle for j_plus_parts.  The prefactor pref = i^(l/2) (1+b)^(-l/2)
    sits inside the integrand, so the error check holds on J_+ itself:
    err <= tol max(min(1, |pref|), |J_+|).  Next to b = -1, where |pref|
    is large, that is tol max(1, |J_+|), as in j_arch_quads; where |pref|
    < 1 (|1+b| > 1) J_+ decays like |b|^(-l/2), and the absolute part
    is no looser than tol on the integral before the prefactor."""
    _check_b(b)
    (pref,), g = _integrands(l // 2, [b])
    (value,) = _half_lines(lambda t, which: pref * g(t, which), _J_QUAD_TOL, [f"J_+ at l={l}, b={b}"],
                           floor=min(1.0, abs(pref)))
    return value


def w_plus_quads(l: int, bs: Sequence[float]) -> list[complex]:
    """Defining-integral oracle for W_+(b) at each b of bs, in order:
    adaptive Gauss-Kronrod of pref int_0^inf g(t) log t dt.  The integrals
    run together on quadrature.quad_many, one integrand call per refinement
    round for all of them; each keeps its own error check, and its value
    has the bits of a one-item call."""
    _check_weight("l", l, least=6)     # for comfortable decay
    for b in bs:
        _check_b(b)
    prefs, g = _integrands(l // 2, bs)
    values = _half_lines(lambda t, which: g(t, which) * np.log(t), _W_PLUS_QUAD_TOL,
                         [f"W_+ quadrature at l={l}, b={b}" for b in bs])
    return [pref * value for pref, value in zip(prefs, values)]


def w_plus(l: int, b: Fraction) -> complex:
    """Closed-form W_+(b) = -pi i J_+(l; b) - A(b) - i B(b).  J_+, A and B
    are exact rational combinations of 1, L = log|b/(b+1)| and pi at the
    same rational b, evaluated together at 50 digits on a private decimal
    context; no quadrature runs.

    The terms cancel by about |b|^(l-1).  When fewer than _MIN_DIGITS of
    the 50 survive that, the sum is evaluated again with enough digits.  At
    b = -1/2 W_+ vanishes identically, so there is no relative precision to
    gain.
    """
    jp = j_plus_parts(l, b)
    parts = residue_parts(l, b)
    dps = _DPS
    while True:
        with decimal.localcontext(decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_EVEN)):
            re, im = _w_plus_sum(jp, parts, b, dps)
            value = complex(float(re), float(im))
            if b == Fraction(-1, 2):
                return value
            lost = _cancelled_digits(jp, parts, b, re, im, dps)
        if dps - lost >= _MIN_DIGITS:
            return value
        if dps >= _MAX_DPS:
            raise ConvergenceError(f"w_plus(l={l}, b={b}): {lost:.0f} of {dps} digits "
                                   f"lost to cancellation")
        # 5 spare digits: a pass that lost nearly all of them misjudges |W_+|
        dps = min(_MAX_DPS, max(dps, math.ceil(lost)) + _MIN_DIGITS + 5)


def _w_plus_sum(jp: JPlusParts, parts: ResidueParts, b: Fraction, dps: int) -> tuple[Decimal, Decimal]:
    """Re and Im of -pi i J_+ - A - i B on the current decimal context:
    Re W = -(A + K pi^2 [b(b+1) < 0]) and Im W = -(pi (C + K L) + B), with
    J_+ = C + K (L - i pi [b(b+1) < 0])."""
    def dec(x: Fraction) -> Decimal:
        return Decimal(x.numerator) / x.denominator

    L = dec(abs(b / (b + 1))).ln()
    pi = _pi(dps)
    pi2 = pi * pi
    A = dec(parts.a_const) + dec(parts.a_L) * L + dec(parts.a_L2) * L * L + dec(parts.a_pi2) * pi2
    B = (dec(parts.b_L_over_pi) * L + dec(parts.b_const_over_pi)) * pi
    K = dec(jp.log_coeff)
    re = -(A + K * pi2) if b * (b + 1) < 0 else -A
    return re, -(pi * (dec(jp.const) + K * L) + B)


@functools.lru_cache(maxsize=8)
def _pi(dps: int) -> Decimal:
    """pi to dps digits: Machin's pi = 16 atan(1/5) - 4 atan(1/239) on
    integers scaled by 10^(dps + 10).  The floor divisions err by at most 16
    units per term, far inside the 10 guard digits."""
    unit = 10 ** (dps + 10)

    def atan_inv(x: int) -> int:    # unit atan(1/x)
        total = term = unit // x
        n, sign = 1, 1
        while term:
            term //= x * x
            n += 2
            sign = -sign
            total += sign * (term // n)
        return total

    return decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_EVEN).divide(
        16 * atan_inv(5) - 4 * atan_inv(239), unit)


def _cancelled_digits(jp: JPlusParts, parts: ResidueParts, b: Fraction, re: Decimal, im: Decimal,
                      dps: int) -> float:
    """Decimal digits of w_plus's sum lost to cancellation: log10 of its
    largest |coefficient x basis value| over |W_+| (all of them when the sum
    came out 0)."""
    if not (re or im):
        return dps
    L = abs(math.log(abs(b / (b + 1))))
    log_c = math.hypot(L, math.pi) if b * (b + 1) < 0 else L
    terms = ((jp.const, math.pi), (jp.log_coeff, math.pi * log_c),
             (parts.a_const, 1.0), (parts.a_L, L), (parts.a_L2, L * L), (parts.a_pi2, math.pi ** 2),
             (parts.b_L_over_pi, math.pi * L), (parts.b_const_over_pi, math.pi))
    largest = max(math.log10(abs(c.numerator)) - math.log10(c.denominator) + math.log10(m)
                  for c, m in terms if c and m)
    size = abs(complex(float(re), float(im)))      # 0 only on float underflow
    return largest - (math.log10(size) if size else float((re * re + im * im).sqrt().log10()))
