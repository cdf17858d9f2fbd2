"""Archimedean orbital integrals: the J integrals as Legendre functions and
the log-weighted half-line integral, each with its quadrature oracle.

J^one(k; b) is 4 Q_(k/2-1)(2b+1) and J^sgn(k; b) is 2 pi i P_(k/2-1)(2b+1)
on the cut -1 < b < 0.  j_arch returns the pair from one run of a
three-term recurrence, forward or, where Q is the minimal solution and a
forward run would lose digits, backward by Miller's algorithm.

The closed form of the log-weighted integral W_+ follows the keyhole-contour
identity  W_+(b) = -pi i J_+(l; b) - A(b) - i B(b).  A and B are exact residue
polynomials in b with rational coefficients against 1, L = log|b/(b+1)|, pi
and pi^2.  J_+ is the same defining integral without the log factor; its
integrand is rational in t, so partial fractions close it exactly in the
basis (1, L, pi) as well.  The whole combination is evaluated at 50 digits,
or off the cut at as many as a lower bound of |W_+| says the terms need, on
a private stdlib `decimal` context (again on a more precise one when they
cancel to fewer than 20 digits): no quadrature runs, and the thread's
decimal context is neither read nor written.

The oracles integrate the defining integrand g(t) = (t+i)^-h (t+ci)^-h
t^(h-1), h = k/2, c = b/(b+1), times its prefactor pref = i^h (1+b)^-h, by
adaptive Gauss-Kronrod (quadrature.quad_many) with each half line folded
onto (0, 1] and split at fixed break points: j_arch_quads for (J^one,
J^sgn), j_plus_quad for J_+, and w_plus_quads, with the weight log t, for
W_+.  Off the cut (c > 0) the half line turns onto the ray t = i s, where
the prefactor cancels and the integrand has one sign; each value there is
held relative, err <= tol |value|.  On the cut the real-axis integral
stays, |pref| > 1, and each value is held to err <= tol max(1, |value|).
A list of b runs in one quad_many call per side of the cut, whose
integrand reads its b at row `which`.
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
_FORWARD_LOSS = 1e3      # _legendre_q: the most a forward run off the cut may lose
_MILLER_TOL = 1e-18      # _legendre_q: the error of the backward run's start, relative
_W_PLUS_QUAD_TOL = 1e-11  # w_plus_quads: the tol of _half_lines' error rule on W_+
_J_QUAD_TOL = 1e-13       # j_arch_quads and j_plus_quad: the same on J and on J_+


def _check_weight(name: str, value: int, least: int = 4) -> None:
    if value < least or value % 2:
        raise InputError(f"even {name} >= {least} required, got {name}={value}")


def _check_b(b) -> None:
    if not (abs(b) >= DELTA_CUT and abs(b + 1) >= DELTA_CUT):
        raise DomainError(f"b too close to the singular points 0, -1, got b={b}")


def _legendre_q(n: int, b: float) -> complex:
    """Q_n(x - i0) at x = 2b + 1, n >= 1, from below the cut -1 < x < 1:
    Q_n(x) off the cut, and Ferrers' Q_n(x) + i pi/2 P_n(x) on it (DLMF
    14.23).  4 Q_(k/2-1)(2b + 1 - i0) is J^one(k; b) + J^sgn(k; b).

    P_n and Q_n obey the one recurrence (m+1) f_(m+1) = (2m+1) x f_m -
    m f_(m-1) (DLMF 14.10), from P_0 = 1 and Q_0 = log|(b+1)/b| / 2.  Q_0
    is taken from b, not from x: x - 1 cancels next to b = 0, and the
    ratio (b+1)/b rounds next to 1 at large |b|, where log1p(1/b) does not.
    On the cut P and Q are of one size, and a forward run gives both.  Off
    it, Q_n(-x) = (-1)^(n+1) Q_n(x) takes x to |x|, where Q_n is the
    minimal solution: it decays like rho^(-n), rho = |x| + sqrt(x^2 - 1),
    while P_n grows like rho^n, so a forward run loses about rho^(2n)
    (Gil, Segura and Temme, Numerical Methods for Special Functions, ch. 4).
    Up to _FORWARD_LOSS the forward run stands.  Past it, Miller's backward
    run gives the ratios Q_m / Q_(m-1) from m = N down, started at 0 where
    rho^(-2(N-n)) < _MILLER_TOL; a run of ratios rescales at every step, so
    none overflows, and Q_n is Q_0 times the ratios up to n.  No Gamma
    function and no power of 1 + b appear: nothing overflows, and Q_n
    underflows only where its value does.
    """
    on_cut = b * (b + 1) < 0
    if on_cut:
        x, q0, sign = 2 * b + 1, 0.5 * math.log((b + 1) / -b), 1
    else:
        c = b if b > 0 else -1 - b          # |x| = 2c + 1
        x, q0, sign = 2 * c + 1, 0.5 * math.log1p(1 / c), 1 if b > 0 else (-1) ** (n + 1)
    if on_cut or 2 * n * math.acosh(x) <= math.log(_FORWARD_LOSS):
        p0, p1, q1 = 1.0, x, x * q0 - 1
        for m in range(1, n):
            p0, p1 = p1, ((2 * m + 1) * x * p1 - m * p0) / (m + 1)
            q0, q1 = q1, ((2 * m + 1) * x * q1 - m * q0) / (m + 1)
        return complex(q1, math.pi / 2 * p1) if on_cut else complex(sign * q1)
    top = n + math.ceil(-math.log(_MILLER_TOL) / (2 * math.acosh(x)))
    ratio, q = 0.0, q0
    for m in range(top, 0, -1):
        ratio = m / ((2 * m + 1) * x - (m + 1) * ratio)
        if m <= n:
            q *= ratio
    return complex(sign * q)


# ---------------------------------------------------------------------------
# the J integrals


def j_arch(k: int, b: float) -> tuple[complex, complex]:
    """(J^one(k; b), J^sgn(k; b)), the two displayed case formulas, from one
    run of _legendre_q at n = k/2 - 1, x = 2b + 1: J^one = 4 Q_n(x) on every
    side of the cut, Ferrers' Q_n on -1 < b < 0 (for b(b+1) > 0 the displayed
    (1+b)^(-k/2) 2 Gamma(k/2)^2 / Gamma(k) 2F1(k/2, k/2; k; 1/(b+1))), and
    J^sgn = 2 pi i P_n(x) on the cut, 0 off it."""
    _check_weight("k", k)
    _check_b(b)
    q = _legendre_q(k // 2 - 1, b)
    return complex(4 * q.real), 1j * (4 * q.imag)


def j_arch_bound_envelope(k: int, b: float, epsilon: float) -> float:
    """(1 + |b|)^(-k/2 + 2 epsilon): the claimed decay envelope for
    |b(b+1)|^epsilon |J(k; b)|."""
    return (1 + abs(b)) ** (-k / 2 + 2 * epsilon)


_BREAKS = (0.0, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)   # the first panels of (0, 1]


def _half_lines(f, bs: Sequence[float], epsabs: float, tol: float, name) -> list:
    """int_0^inf f(t, which) dt for each b = bs[which], by quad_many from the
    panels _BREAKS with [1, inf) folded onto (0, 1] by t -> 1/t, each held
    to err <= max(epsabs, tol |integral|): relative off the cut (epsabs =
    0), tol max(1, |integral|) on it (epsabs = tol).  name(b) names a
    failure."""
    try:
        results = quad_many(lambda t, which: f(t, which) + f(1 / t, which) / (t * t), [_BREAKS] * len(bs),
                            epsabs=epsabs, epsrel=tol, limit=200)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{name(bs[exc.which])}: {exc}") from exc
    return [value for value, _err in results]


def _quads(h: int, bs: Sequence[float], tol: float, name, ray, cut) -> list[complex]:
    """A half-line integral of pref g at each b of bs, in order: pref = i^h
    (1+b)^-h, g(t) = (t+i)^-h (t+ci)^-h t^(h-1), c = b/(b+1).  Off the cut
    (c > 0) both poles, -i and -ci, lie below 0, so [0, inf) turns onto the
    ray t = i s, where pref g dt = w(s) ds, w(s) = s^(h-1) (1+s)^-h ((1+b)s
    + b)^-h, of one sign: the value is int ray(w, s) ds (0 if ray is None),
    held relative.  With a = 1 + b for b > 0 and b for b < -1, w = a^-h
    (s/d)^(h-1) / d, d = (1+s)(p s + q), p = (1+b)/a and q = b/a in (0, 1],
    so s/d <= 1, nothing overflows, and a^-h underflows only where the
    value does.  On the cut the value is int cut(g, t, which) dt on the real
    axis, held to err <= tol max(1, |value|), and |pref| > 1; a pref past the
    float range is refused, naming b by name(b).  Each side is one batch;
    each value has the bits of a one-item call."""
    for b in bs:
        _check_b(b)
    off = [b * (b + 1) > 0 for b in bs]
    on_ray = [b for b, o in zip(bs, off) if o and ray]
    on_cut = [b for b, o in zip(bs, off) if not o]
    a = [1 + b if b > 0 else b for b in on_ray]
    p = np.array([(1 + b) / x for b, x in zip(on_ray, a)])
    q = np.array([b / x for b, x in zip(on_ray, a)])
    try:
        pref = np.array([1j ** h * (1 + b) ** (-h) for b in on_cut])
    except OverflowError:
        b = min(on_cut, key=lambda b: abs(1 + b))       # the largest |pref|
        raise DomainError(f"{name(b)}: the prefactor (1+b)^(-{h}) is past the float range") from None
    ic = 1j * np.array([b / (b + 1) for b in on_cut])

    def w(s: np.ndarray, which: np.ndarray) -> np.ndarray:
        d = (1 + s) * (p[which] * s + q[which])
        return ray((s / d) ** (h - 1) / d, s)

    def g(t: np.ndarray, which: np.ndarray) -> np.ndarray:
        return pref[which] * (t + 1j) ** (-h) * (t + ic[which]) ** (-h) * t ** (h - 1)

    ray_values = iter(complex(x ** -h * v) for x, v in zip(a, _half_lines(w, on_ray, 0.0, tol, name)))
    cut_values = iter(_half_lines(lambda t, which: cut(g, t, which), on_cut, tol, tol, name))
    return [(next(ray_values) if ray else 0j) if o else next(cut_values) for o in off]


def j_arch_quads(k: int, bs: Sequence[float]) -> list[tuple[complex, complex]]:
    """Defining-integral oracle for j_arch: (J^one, J^sgn) at each b of bs,
    in order, by _quads.  Off the cut J^one = 2 J_+ is the ray integral of
    2 w, held relative, and J^sgn is 0 by the same contour shift, not
    integrated.  On the cut, with t < 0 folded onto t > 0, J^one is the
    integral of pref (g(t) - g(-t)) and J^sgn that of pref (g(t) + g(-t)),
    each held to err <= tol max(1, |J|)."""
    _check_weight("k", k)
    ones = _quads(k // 2, bs, _J_QUAD_TOL, lambda b: f"J^one at k={k}, b={b}", lambda w, s: 2 * w,
                  lambda g, t, which: g(t, which) - g(-t, which))
    sgns = _quads(k // 2, bs, _J_QUAD_TOL, lambda b: f"J^sgn at k={k}, b={b}", None,
                  lambda g, t, which: g(t, which) + g(-t, which))
    return list(zip(ones, sgns))


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


@functools.cache
def _laurent_weights(h: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The b-free factors of j_plus_parts, on integers: (d, e, f) with d =
    lcm(1, ..., h-1), e the coefficients of d sum_(k>=2) (-1)^(k-1)/(k-1) P_k
    and f those of P_1, P_k(x) = sum_(n <= h-k) binom(h-1, h-k-n) binom(h+n-1, n) x^n."""
    d = math.lcm(*range(1, h))
    e = tuple(comb(h + n - 1, n) * sum((-1) ** (k - 1) * (d // (k - 1)) * comb(h - 1, h - k - n)
                                       for k in range(2, h - n + 1)) for n in range(h - 1))
    return d, e, tuple(comb(h - 1, h - 1 - n) * comb(h + n - 1, n) for n in range(h))


def j_plus_parts(l: int, b: Fraction) -> JPlusParts:
    """Exact partial-fraction assembly of
    J_+(l; b) = i^h (1+b)^-h int_0^inf t^(h-1) (t+i)^-h (t+ci)^-h dt,
    h = l/2, c = b/(b+1).

    With u = t+i, v = t+ci and d = i/(b+1) (so t+ci = u-d, t+i = v+d), the
    integrand is sum_k alpha_k u^-k + beta_k v^-k, Gaussian rationals in b
    with beta_1 = -alpha_1.  An order k >= 2 pole integrates to
    alpha_k i^(1-k)/(k-1) + beta_k (ci)^(1-k)/(k-1); with the prefactor this
    is (-1)^(k-1)/(k-1) [P_k(b) + (-1)^h P_k(-1-b)] (see _laurent_weights).
    The order-1 pair integrates to alpha_1 (log(ci) - log(i)) = alpha_1 (L -
    i pi [c < 0]), and the prefactor turns alpha_1 into -P_1(b).  With b =
    u/v both parts are integer numerators over d v^(h-2) and v^(h-1), as in
    residue_parts: one Fraction is built per part.
    """
    _check_weight("l", l)
    _check_b(b)
    h = l // 2
    u, v = b.numerator, b.denominator
    d, e, f = _laurent_weights(h)
    # b^n = u^n v^-n and (-1-b)^n = (-u-v)^n v^-n
    const = sum(c * (u ** n + (-1) ** h * (-u - v) ** n) * v ** (h - 2 - n) for n, c in enumerate(e))
    log = sum(c * u ** n * v ** (h - 1 - n) for n, c in enumerate(f))
    return JPlusParts(Fraction(const, d * v ** (h - 2)), Fraction(-log, v ** (h - 1)))


def j_plus_quad(l: int, b: float) -> complex:
    """J_+(l; b) by adaptive Gauss-Kronrod of its defining integral
    (_quads): the oracle for j_plus_parts."""
    (value,) = _quads(l // 2, [b], _J_QUAD_TOL, lambda b: f"J_+ at l={l}, b={b}", lambda w, s: w,
                      lambda g, t, which: g(t, which))
    return value


def w_plus_quads(l: int, bs: Sequence[float]) -> list[complex]:
    """Defining-integral oracle for W_+(b) at each b of bs, in order:
    adaptive Gauss-Kronrod of pref int_0^inf g(t) log t dt (_quads), held
    relative off the cut, where log t = log s + i pi/2 on the ray, and to
    err <= tol max(1, |W_+|) on it.  The integrals of each side run together
    on quadrature.quad_many, one integrand call per round for all of them."""
    _check_weight("l", l, least=6)     # for comfortable decay
    return _quads(l // 2, bs, _W_PLUS_QUAD_TOL, lambda b: f"W_+ quadrature at l={l}, b={b}",
                  lambda w, s: w * (np.log(s) + 0.5j * math.pi), lambda g, t, which: g(t, which) * np.log(t))


def w_plus(l: int, b: Fraction) -> complex:
    """Closed-form W_+(b) = -pi i J_+(l; b) - A(b) - i B(b).  J_+, A and B
    are exact rational combinations of 1, L = log|b/(b+1)| and pi at the
    same rational b, evaluated together at 50 digits or more on a private
    decimal context; no quadrature runs.

    The terms cancel by about |b|^(l-1).  Off the cut the first pass has
    the digits that a lower bound of |W_+| says they lose: |W_+| >= |Im W_+|
    = pi/2 |J_+| >= pi/2 B(h, h) max(|b|, |1+b|)^(-h), h = l/2, as |(1+b)s
    + b| <= max(|b|, |1+b|) (1+s) on the ray (see _quads).  When fewer than
    _MIN_DIGITS survive a pass, the sum is evaluated again with enough
    digits.  At b = -1/2 W_+ vanishes identically, so there is no relative
    precision to gain.  Every test of b reads the integers of b = u/v: the
    side of the cut is the sign of u(u+v), b = -1/2 is (u, v) = (-1, 2), and
    max(|b|, |1+b|) is max(|u|, |u+v|)/v in lowest terms.
    """
    jp = j_plus_parts(l, b)
    parts = residue_parts(l, b)
    largest = _largest_term(jp, parts, b)
    dps, u, v = _DPS, b.numerator, b.denominator
    if u * (u + v) > 0:
        h = l // 2
        least = (math.log10(math.pi / 2) + (2 * math.lgamma(h) - math.lgamma(2 * h)) / math.log(10)
                 - h * (math.log10(max(abs(u), abs(u + v))) - math.log10(v)))
        dps = min(_MAX_DPS, max(dps, math.ceil(largest - least) + _MIN_DIGITS))
    while True:
        with decimal.localcontext(decimal.Context(prec=dps, rounding=decimal.ROUND_HALF_EVEN)):
            re, im = _w_plus_sum(jp, parts, b, dps)
            value = complex(float(re), float(im))
            if (u, v) == (-1, 2):
                return value
            lost = _cancelled_digits(largest, re, im, dps)
        if dps - lost >= _MIN_DIGITS:
            return value
        if dps >= _MAX_DPS:
            raise ConvergenceError(f"w_plus(l={l}, b={b}): {lost:.0f} of {dps} digits "
                                   f"lost to cancellation")
        # 5 spare digits: a pass that lost nearly all of them misjudges |W_+|;
        # one that lost all of them (a sum of 0 or of noise) at least doubles
        step = max(dps, math.ceil(lost)) + _MIN_DIGITS + 5
        dps = min(_MAX_DPS, max(step, 2 * dps) if lost >= dps else step)


def _w_plus_sum(jp: JPlusParts, parts: ResidueParts, b: Fraction, dps: int) -> tuple[Decimal, Decimal]:
    """Re and Im of -pi i J_+ - A - i B on the current decimal context:
    Re W = -(A + K pi^2 [b(b+1) < 0]) and Im W = -(pi (C + K L) + B), with
    J_+ = C + K (L - i pi [b(b+1) < 0])."""
    def dec(x: Fraction) -> Decimal:
        return Decimal(x.numerator) / x.denominator

    L = _log_ratio(b, dps)
    pi = _pi(dps)
    pi2 = pi * pi
    A = dec(parts.a_const) + dec(parts.a_L) * L + dec(parts.a_L2) * L * L + dec(parts.a_pi2) * pi2
    B = (dec(parts.b_L_over_pi) * L + dec(parts.b_const_over_pi)) * pi
    K = dec(jp.log_coeff)
    re = -(A + K * pi2) if b.numerator * (b.numerator + b.denominator) < 0 else -A
    return re, -(pi * (dec(jp.const) + K * L) + B)


def _ratio(b: Fraction) -> tuple[int, int]:
    """|b/(b+1)| as (numerator, denominator) in lowest terms: |u| and |u+v|
    for b = u/v."""
    u, v = b.numerator, b.denominator
    return abs(u), abs(u + v)


def _log_ratio(b: Fraction, dps: int) -> Decimal:
    """L = log|b/(b+1)| = -log|1 + 1/b| to dps digits relative.  Where the
    ratio r is near 1 (|b| large, or b near -1/2), r rounded to dps digits
    keeps only about dps + log10|r - 1| of L's digits, so r and its log are
    formed with -log10|r - 1| more, and two guard digits."""
    num, den = _ratio(b)
    if num == den:
        return Decimal(0)
    extra = max(0, math.ceil(math.log10(den) - math.log10(abs(num - den)))) + 2
    ctx = decimal.Context(prec=dps + extra, rounding=decimal.ROUND_HALF_EVEN)
    return ctx.ln(ctx.divide(num, den))


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


def _largest_term(jp: JPlusParts, parts: ResidueParts, b: Fraction) -> float:
    """log10 of the largest |coefficient x basis value| of w_plus's sum."""
    num, den = _ratio(b)
    L = abs(math.log1p((num - den) / den))     # from r - 1: r itself rounds to 1 for |b| >~ 1e16
    log_c = math.hypot(L, math.pi) if b.numerator * (b.numerator + b.denominator) < 0 else L
    terms = ((jp.const, math.pi), (jp.log_coeff, math.pi * log_c),
             (parts.a_const, 1.0), (parts.a_L, L), (parts.a_L2, L * L), (parts.a_pi2, math.pi ** 2),
             (parts.b_L_over_pi, math.pi * L), (parts.b_const_over_pi, math.pi))
    return max(math.log10(abs(c.numerator)) - math.log10(c.denominator) + math.log10(m) for c, m in terms if c and m)


def _cancelled_digits(largest: float, re: Decimal, im: Decimal, dps: int) -> float:
    """Decimal digits of w_plus's sum lost to cancellation: its largest
    term's log10 over |W_+| (all of them when the sum came out 0)."""
    if not (re or im):
        return dps
    size = math.hypot(float(re), float(im))
    if 0 < size < math.inf:
        return largest - math.log10(size)
    square = re * re + im * im          # |W_+| under- or overflows a float: read its exponent
    return largest - (square.adjusted() + math.log10(float(square.scaleb(-square.adjusted())))) / 2
