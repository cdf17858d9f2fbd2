"""Archimedean orbital integrals: Legendre/2F1 closed forms and the
log-weighted half-line integral with its quadrature oracle.

The closed form of the log-weighted integral W_+ follows the keyhole-contour
identity  W_+(b) = -pi i J_+(l; b) - A(b) - i B(b):  A and B are exact residue
polynomials in b with rational coefficients against 1, log|b/(b+1)|, pi and
pi^2, while J_+ is the same defining integral without the log factor and is
evaluated by quadrature (no closed form for it is assumed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath as mp
import numpy as np
from scipy import integrate

from .errors import ConvergenceError, DomainError

DELTA_CUT = 1e-9
_RESIDUE_DPS = 50   # the residue sums cancel to ~b^(-l/2); floats cannot


def legendre(n: int, x: float) -> float:
    """Legendre polynomial by the standard three-term recurrence."""
    if n < 0:
        raise ValueError("n >= 0 required")
    p0, p1 = 1.0, x
    if n == 0:
        return p0
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1


def gauss_2f1(k: int, x: float, tol: float = 1e-14) -> float:
    """2F1(k/2, k/2; k; x) for even k >= 4 and real x < 1.

    Branches: direct series for |x| <= 0.7; the logarithmic 1-x expansion
    (c = a + b case) for x in (0.7, 1); Pfaff x -> x/(x-1) for x < -0.7.
    The 0.7 split keeps both expansions out of their slow, cancellation-prone
    overlap zone.
    """
    if k < 4 or k % 2:
        raise ValueError("even k >= 4 required")
    if x >= 1 or abs(1 - x) < DELTA_CUT:
        raise DomainError("argument too close to the logarithmic point 1")
    if abs(x) <= 0.7:
        return _f21_series(k, x, tol)
    if x > 0.7:
        return _f21_log_branch(k, x, tol)
    y = x / (x - 1)  # in (0, 1) for x < 0
    inner = _f21_series(k, y, tol) if y <= 0.7 else _f21_log_branch(k, y, tol)
    return (1 - x) ** (-k / 2) * inner


def _f21_series(k: int, x: float, tol: float) -> float:
    a = k // 2
    term, total = 1.0, 1.0
    for n in range(1, 4000):
        term *= (a + n - 1) * (a + n - 1) * x / ((k + n - 1) * n)
        total += term
        # geometric tail bound: ratio of successive terms tends to x
        if abs(term) < tol * (1 - abs(x)):
            return total
    raise ConvergenceError("2F1 series failed to meet tolerance")


def _f21_log_branch(k: int, x: float, tol: float) -> float:
    """2F1(a, a; 2a; x) near x = 1 via the standard logarithmic expansion:
    Gamma(2a)/Gamma(a)^2 sum_n ((a)_n)^2/(n!)^2 [2 H_n - 2 H_(a+n-1) - log(1-x)] (1-x)^n."""
    a = k // 2
    z = 1 - x
    lg = math.log(z)
    pref = math.gamma(k) / math.gamma(a) ** 2
    poch_sq_over_fact_sq = 1.0
    h_n = 0.0
    h_an = sum(1.0 / m for m in range(1, a))  # H_(a-1)
    total = 0.0
    zn = 1.0
    for n in range(0, 4000):
        if n > 0:
            poch_sq_over_fact_sq *= ((a + n - 1) / n) ** 2
            zn *= z
            h_n += 1.0 / n
            h_an += 1.0 / (a + n - 1)
        term = poch_sq_over_fact_sq * (2 * h_n - 2 * h_an - lg) * zn
        total += term
        if n > 2 and abs(term) < tol * max(1.0, abs(total)) * (1 - z):
            return pref * total
    raise ConvergenceError("2F1 log-branch failed to meet tolerance")


def f21_series_oracle(k: int, x: float, nterms: int = 2000) -> tuple[float, float]:
    """Plain partial sum with an explicit geometric remainder bound."""
    a = k // 2
    term, total = 1.0, 1.0
    for n in range(1, nterms):
        term *= (a + n - 1) * (a + n - 1) * x / ((k + n - 1) * n)
        total += term
    tail = abs(term) * abs(x) / max(1e-300, 1 - abs(x))
    return total, tail


# ---------------------------------------------------------------------------
# the J integrals


def j_arch(k: int, b: float, eps: str = "one", use_functional_equation: bool = True) -> complex:
    """J^eps(k; b) for eps in  "one", "sgn": the two displayed case formulas.

    For b(b+1) > 0 with b < -1 the trivial-character value is routed through
    the parity functional equation J(b) = (-1)^(k/2) J(-b-1) by default.
    """
    if k < 4 or k % 2:
        raise ValueError("even k >= 4 required")
    if abs(b) < DELTA_CUT or abs(b + 1) < DELTA_CUT:
        raise DomainError("b too close to the singular points 0, -1")
    if eps not in ("one", "sgn"):
        raise ValueError("eps must be 'one' or 'sgn'")
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
    if b < -1 and use_functional_equation:
        return (-1) ** (k // 2) * j_arch(k, -b - 1, eps, use_functional_equation=False)
    return (1 + b) ** (-k / 2) * 2 * math.gamma(k / 2) ** 2 / math.gamma(k) * gauss_2f1(k, 1 / (b + 1))


def j_arch_bound_envelope(k: int, b: float, epsilon: float) -> float:
    """(1 + |b|)^(-k/2 + 2 epsilon): the claimed decay envelope for
    |b(b+1)|^epsilon |J(k; b)|."""
    return (1 + abs(b)) ** (-k / 2 + 2 * epsilon)


# ---------------------------------------------------------------------------
# the log-weighted integral W_+


def theta_of_b(b: float) -> float:
    """Branch angle of the residue point: pi/2 on b(b+1) < 0, else 3 pi/2."""
    return math.pi / 2 if b * (b + 1) < 0 else 3 * math.pi / 2


@dataclass(frozen=True)
class ResidueParts:
    """A(b) and B(b) decomposed over the transcendental basis
    (1, L, L^2, pi^2 | 1, L) with L = log|b/(b+1)|; exact rationals.

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

    def _L(self, b: Fraction) -> "mp.mpf":
        return mp.log(abs(mp.mpf(b.numerator) / b.denominator
                          / (mp.mpf(b.numerator) / b.denominator + 1)))

    def a_value(self, b: Fraction) -> "mp.mpf":
        with mp.workdps(_RESIDUE_DPS):
            L = self._L(b)
            return (_mpq(self.a_const) + _mpq(self.a_L) * L + _mpq(self.a_L2) * L * L
                    + _mpq(self.a_pi2) * mp.pi ** 2)

    def b_value(self, b: Fraction) -> "mp.mpf":
        with mp.workdps(_RESIDUE_DPS):
            L = self._L(b)
            return (_mpq(self.b_L_over_pi) * L + _mpq(self.b_const_over_pi)) * mp.pi


def _mpq(x: Fraction) -> "mp.mpf":
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def residue_parts(l: int, b: Fraction) -> ResidueParts:
    """Exact coefficient assembly of the residue sums A(b), B(b).

    The naive float evaluation of the displayed double sums loses all
    precision for |b| >> 1 (binomial terms up to b^(l/2-1) cancel almost
    completely); assembling the rational coefficients first avoids that.
    """
    if l < 4 or l % 2:
        raise ValueError("even l >= 4 required")
    b = Fraction(b)
    h = l // 2
    th_is_half = b * (b + 1) < 0          # theta(b) = pi/2 else 3 pi/2
    th_over_pi = Fraction(1, 2) if th_is_half else Fraction(3, 2)
    a_const = Fraction(0)
    a_L = Fraction(0)
    a_L2 = Fraction(0)
    a_pi2 = Fraction(0)
    b_L = Fraction(0)
    b_const = Fraction(0)
    for k in range(h):
        c1 = Fraction(comb(h + k - 1, k))
        bk = b ** k
        b1k = (b + 1) ** k
        sgn = Fraction((-1) ** (k + h))
        c2 = c1 * comb(h - 1, k)
        # A: b^k/2 L^2 - theta^2/2 b^k - 9 pi^2/8 (-1)^(k+h) (b+1)^k
        a_L2 += c2 * bk / 2
        a_pi2 += -c2 * th_over_pi ** 2 * bk / 2 - Fraction(9, 8) * c2 * sgn * b1k
        # B: b^k L theta
        b_L += c2 * bk * th_over_pi
        for j in range(1, h - k):
            cj = c1 * comb(h - 1, k + j) * Fraction((-1) ** j, j)
            hs = sum(Fraction(1, m) for m in range(1, j))
            a_const += cj * hs * (bk + sgn * b1k)
            a_L += -cj * bk
            b_const += -cj * (Fraction(3, 2) * sgn * b1k + bk * th_over_pi)
    return ResidueParts(a_const, a_L, a_L2, a_pi2, b_L, b_const)


def j_plus_quad(l: int, b: float) -> complex:
    """J_+(l; b): the defining half-line integral without the log weight,
    at elevated precision (it is combined against the residue parts, whose
    cancellation demands more than float64 headroom)."""
    if abs(b) < DELTA_CUT or abs(b + 1) < DELTA_CUT:
        raise DomainError("b too close to the singular points 0, -1")
    h = l // 2
    with mp.workdps(_RESIDUE_DPS):
        c = mp.mpf(b) / (mp.mpf(b) + 1)
        pref = mp.mpc(0, 1) ** h * (1 + mp.mpf(b)) ** (-h)

        def f(t):
            return (t + 1j) ** (-h) * (t + c * 1j) ** (-h) * t ** (h - 1)

        val = pref * mp.quad(f, [0, 1, mp.inf])
        return mp.mpc(val)


def w_plus_quad(l: int, b: float, tol: float = 1e-11) -> complex:
    """Defining-integral oracle for W_+(b), split at t = 1, scipy adaptive
    panels for real and imaginary parts with a refinement cross-check."""
    if l < 6 or l % 2:
        raise ValueError("even l >= 6 required for comfortable decay")
    if abs(b) < DELTA_CUT or abs(b + 1) < DELTA_CUT:
        raise DomainError("b too close to the singular points 0, -1")
    h = l // 2
    c = b / (b + 1)
    pref = 1j ** h * (1 + b) ** (-h)   # negative base, integer power: real

    def integrand(t: float) -> complex:
        return (t + 1j) ** (-h) * (t + 1j * c) ** (-h) * t ** (h - 1) * math.log(t)

    # scipy cannot integrate complex integrands directly; do the two parts
    re_head, e1 = integrate.quad(lambda t: integrand(t).real, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    re_tail, e2 = integrate.quad(lambda t: integrand(t).real, 1.0, np.inf, epsabs=tol, epsrel=tol, limit=200)
    im_head, e3 = integrate.quad(lambda t: integrand(t).imag, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    im_tail, e4 = integrate.quad(lambda t: integrand(t).imag, 1.0, np.inf, epsabs=tol, epsrel=tol, limit=200)
    value = complex(re_head + re_tail, im_head + im_tail)
    err = e1 + e2 + e3 + e4
    if err > max(tol * 100, 1e-9) * max(1.0, abs(value)):
        raise ConvergenceError(f"half-line quadrature error estimate {err:.2e}")
    return pref * value


def w_plus(l: int, b) -> complex:
    """Closed-form W_+(b) = -pi i J_+(l; b) - A(b) - i B(b); A, B exact
    residue assemblies, J_+ from its own (log-free) defining integral."""
    bfrac = b if isinstance(b, Fraction) else Fraction(b).limit_denominator(10 ** 12)
    parts = residue_parts(l, bfrac)
    with mp.workdps(_RESIDUE_DPS):
        jp = j_plus_quad(l, float(b))
        val = -mp.mpc(0, 1) * mp.pi * jp - parts.a_value(bfrac) - mp.mpc(0, 1) * parts.b_value(bfrac)
        return complex(val)


def w_eps(l: int, b: float, eps_minus1: int) -> complex:
    """W^eps(b) = W_+(b) + eps(-1) conj(W_+(b))."""
    wp = w_plus(l, b)
    return wp + eps_minus1 * wp.conjugate()


def w_eps_bound_envelope(l: int, b: float, epsilon: float) -> float:
    return (1 + abs(b)) ** (-l / 2 + 2 * epsilon)
