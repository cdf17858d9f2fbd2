"""Chebyshev/Hecke test functions, unipotent period integrals and measures.

All displayed closed forms here are backed by a numeric contour oracle: the
integrands are periodic in Im(s) with period 4*pi/log q, so the vertical-line
integrals are evaluated over one full period (where the trapezoid rule
converges geometrically).  Each oracle takes lists, one item or many:
period_integrals ((kernel, eta) pairs x test functions) and st_moments
((q, eta) pairs x exponents n) build each grid once and share it across
them.  Every quantity on the period contour (the kernels, the test functions
alpha and the measure) is a function of z = q^(s/2): period_integrals makes
z with one complex exponential per grid, and one of its passes serves every
pair it is given; each kernel is written once, in Y = sqrt(q) z, for the
contour and the exact kernel identity alike.  st_moments runs the recurrence
X_{n+1} = x X_n - X_{n-1} on its theta grid.  The moments carrying q^(-n/2)
have an exactly rational scaled form (for the main-term assembly) and one
float form each: unip_u, unip_du and dunip.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, InputError
from .ideals import residue_cardinality


def chebyshev(n: int, x):
    """X_n(x) = sin((n+1) theta)/sin theta at x = 2 cos theta, extended off
    [-2, 2] by the three-term recurrence (exact for Fraction input)."""
    if n < 0:
        raise InputError(f"n >= 0 required, got n={n}")
    a, b = 1, x
    if n == 0:
        return x * 0 + 1
    for _ in range(n - 1):
        a, b = b, x * b - a
    return b


def decompose_alpha(n: int) -> tuple[list[int], int]:
    """alpha_[p^n] = sum_m alpha^(m) over the listed m, plus the constant.

    Returns (ms, const) with ms = [n, n-2, ..., (1 or 2)] and const =
    -delta(n even); alpha^(m)(s) = q^(ms/2) + q^(-ms/2).
    """
    if n < 0:
        raise InputError(f"n >= 0 required, got n={n}")
    ms = [n - 2 * m for m in range(n // 2 + 1)]
    const = -1 if n % 2 == 0 else 0
    return ms, const


def laurent_alpha_pn(n: int) -> dict[int, int]:
    """Exponent dict of X_n(z + 1/z) as a Laurent polynomial in z."""
    return {n - 2 * j: 1 for j in range(n + 1)}


def laurent_decomposition(n: int) -> dict[int, int]:
    """Exponent dict of sum_m alpha^(m) + const from decompose_alpha."""
    ms, const = decompose_alpha(n)
    out: dict[int, int] = {}
    for m in ms:
        out[m] = out.get(m, 0) + 1
        out[-m] = out.get(-m, 0) + 1
    out[0] = out.get(0, 0) + const
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# unipotent moments: closed forms


def unip_u_scaled(eta_val: int, n: int) -> Fraction:
    """q^(n/2) * U-moment of alpha_[p^n]: exactly rational."""
    if eta_val == -1:
        return Fraction(-1) if n % 2 == 0 else Fraction(0)
    return Fraction(-(n + 1))


def unip_du_scaled(eta_val: int, n: int) -> Fraction:
    """q^(n/2) / log q * dU-moment of alpha_[p^n]: exactly rational."""
    if eta_val == -1:
        return Fraction((-1) ** n * ((n + 1) // 2))
    return Fraction(n * (n + 1), 2)


def dunip_scaled(q: int, eta_val: int, m: int) -> Fraction:
    """q^(m/2)/log q * dU-moment of the basis function alpha^(m): exactly
    rational."""
    if m == 0:
        return Fraction(0)
    if eta_val == -1:
        inner = Fraction(q - 1, 2) * m * (-1) ** m - Fraction(3 * q + 1, 4) * (-1) ** m + Fraction(1 - q, 4)
    else:
        inner = Fraction((m - 1) * (m - 2), 2) * q - Fraction(m * (m + 1), 2)
    return -inner


def unip_u(q: int, eta_val: int, n: int) -> float:
    """The U-moment of alpha_[p^n]."""
    return float(unip_u_scaled(eta_val, n)) * q ** (-n / 2)


def unip_du(q: int, eta_val: int, n: int) -> float:
    """The dU-moment of alpha_[p^n]."""
    return float(unip_du_scaled(eta_val, n)) * q ** (-n / 2) * math.log(q)


def dunip(q: int, eta_val: int, m: int) -> float:
    """Closed form of the dU-moment of alpha^(m) (zero at m = 0)."""
    return float(dunip_scaled(q, eta_val, m)) * q ** (-m / 2) * math.log(q)


# ---------------------------------------------------------------------------
# kernels and the period-contour oracle


def _upsilon_y(eta_val: int, Y):
    """Upsilon = 1/((1 - eta/Y)(1 - Y)) as Y/((Y - eta)(1 - Y)), Y = q^((1+s)/2)."""
    return Y / ((Y - eta_val) * (1 - Y))


def _dunip_y(c, eta_val: int, Y):
    """c eta Y^-2 (1 - eta/Y)^-2 (1 - 1/Y)^-1 as c eta Y/((Y - eta)^2 (Y - 1)); c = log q in dU."""
    return eta_val * c * Y / ((Y - eta_val) ** 2 * (Y - 1))


def upsilon_kernel(q: int, eta_val: int, z: complex) -> complex:
    """Upsilon(s) at z = q^(s/2), Y = sqrt(q) z."""
    return _upsilon_y(eta_val, math.sqrt(q) * z)


def dunip_kernel(q: int, eta_val: int, z: complex) -> complex:
    """eta log q Y^-2 (1 - eta/Y)^-2 (1 - 1/Y)^-1 at z = q^(s/2), Y = sqrt(q) z."""
    return _dunip_y(math.log(q), eta_val, math.sqrt(q) * z)


def upsilon_over_unip_kernel(q: int, eta_val: int, z: complex) -> complex:
    return upsilon_kernel(q, eta_val, z) * math.log(q) / (1 - eta_val * math.sqrt(q) * z)


def kernel_identity_lhs(eta_val: int, Y: Fraction) -> Fraction:
    """Upsilon/(1 - eta Y), exactly, at a rational Y = q^((s+1)/2)."""
    return _upsilon_y(eta_val, Y) / (1 - eta_val * Y)


def kernel_identity_rhs(eta_val: int, Y: Fraction) -> Fraction:
    """The dU kernel over log q, exactly, at a rational Y = q^((s+1)/2)."""
    return _dunip_y(1, eta_val, Y)


def alpha_pn_at(n: int) -> Callable[[complex], complex]:
    """alpha_[p^n] as a function of z = q^(s/2): X_n(z + 1/z)."""
    def f(z):
        return chebyshev(n, z + 1 / z)
    f.__name__ = f"alpha_[p^{n}]"
    return f


def alpha_basis_at(m: int) -> Callable[[complex], complex]:
    """The basis function alpha^(m) as a function of z = q^(s/2): z^m + z^-m."""
    def f(z: complex) -> complex:
        zm = z ** m
        return zm + 1 / zm
    f.__name__ = f"alpha^({m})"
    return f


# grid points of the coarse pass of each oracle; its fine pass takes about twice as many.
# PERIOD_STEPS is a power of two: the contour sum folds its nodes in halves.
PERIOD_STEPS = 4096
# ST_STEPS is the smallest count whose refinement gap (coarse against fine
# pass) is at most 1e-13, 1e4 below the 1e-9 gate, over q in 2, 3, 4, 5, 7,
# 8, 9, 11, 13, both eta and n <= 40.  The theta integrand is periodic and
# analytic, so the trapezoid rule converges geometrically.  Measured (Python
# 3.11, numpy 2.4, x86-64):
#   steps  57      65       69       71       72       73       77       129
#   gap    2.1e-9  9.9e-12  6.8e-13  1.8e-13  9.0e-14  4.3e-14  4.6e-15  5.4e-15
# At every count from 57 to 129 the fine pass equals the 20001-step values
# to 7.1e-15 and st_moment_expected to 7.1e-15 (at 72: 4.0e-15 and 3.9e-15).
ST_STEPS = 72


def period_integrals(kernels: Sequence[tuple[Callable[[int, int, np.ndarray], np.ndarray], int]], q: int,
                     alphas: Sequence[Callable[[complex], complex]],
                     sigma: float = 0.7) -> list[list[complex]]:
    """(1/2 pi i) integral of kernel * alpha * dmu over one vertical period,
    dmu(s) = (log q / 2)(q^((1+s)/2) - q^((1-s)/2)) ds, for each (kernel,
    eta) pair and each alpha: one list per pair.  Kernels and alphas are
    functions of z = q^(s/2).

    Each refinement pass (PERIOD_STEPS, then twice that) builds z, the
    measure and every pair's kernel values once, and each alpha once for all
    pairs.  Each value is bit-identical to a one-item call, and must agree
    across the two passes to 1e-9.
    """
    residue_cardinality(q, "period_integrals")
    if sigma <= 0:
        raise InputError(f"sigma > 0 required, got sigma={sigma}")
    # one grid alive at a time: the coarse pass is dropped before the fine one
    coarse = _period_passes(kernels, q, alphas, sigma, PERIOD_STEPS)
    fine = _period_passes(kernels, q, alphas, sigma, 2 * PERIOD_STEPS)
    return _refined(coarse, fine, lambda k, i: f"period integral of kernel {kernels[k][0].__name__} at q={q}, "
                    f"eta={kernels[k][1]}, sigma={sigma}, steps={PERIOD_STEPS}, alpha #{i} ({alphas[i].__name__})")


def _refined(coarse, fine, name):
    """The fine pass's rows, once each value is within 1e-9 of the coarse
    pass's; else a ConvergenceError naming the first that is not, at row k
    and column i, by name(k, i)."""
    for k, (row1, row2) in enumerate(zip(coarse, fine)):
        for i, (v1, v2) in enumerate(zip(row1, row2)):
            if not abs(v1 - v2) <= 1e-9:
                raise ConvergenceError(f"{name(k, i)}: refinement gap {abs(v1 - v2):.3e}")
    return fine


def _period_passes(kernels, q, alphas, sigma, steps) -> list[list[complex]]:
    # s = sigma + i T (k + 1/2)/steps over one period T = 4 pi/log q puts
    # z = q^(s/2) on one turn of the circle |z| = q^(sigma/2)
    z = q ** (sigma / 2) * np.exp(2j * math.pi * (np.arange(steps) + 0.5) / steps)
    # dmu = (log q/2) sqrt(q) (z - 1/z) ds = sqrt(q) (z - 1/z) dz/z, and the
    # trapezoid rule's (1/2 pi i) dz/z is 1/steps at exact nodes.  spacing is
    # the central difference (z[k+1] - z[k-1])/(2i sin(2 pi/steps) z[k]): 1 at
    # exact nodes, and at the rounded ones it cancels their rounding to first
    # order.
    spacing = (np.roll(z, -1) - np.roll(z, 1)) / (2j * math.sin(2 * math.pi / steps) * z)
    measure = math.sqrt(q) * (z - 1 / z) * spacing
    # one row per pair, so each alpha's products with every kernel fold together
    weighted = np.stack([kern(q, eta_val, z) * measure for kern, eta_val in kernels])
    out = [[] for _ in kernels]
    for alpha in alphas:
        for row, total in zip(out, _circle_sum(weighted * alpha(z))):
            row.append(complex(total) / steps)
    return out


def _circle_sum(terms: np.ndarray) -> np.ndarray:
    """Sums along the last axis of the terms at 2^j equispaced nodes, folded
    in halves: each partial sum runs over equispaced nodes, so the large
    oscillating parts cancel before they are rounded.  A fixed order, so
    deterministic to the last bit for a given step count."""
    while terms.shape[-1] > 1:
        half = terms.shape[-1] // 2
        terms = np.add(terms[..., :half], terms[..., half:], out=terms[..., :half])
    return terms[..., 0]


# ---------------------------------------------------------------------------
# measures on [-2, 2]


def plancherel_factor(q: int, eta_val: int, x: np.ndarray) -> np.ndarray:
    A = q ** 0.5 + q ** -0.5
    if eta_val == 1:
        return (q - 1) / (A - x) ** 2
    return (q + 1) / (A * A - x * x)


def st_moments(pairs: Sequence[tuple[int, int]], ns: Sequence[int]) -> list[list[float]]:
    """Moment of X_n against the local measure of each (q, eta) pair for each
    n, one list per pair, by theta-substitution quadrature (x = 2 cos theta
    kills the endpoint singularity).  Each refinement pass builds the theta
    grid once for every pair, then each pair's weight and the three-term
    recurrence for X_n up to max(ns), one pair at a time; each value is
    bit-identical to its one-item call and held to its own 1e-9 refinement
    check."""
    for q, _eta_val in pairs:
        residue_cardinality(q, "st_moments")
    coarse = _st_passes(pairs, ns, ST_STEPS)
    fine = _st_passes(pairs, ns, 2 * ST_STEPS + 1)
    return _refined(coarse, fine, lambda k, i: f"measure moment at q={pairs[k][0]}, eta={pairs[k][1]}, "
                    f"steps={ST_STEPS}, n={ns[i]}")


def _st_passes(pairs: Sequence[tuple[int, int]], ns: Sequence[int], steps: int) -> list[list[float]]:
    theta = np.linspace(0.0, math.pi, steps)
    x = 2 * np.cos(theta)
    sin2 = np.sin(theta) ** 2
    wanted, out = set(ns), []
    for q, eta_val in pairs:
        # d mu^ST = (2/pi) sin^2 theta d theta, times the trapezoid rule's
        # weights: pi/(steps - 1), halved at the two ends
        weight = plancherel_factor(q, eta_val, x) * (2 / math.pi) * sin2 * (math.pi / (steps - 1))
        weight[[0, -1]] /= 2
        moments = {}
        # X_0 = 1, X_1 = x, X_{n+1} = x X_n - X_{n-1}
        prev, cur = np.zeros_like(x), np.ones_like(x)
        for n in range(max(wanted, default=-1) + 1):
            if n in wanted:
                moments[n] = float(np.sum(cur * weight))
            prev, cur = cur, x * cur - prev
        out.append([moments[n] for n in ns])
    return out


def st_moment_expected(q: int, eta_val: int, n: int) -> float:
    """Derived closed values (asserted only through the quadrature oracle)."""
    if eta_val == -1:
        return q ** (-n / 2) if n % 2 == 0 else 0.0
    return (n + 1) * q ** (-n / 2)
