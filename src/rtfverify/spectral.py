"""Local spectral weight polynomials and their central z-derivatives.

The defining data at a finite place is a conductor exponent c and, for c <= 1,
a Satake-type parameter: a rational Q in (-1, 1) when c = 0, so every result
at a rational X is exact (a unit-modulus Satake number a gives
Q = (a + 1/a)/(q^[1/2] + q^[-1/2])), or the unramified sign chi(varpi) = +-1
when c = 1.

Two independent evaluation paths are maintained for r^(z): the defining sum of
weight-polynomial ratios, and per-case closed forms.  The (c=1, eta=+1) closed
form and its derivative are implemented with the corrected inner sum
sum_[j=1..k] X^(j-1); the variant with X^j fails against the defining sum.

At a rational X = a/b both paths run on integers.  The defining sum takes
each term q_poly_one(j) * Q_j(a/b) / tau_jj(j) as an integer pair, Q_j's
denominators b^j, q and Q's denominator cleared, and adds the terms into one
numerator over a running denominator.  The closed path writes each case's
expression as one integer numerator over one denominator, its geometric sums
in closed form.  Either way one Fraction is built per result.  At a float or
complex X the sum adds the q_poly terms as they stand, and the closed path
evaluates the case's expression in X.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping

from .errors import InertViolation, InputError
from .formal import FormalLog
from .ideals import Ideal, Prime, QuadCharData, omega_pair, residue_cardinality, square_decompose

MAX_K = 64
REP_CACHE_SIZE = 256   # (j, rep) entries; one datum of the r_z sum path uses k + 1 <= MAX_K + 1

Num = Fraction | float | complex


@dataclass(frozen=True)
class LocalRepData:
    """Local representation datum at a place of residue cardinality q; a c = 0
    datum holds -1 < Q < 1, so 1 - Q^2 never vanishes."""

    q: int
    c: int
    Q: Fraction | None = None   # c = 0
    chi: int | None = None      # c = 1
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        residue_cardinality(self.q, "LocalRepData")
        if self.c < 0:
            raise InputError(f"need c >= 0, got c={self.c}")
        if self.Q is not None and not isinstance(self.Q, Fraction):
            raise InputError(f"Q must be a Fraction, got {type(self.Q).__name__} Q={self.Q!r}")
        if self.c == 0:
            if self.Q is None or self.chi is not None:
                raise InputError(f"c=0 wants Q and no chi, got Q={self.Q}, chi={self.chi}")
            if not -1 < self.Q < 1:
                raise InputError(f"c=0 wants a Satake parameter -1 < Q < 1, got Q={self.Q}")
        elif self.c == 1:
            if self.chi not in (1, -1) or self.Q is not None:
                raise InputError(f"c=1 wants chi=+-1 and no Q, got Q={self.Q}, chi={self.chi}")
        else:
            if self.Q is not None or self.chi is not None:
                raise InputError(f"c>=2 carries no parameter, got Q={self.Q}, chi={self.chi}")
        # hashed once: the caches of q_poly_one and tau_jj hash the datum on
        # every call, and a Fraction Q hashes in Python
        object.__setattr__(self, "_hash", hash((self.q, self.c, self.Q, self.chi)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):   # rebuilt, so rehashed, where it is unpickled
        return LocalRepData, (self.q, self.c, self.Q, self.chi)


def _check_k(k: int):
    if not 1 <= k <= MAX_K:
        raise InputError(f"k must lie in [1, {MAX_K}], got k={k}")


def q_poly(j: int, rep: LocalRepData, eta_val: int, X: Num) -> Num:
    """The weight polynomial Q_j(eta, X) of the local datum, evaluated at X."""
    if j < 0:
        raise ValueError("j >= 0 required")
    q, c = rep.q, rep.c
    if j == 0:
        return X * 0 + 1
    if c == 0 and j == 1:
        return eta_val * X - rep.Q
    if c == 1:
        return eta_val ** (j - 1) * X ** (j - 1) * (eta_val * X - Fraction(rep.chi, q))
    if c == 0:
        # (a q^(1/2) eta X - 1)(a^(-1) q^(1/2) eta X - 1), rational in Q
        quad = q * X * X - eta_val * rep.Q * (q + 1) * X + 1
        return Fraction(1, q) * eta_val ** (j - 2) * X ** (j - 2) * quad
    return eta_val ** j * X ** j


@lru_cache(maxsize=REP_CACHE_SIZE)
def q_poly_one(j: int, rep: LocalRepData) -> Fraction:
    """Q_j evaluated for the trivial character at X = 1."""
    return q_poly(j, rep, 1, Fraction(1))


@lru_cache(maxsize=REP_CACHE_SIZE)
def tau_jj(j: int, rep: LocalRepData) -> Fraction:
    if j < 0:
        raise ValueError("j >= 0 required")
    if j == 0 or rep.c >= 2:
        return Fraction(1)
    if rep.c == 1:
        return 1 - Fraction(1, rep.q ** 2)
    if j == 1:
        return 1 - rep.Q * rep.Q
    return (1 - rep.Q * rep.Q) * (1 - Fraction(1, rep.q ** 2))


def r_z(rep: LocalRepData, eta_val: int, k: int, X: Num, path: str = "closed") -> Num:
    """r^(z) at X = q^(1/2 - z), with k = ord_v(n f_pi^-1) >= 1.

    path="sum" evaluates the defining sum of polynomial ratios, path="closed"
    the per-case rational expressions; at a Fraction X each runs on integers
    (_r_z_sum_exact, _r_z_closed_exact).  Both agree identically.
    """
    _check_k(k)
    if eta_val not in (1, -1):
        raise ValueError("eta_val must be +-1")
    if path == "sum":
        if isinstance(X, Fraction):
            return _r_z_sum_exact(rep, eta_val, k, X.numerator, X.denominator)
        return sum(
            (q_poly_one(j, rep) * q_poly(j, rep, eta_val, X)) / tau_jj(j, rep)
            for j in range(k + 1)
        )
    if path != "closed":
        raise ValueError(f"unknown path {path!r}")
    if isinstance(X, Fraction):
        return _r_z_closed_exact(rep, eta_val, k, X.numerator, X.denominator)
    q = rep.q
    if rep.c == 0:
        Q = rep.Q
        if eta_val == -1:
            quad = 1 + Q * (q + 1) * X + q * X * X
            return (1 - X) / (1 + Q) + quad * (1 - (-X) ** (k - 1)) / ((q - 1) * (1 + Q) * (1 + X))
        quad = 1 - Q * (q + 1) * X + q * X * X
        geo = sum(X ** (j - 2) for j in range(2, k + 1)) if k >= 2 else 0
        return (1 + X) / (1 + Q) + quad * geo / ((q - 1) * (1 + Q))
    if rep.c == 1:
        cq = Fraction(rep.chi, q)
        if eta_val == -1:
            return 1 - (X + cq) / (1 + cq) * (1 - (-1) ** k * X ** k) / (1 + X)
        # corrected inner sum: j runs 1..k with X^(j-1)
        return 1 + (X - cq) / (1 + cq) * sum(X ** (j - 1) for j in range(1, k + 1))
    if eta_val == -1:
        return (1 + (-1) ** k * X ** (k + 1)) / (1 + X)
    return sum(X ** j for j in range(k + 1))


def _geometric(a: int, b: int, n: int) -> int:
    """sum_{i < n} a^i b^(n-1-i), that is sum_{i < n} (a/b)^i times b^(n-1)."""
    if a == b:
        return n * b ** (n - 1) if n else 0
    return (b ** n - a ** n) // (b - a)


def _r_z_closed_exact(rep: LocalRepData, eta_val: int, k: int, a: int, b: int) -> Fraction:
    """r_z's closed expressions at X = a/b (b > 0), each case as one integer
    numerator over one denominator; X = -1 divides by zero where the
    expression divides by 1 + X."""
    q, bk = rep.q, b ** k
    if rep.c == 0:
        Qn, Qd = rep.Q.numerator, rep.Q.denominator
        scale = (q - 1) * (Qd + Qn)   # (q-1)(1+Q) Qd
        first = Qd * (q - 1) * b ** (k - 1)
        if eta_val == -1:
            # (1-X)/(1+Q) + quad (1 - (-X)^(k-1)) / ((q-1)(1+Q)(1+X)), quad = 1 + Q(q+1)X + qX^2
            quad = Qd * b * b + Qn * (q + 1) * a * b + q * Qd * a * a
            num = (b - a) * (b + a) * first + quad * (b ** (k - 1) - (-a) ** (k - 1))
            return Fraction(num, scale * bk * (b + a))
        # (1+X)/(1+Q) + quad sum_{j=2..k} X^(j-2) / ((q-1)(1+Q)), quad = 1 - Q(q+1)X + qX^2
        quad = Qd * b * b - Qn * (q + 1) * a * b + q * Qd * a * a
        return Fraction((b + a) * first + quad * _geometric(a, b, k - 1), scale * bk)
    if rep.c == 1:
        chi = rep.chi
        if eta_val == -1:
            # 1 - (X + chi/q)/(1 + chi/q) (1 - (-1)^k X^k)/(1 + X)
            den = (q + chi) * bk * (b + a)
            return Fraction(den - (a * q + chi * b) * (bk - (-a) ** k), den)
        # 1 + (X - chi/q)/(1 + chi/q) sum_{j=1..k} X^(j-1)
        den = (q + chi) * bk
        return Fraction(den + (a * q - chi * b) * _geometric(a, b, k), den)
    if eta_val == -1:
        # (1 + (-1)^k X^(k+1)) / (1 + X)
        return Fraction(b * bk - (-a) ** (k + 1), bk * (b + a))
    return Fraction(_geometric(a, b, k + 1), bk)


def _q_poly_pair(j: int, rep: LocalRepData, eta_val: int, a: int, b: int) -> tuple[int, int]:
    """Q_j(eta, a/b) as an integer pair (numerator, denominator): q_poly's
    cases cleared of the denominators b^j, q and Q's denominator."""
    if j == 0:
        return 1, 1
    q, c, ea = rep.q, rep.c, eta_val * a
    if c == 0:
        Qn, Qd = rep.Q.numerator, rep.Q.denominator
        if j == 1:
            return ea * Qd - Qn * b, b * Qd
        quad = q * a * a * Qd - eta_val * Qn * (q + 1) * a * b + b * b * Qd
        return ea ** (j - 2) * quad, q * Qd * b ** j
    if c == 1:
        return ea ** (j - 1) * (ea * q - rep.chi * b), q * b ** j
    return ea ** j, b ** j


def _r_z_sum_exact(rep: LocalRepData, eta_val: int, k: int, a: int, b: int) -> Fraction:
    """r_z's defining sum at X = a/b.  Each term q_poly_one * Q_j / tau_jj is
    an integer pair, added into one numerator over a running denominator (the
    lcm of the terms' denominators); one Fraction is built at the end."""
    num, den = 0, 1
    for j in range(k + 1):
        one, tau = q_poly_one(j, rep), tau_jj(j, rep)
        pn, pd = _q_poly_pair(j, rep, eta_val, a, b)
        tn, td = one.numerator * tau.denominator * pn, one.denominator * tau.numerator * pd
        if td == den:
            num += tn
        else:
            g = gcd(den, td)
            num = num * (td // g) + tn * (den // g)
            den = den // g * td
    return Fraction(num, den)


def r_at_center(rep: LocalRepData, eta_val: int, k: int) -> Fraction:
    """r^(z) at the center z = 1/2 (so X = 1); vanishes for odd k when
    eta(varpi) = -1."""
    _check_k(k)
    if eta_val == -1:
        half = Fraction(1 + (-1) ** k, 2)
        if rep.c >= 1:
            return half
        return half * Fraction(rep.q + 1, rep.q - 1)
    return r_z(rep, eta_val, k, Fraction(1), path="sum")


def partial_r(rep: LocalRepData, eta_val: int, k: int) -> Fraction:
    """-(1/log q) d/dz r^(z) at z = 1/2; equals dr/dX at X = 1."""
    _check_k(k)
    q, c = rep.q, rep.c
    sgn = (-1) ** k
    if eta_val == -1:
        if c == 0:
            Q = rep.Q
            return (
                -1 / (1 + Q)
                + Fraction(1 + sgn, 2) * (2 * q + (q + 1) * Q) / ((q - 1) * (1 + Q))
                + Fraction(sgn * (2 * k - 3) - 1, 4) * Fraction(q + 1, q - 1)
            )
        if c == 1:
            cq = Fraction(rep.chi, q)
            return -Fraction(1 - sgn, 2) / (1 + cq) + Fraction(1 + sgn * (2 * k - 1), 4)
        return Fraction(sgn * (2 * k + 1) - 1, 4)
    if c == 0:
        Q = rep.Q
        return (
            1 / (1 + Q)
            + (k - 1) * (2 * q - (q + 1) * Q) / ((q - 1) * (1 + Q))
            + Fraction((k - 2) * (k - 1), 2) * (q + 1) * (1 - Q) / ((q - 1) * (1 + Q))
        )
    if c == 1:
        # corrected from the defining sum; the k(k+1)/2 variant fails it
        cq = Fraction(rep.chi, q)
        return k / (1 + cq) + (1 - cq) / (1 + cq) * Fraction(k * (k - 1), 2)
    return Fraction(k * (k + 1), 2)


def partial_r_sum(rep: LocalRepData, eta_val: int, k: int) -> Fraction:
    """Independent exact derivative: term-by-term d/dX of the defining sum."""
    _check_k(k)
    total = Fraction(0)
    for j in range(1, k + 1):
        dq = _dq_poly_at_one(j, rep, eta_val)
        total = total + q_poly_one(j, rep) * dq / tau_jj(j, rep)
    return total


def _dq_poly_at_one(j: int, rep: LocalRepData, eta_val: int) -> Fraction:
    """d/dX Q_j(eta, X) at X = 1, from the explicit polynomial cases."""
    q, c = rep.q, rep.c
    e = eta_val
    if c == 0 and j == 1:
        return Fraction(e)
    if c == 1:
        cq = Fraction(rep.chi, q)
        return e ** (j - 1) * ((j - 1) * (e - cq) + e)
    if c == 0:
        quad_at_1 = q - e * rep.Q * (q + 1) + 1
        dquad_at_1 = 2 * q - e * rep.Q * (q + 1)
        return Fraction(1, q) * e ** (j - 2) * ((j - 2) * quad_at_1 + dquad_at_1)
    return Fraction(j) * e ** j


# ---------------------------------------------------------------------------
# global w and its derivative


def _check_inert(n: Ideal, eta: QuadCharData):
    """The totally inert condition tilde_eta = -1 on S(n)."""
    for p in n.support:
        if eta.tilde_eta(p) != -1:
            raise InertViolation(f"tilde_eta({p.id}) != -1 on the level support")


def w_and_dw(reps: Mapping[Prime, LocalRepData], n: Ideal, eta: QuadCharData) -> tuple[Fraction, FormalLog]:
    """(w, dw) for a representation of conductor f_pi = prod p^c dividing n.

    Requires the totally inert condition tilde_eta = -1 on S(n).  w vanishes
    unless n f_pi^-1 is a square; dw follows the two vanishing cases.
    """
    _check_inert(n, eta)
    f_pi = Ideal.of({p: rep.c for p, rep in reps.items() if rep.c > 0})
    if not f_pi.divides(n):
        raise ValueError("conductor of the representation must divide the level")
    m = n.divide(f_pi)
    for p in m.support:
        if p not in reps:
            raise ValueError(f"missing local datum at {p.id}")
    m0, b = square_decompose(m)
    odd = m0.support
    w_val = omega_pair(n, m)
    if len(odd) == 0:
        dw = FormalLog.zero()
        for p in b.support:
            dw = dw + FormalLog.log_integer(p.q, -b.ord(p))
        return w_val, dw * w_val
    if len(odd) == 1:
        u = odd[0]
        rep = reps[u]
        ordb = b.ord(u)
        if rep.c == 0:
            extra = (rep.q - 1) / ((rep.q + 1) * (1 + rep.Q))
        elif rep.c == 1:
            extra = Fraction(rep.q, rep.q + rep.chi)
        else:
            extra = Fraction(1)
        return Fraction(0), FormalLog.log_integer(u.q, (ordb + extra) * w_val)
    return Fraction(0), FormalLog.zero()


def w_and_dw_oracle(reps: Mapping[Prime, LocalRepData], n: Ideal, eta: QuadCharData) -> tuple[Fraction, FormalLog]:
    """Product/product-rule evaluation over the places, via r and partial_r."""
    _check_inert(n, eta)
    f_pi = Ideal.of({p: rep.c for p, rep in reps.items() if rep.c > 0})
    m = n.divide(f_pi)
    places = [(p, reps[p], m.ord(p)) for p in m.support]
    r_vals = {p: r_at_center(rep, -1, k) for p, rep, k in places}
    w_val = Fraction(1)
    for p, _, _ in places:
        w_val *= r_vals[p]
    dw = FormalLog.zero()
    for p, rep, k in places:
        rest = Fraction(1)
        for p2, _, _ in places:
            if p2 != p:
                rest *= r_vals[p2]
        # d/dz r = -log q * partial_r
        dw = dw + FormalLog.log_integer(p.q, -partial_r(rep, -1, k) * rest)
    return w_val, dw


def adl_plus_factor(f_pi: Ideal, eta: QuadCharData) -> FormalLog:
    """The derivative factor the functional equation forces on the plus part:
    -(1/2) log(norm(f_pi) norm(f_eta)^2 D_F^2)."""
    out = FormalLog.zero()
    if f_pi.norm > 1:
        out = out + FormalLog.log_integer(f_pi.norm, Fraction(-1, 2))
    feta = eta.conductor
    if feta.norm > 1:
        out = out + FormalLog.log_integer(feta.norm, -1)
    return out + FormalLog.symbol("logDF", -1)
