"""Local spectral weight polynomials and their central z-derivatives.

The defining data at a finite place is a conductor exponent c and, for c <= 1,
a Satake-type parameter: a rational Q in (-1, 1) when c = 0, so every result
at a rational X is exact (a unit-modulus Satake number a gives
Q = (a + 1/a)/(q^[1/2] + q^[-1/2])), or the unramified sign chi(varpi) = +-1
when c = 1.

r^(z) has two independent evaluations, at a rational X only: r_z, the
per-case closed forms, and its oracle r_z_sum, the defining sum of
weight-polynomial ratios.  The (c=1, eta=+1) closed form and its derivative
are implemented with the corrected inner sum sum_[j=1..k] X^(j-1); the
variant with X^j fails against the defining sum.

Every weight polynomial Q_j(eta, X) depends on eta and X only through eta X,
so r(eta, X) = r(+1, eta X).  r_z therefore has the three eta = +1 cases
only, evaluated at eta X; none divides by 1 + X, so X = -1 gets the value of
the removable singularity.  r_z_sum keeps eta, so it checks that identity too.

Both run on integers at X = a/b.  The defining sum takes each term
q_poly_one(j) * Q_j(a/b) / tau_jj(j) as an integer pair, Q_j's denominators
b^j, q and Q's denominator cleared and the X-free factor read from one bounded
cache per (datum, k), and adds the terms into one numerator over a running
denominator.  The closed forms write each case's expression as one integer
numerator over one denominator, its geometric sums in closed form.  Either way
the result is an integer pair (_r_z_sum_pair, _r_z_pair), which rtf verify
compares by cross-multiplying and r_z_sum and r_z build into one Fraction.
partial_r_sum, the oracle for the derivative partial_r, is the defining
sum's term-by-term derivative at X = 1, added the same way; partial_r, like
r_z, is one integer numerator over one denominator per case.  The weight
polynomial's cases are written once, in _q_poly_pair: q_poly is its pair as
a Fraction, and tau_jj is built from the integers q, Qn and Qd of Q = Qn/Qd.
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
from .ntransform import log_norm

MAX_K = 64
REP_CACHE_SIZE = 256   # (rep, k) entries of _weight_pairs; one datum at k fills k + 1 <= MAX_K + 1


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
        # hashed once: the cache of _weight_pairs hashes the datum on every
        # call, and a Fraction Q hashes in Python
        object.__setattr__(self, "_hash", hash((self.q, self.c, self.Q, self.chi)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):   # rebuilt, so rehashed, where it is unpickled
        return LocalRepData, (self.q, self.c, self.Q, self.chi)


def _check_k(name: str, k: int, eta_val: int) -> None:
    """The domain every k-indexed weight shares: 1 <= k <= MAX_K, eta = +-1."""
    if not 1 <= k <= MAX_K:
        raise InputError(f"k must lie in [1, {MAX_K}], got k={k}")
    if eta_val not in (1, -1):
        raise InputError(f"{name} wants eta_val = +-1, got eta_val={eta_val!r}")


def q_poly(j: int, rep: LocalRepData, eta_val: int, X: Fraction) -> Fraction:
    """The weight polynomial Q_j(eta, X) of the local datum, evaluated at X:
    _q_poly_pair's integer pair as one Fraction."""
    if j < 0:    # an internal invariant: q_poly_one passes 0 <= j <= k
        raise ValueError("j >= 0 required")
    return Fraction(*_q_poly_pair(j, rep, eta_val, X.numerator, X.denominator))


def q_poly_one(j: int, rep: LocalRepData) -> Fraction:
    """Q_j evaluated for the trivial character at X = 1."""
    return q_poly(j, rep, 1, Fraction(1))


def tau_jj(j: int, rep: LocalRepData) -> Fraction:
    """(1 - Q^2 [c = 0]) (1 - q^-2 [j >= 2 or c = 1]) for c <= 1 and j >= 1,
    else 1, from the integers q, Qn and Qd of Q = Qn/Qd."""
    if j < 0:    # an internal invariant: _weight_pairs passes 0 <= j <= k
        raise ValueError("j >= 0 required")
    if j == 0 or rep.c >= 2:
        return Fraction(1)
    qq = rep.q * rep.q
    if rep.c == 1:
        return Fraction(qq - 1, qq)
    Qn, Qd = rep.Q.numerator, rep.Q.denominator
    return Fraction(Qd * Qd - Qn * Qn, Qd * Qd) if j == 1 else Fraction((Qd * Qd - Qn * Qn) * (qq - 1), Qd * Qd * qq)


def _check_r_z_args(name: str, k: int, eta_val: int, X) -> None:
    _check_k(name, k, eta_val)
    if not isinstance(X, (int, Fraction)):
        raise InputError(f"{name} wants a rational X, got {type(X).__name__} X={X!r}")


def _geometric(a: int, b: int, n: int) -> int:
    """sum_{i < n} a^i b^(n-1-i), that is sum_{i < n} (a/b)^i times b^(n-1)."""
    if a == b:
        return n * b ** (n - 1) if n else 0
    return (b ** n - a ** n) // (b - a)


def _r_z_pair(rep: LocalRepData, eta_val: int, k: int, X: Fraction | int) -> tuple[int, int]:
    """r_z as an unreduced integer pair (numerator, denominator)."""
    _check_r_z_args("r_z", k, eta_val, X)
    q, a, b = rep.q, eta_val * X.numerator, X.denominator
    bk = b ** k
    if rep.c == 0:
        # (1+X)/(1+Q) + quad sum_{j=2..k} X^(j-2) / ((q-1)(1+Q)), quad = 1 - Q(q+1)X + qX^2
        Qn, Qd = rep.Q.numerator, rep.Q.denominator
        quad = Qd * b * b - Qn * (q + 1) * a * b + q * Qd * a * a
        first = Qd * (q - 1) * b ** (k - 1)
        return (b + a) * first + quad * _geometric(a, b, k - 1), (q - 1) * (Qd + Qn) * bk
    if rep.c == 1:
        # 1 + (X - chi/q)/(1 + chi/q) sum_{j=1..k} X^(j-1)
        den = (q + rep.chi) * bk
        return den + (a * q - rep.chi * b) * _geometric(a, b, k), den
    return _geometric(a, b, k + 1), bk


def r_z(rep: LocalRepData, eta_val: int, k: int, X: Fraction | int) -> Fraction:
    """r^(z) at X = q^(1/2 - z), with k = ord_v(n f_pi^-1) >= 1, for a
    rational X (an int X is read as its Fraction): the eta = +1 closed
    expression at eta X, one integer numerator over one denominator
    (_r_z_pair) built into one Fraction.  r_z_sum is its oracle."""
    return Fraction(*_r_z_pair(rep, eta_val, k, X))


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
        # Qd b^2 (s q^(1/2) eta X - 1)(s^-1 q^(1/2) eta X - 1), s the Satake number
        quad = q * a * a * Qd - eta_val * Qn * (q + 1) * a * b + b * b * Qd
        return ea ** (j - 2) * quad, q * Qd * b ** j
    if c == 1:
        return ea ** (j - 1) * (ea * q - rep.chi * b), q * b ** j
    return ea ** j, b ** j


@lru_cache(maxsize=REP_CACHE_SIZE)
def _weight_pairs(rep: LocalRepData, k: int) -> tuple[tuple[int, int], ...]:
    """q_poly_one(j) / tau_jj(j) for 0 <= j <= k as unreduced integer pairs,
    extending the cached entry for k - 1, so a table over k = 1, 2, ...
    forms each pair once."""
    one, tau = q_poly_one(k, rep), tau_jj(k, rep)
    pair = (one.numerator * tau.denominator, one.denominator * tau.numerator)
    return (_weight_pairs(rep, k - 1) if k else ()) + (pair,)


def _defining_sum(rep: LocalRepData, k: int, first: int, pair) -> tuple[int, int]:
    """sum_(first <= j <= k) q_poly_one(j) P_j / tau_jj(j), with P_j given by
    pair(j) as an integer pair (numerator, denominator) and the X-free factor
    read from _weight_pairs.  Each term is an integer pair, added into one
    numerator over a running denominator (the lcm of the terms'
    denominators), which it returns unreduced."""
    num, den = 0, 1
    weights = _weight_pairs(rep, k)
    for j in range(first, k + 1):
        wn, wd = weights[j]
        pn, pd = pair(j)
        tn, td = wn * pn, wd * pd
        if td == den:
            num += tn
        else:
            g = gcd(den, td)
            num = num * (td // g) + tn * (den // g)
            den = den // g * td
    return num, den


def _r_z_sum_pair(rep: LocalRepData, eta_val: int, k: int, X: Fraction | int) -> tuple[int, int]:
    """r_z_sum as an unreduced integer pair (numerator, denominator)."""
    _check_r_z_args("r_z_sum", k, eta_val, X)
    a, b = X.numerator, X.denominator
    return _defining_sum(rep, k, 0, lambda j: _q_poly_pair(j, rep, eta_val, a, b))


def r_z_sum(rep: LocalRepData, eta_val: int, k: int, X: Fraction | int) -> Fraction:
    """r^(z) by its defining sum of q_poly_one(j) Q_j(eta, X) / tau_jj(j)
    over j <= k: the oracle for r_z, at a rational X, on integers
    (_r_z_sum_pair, see _defining_sum) built into one Fraction."""
    return Fraction(*_r_z_sum_pair(rep, eta_val, k, X))


def partial_r(rep: LocalRepData, eta_val: int, k: int) -> Fraction:
    """-(1/log q) d/dz r^(z) at z = 1/2; equals dr/dX at X = 1.  Each case
    is one integer numerator over one denominator, with Q = Qn/Qd and
    chi/q cleared."""
    _check_k("partial_r", k, eta_val)
    q, c, sgn = rep.q, rep.c, (-1) ** k
    if c == 0:
        Qn, Qd = rep.Q.numerator, rep.Q.denominator
        if eta_val == -1:
            # -1/(1+Q) + [k even] (2q + (q+1)Q)/((q-1)(1+Q)) + ((-1)^k (2k-3) - 1)/4 (q+1)/(q-1)
            num = (2 * (1 + sgn) * (2 * q * Qd + (q + 1) * Qn) + (sgn * (2 * k - 3) - 1) * (q + 1) * (Qd + Qn)
                   - 4 * (q - 1) * Qd)
            return Fraction(num, 4 * (q - 1) * (Qd + Qn))
        # 1/(1+Q) + (k-1)(2q - (q+1)Q)/((q-1)(1+Q)) + (k-2)(k-1)/2 (q+1)(1-Q)/((q-1)(1+Q))
        num = 2 * (q - 1) * Qd + 2 * (k - 1) * (2 * q * Qd - (q + 1) * Qn) + (k - 2) * (k - 1) * (q + 1) * (Qd - Qn)
        return Fraction(num, 2 * (q - 1) * (Qd + Qn))
    if c == 1:
        if eta_val == -1:
            # -[k odd]/(1 + chi/q) + (1 + (-1)^k (2k-1))/4
            return Fraction((1 + sgn * (2 * k - 1)) * (q + rep.chi) - 2 * (1 - sgn) * q, 4 * (q + rep.chi))
        # k/(1 + chi/q) + (1 - chi/q)/(1 + chi/q) k(k-1)/2, corrected from the
        # defining sum; the k(k+1)/2 variant fails it
        return Fraction(2 * k * q + (q - rep.chi) * k * (k - 1), 2 * (q + rep.chi))
    return Fraction(sgn * (2 * k + 1) - 1, 4) if eta_val == -1 else Fraction(k * (k + 1), 2)


def partial_r_sum(rep: LocalRepData, eta_val: int, k: int) -> Fraction:
    """The oracle for partial_r: the term-by-term derivative of the defining
    sum, sum_(1 <= j <= k) q_poly_one(j) Q_j'(eta, 1) / tau_jj(j), with each
    Q_j'(eta, 1) an integer pair (_dq_poly_pair) and the terms added on
    integers (see _defining_sum)."""
    _check_k("partial_r_sum", k, eta_val)
    return Fraction(*_defining_sum(rep, k, 1, lambda j: _dq_poly_pair(j, rep, eta_val)))


def _dq_poly_pair(j: int, rep: LocalRepData, eta_val: int) -> tuple[int, int]:
    """d/dX Q_j(eta, X) at X = 1, j >= 1, from the explicit polynomial cases,
    as an integer pair (numerator, denominator): the denominators q and Q's
    denominator cleared."""
    q, c, e = rep.q, rep.c, eta_val
    if c == 0 and j == 1:
        return e, 1
    if c == 1:
        # e^(j-1) ((j-1)(e - chi/q) + e)
        return e ** (j - 1) * ((j - 1) * (e * q - rep.chi) + e * q), q
    if c == 0:
        # (1/q) e^(j-2) ((j-2) quad(1) + quad'(1)), quad(1) = (q+1)(1 - eQ), quad'(1) = 2q - eQ(q+1)
        Qn, Qd = rep.Q.numerator, rep.Q.denominator
        return e ** (j - 2) * ((j - 2) * (q + 1) * (Qd - e * Qn) + 2 * q * Qd - e * Qn * (q + 1)), q * Qd
    return j * e ** j, 1


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
        raise InputError(f"the conductor f_pi={f_pi} of the representation must divide the level n={n}")
    m = n.divide(f_pi)
    for p in m.support:
        if p not in reps:
            raise InputError(f"missing local datum at {p.id}, a prime of n={n}")
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
    r_vals = {p: r_z(rep, -1, k, 1) for p, rep, k in places}
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
    return log_norm(f_pi) * Fraction(-1, 2) - log_norm(eta.conductor) + FormalLog.symbol("logDF", -1)
