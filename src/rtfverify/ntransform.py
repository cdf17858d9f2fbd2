"""The newform-extraction transform of arithmetic functions on ideal monoids.

Two mutually inverse operations drive everything here: a forward sum over
square divisors with omega/iota weights, and an alternating inclusion-
exclusion over the squarefull support that undoes it.  Both are exact in
rational arithmetic; the closed forms for norm powers and for log-norm are
checked against the defining sums elsewhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import DomainError, NonRationalPower
from .formal import FormalLog
from .ideals import Ideal, iota, omega_pair, omega_v, square_decompose, stratum

Value = Fraction | FormalLog


class Domain:
    """A divisor-closed set of ideals (n in D and n subset m implies m in D)."""

    def contains(self, n: Ideal) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class AllIdeals(Domain):
    def contains(self, n: Ideal) -> bool:
        return True


@dataclass(frozen=True)
class DivisorsOf(Domain):
    root: Ideal

    def contains(self, n: Ideal) -> bool:
        return n.divides(self.root)


@dataclass
class ArithFn:
    """An arithmetic function together with its declared domain."""

    fn: Callable[[Ideal], Value]
    domain: Domain = AllIdeals()

    def __call__(self, n: Ideal) -> Value:
        if not self.domain.contains(n):
            raise DomainError(f"{n} outside the declared domain")
        return self.fn(n)


def _squarefull_subsets(n: Ideal):
    """Subsets I of S(n1), yielding (sign, omega-product over I cap S1(n1),
    iota ratio, n * prod_{v in I} p^-2)."""
    n0, n1 = square_decompose(n)
    s1_n1 = set(stratum(n1, 1))
    supp = list(n1.support)
    iota_n = iota(n)
    for mask in range(1 << len(supp)):
        chosen = [supp[i] for i in range(len(supp)) if mask >> i & 1]
        m = n.divide(Ideal.of({p: 2 for p in chosen}))
        w = Fraction(1)
        for p in chosen:
            if p in s1_n1:
                w *= omega_v(p, n0)
        yield (-1) ** len(chosen), w, iota(m) / iota_n, m


def n_transform(B: ArithFn, n: Ideal) -> Value:
    """Alternating inclusion-exclusion extracting the new part of B at n."""
    total: Value = Fraction(0)
    for sign, w, iratio, m in _squarefull_subsets(n):
        total = total + (sign * w * iratio) * _as_value(B(m))
    return total


def n_plus(B: ArithFn, n: Ideal) -> Value:
    """All-positive-signs majorant of the transform."""
    total: Value = Fraction(0)
    for _sign, w, iratio, m in _squarefull_subsets(n):
        total = total + (w * iratio) * _as_value(B(m))
    return total


def convolve_omega(A: ArithFn, n: Ideal) -> Value:
    """Forward sum over square divisors, with the index weights folded in:

        B(n) = sum_{b | n1} omega(n, b^2) * iota(n b^-2)/iota(n) * A(n b^-2).

    n_transform inverts this map exactly (and vice versa).
    """
    _, n1 = square_decompose(n)
    total: Value = Fraction(0)
    for b in n1.divisors():
        m = n.divide(b.pow(2))
        total = total + (omega_pair(n, b.pow(2)) * iota(m) / iota(n)) * _as_value(A(m))
    return total


def _as_value(v: Value) -> Value:
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    return v


# ---------------------------------------------------------------------------
# closed forms


def _iroot(x: int, k: int) -> int:
    """The largest r >= 0 with r^k <= x, by integer Newton steps."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)   # 2^ceil(bits/k) > x^(1/k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _norm_power_exact(n: Ideal, t: Fraction) -> Fraction:
    nt = Fraction(n.norm) ** t.numerator
    if t.denominator == 1:
        return nt
    # need an exact rational root; norms may exceed the float range
    d = t.denominator
    rn = _iroot(nt.numerator, d)
    rd = _iroot(nt.denominator, d)
    if rn ** d == nt.numerator and rd ** d == nt.denominator:
        return Fraction(rn, rd)
    raise NonRationalPower(f"norm({n})^{t} is irrational")


def closed_power(n: Ideal, t: Fraction | int, exact: bool = True) -> Fraction | float:
    """Closed form of the transform of norm^t:

        norm(n)^t * prod_{S(n1)-S2(n)} (1 - q^-2(1+t))
                  * prod_{S2(n)}       (1 - (1-1/q)^-1 q^-2(1+t)).
    """
    t = Fraction(t)
    _, n1 = square_decompose(n)
    s2 = set(stratum(n, 2))
    if exact:
        out = _norm_power_exact(n, t)
        for p in n1.support:
            qpow = _norm_power_exact(Ideal.of({p: 1}), -2 * (1 + t))
            if p in s2:
                out *= 1 - Fraction(p.q, p.q - 1) * qpow
            else:
                out *= 1 - qpow
        return out
    out_f = float(n.norm) ** float(t)
    for p in n1.support:
        qpow = float(p.q) ** float(-2 * (1 + t))
        out_f *= 1 - (p.q / (p.q - 1)) * qpow if p in s2 else 1 - qpow
    return out_f


def closed_log(n: Ideal) -> FormalLog:
    """Closed form of the transform of log norm: the t-derivative of
    closed_power at t=0, as an exact FormalLog."""
    nu = closed_power(n, 0)
    _, n1 = square_decompose(n)
    s2 = set(stratum(n, 2))
    bracket = FormalLog.zero()
    for p, e in n.exps:
        bracket = bracket + FormalLog.log_integer(p.q, e)
    for p in n1.support:
        if p in s2:
            bracket = bracket + FormalLog.log_integer(p.q, Fraction(2, p.q ** 2 - p.q - 1))
        else:
            bracket = bracket + FormalLog.log_integer(p.q, Fraction(2, p.q ** 2 - 1))
    return bracket * nu


def n_plus_closed_power(n: Ideal, t: Fraction | int, exact: bool = True) -> Fraction | float:
    """Closed form of the all-positive majorant on norm^t."""
    t = Fraction(t)
    _, n1 = square_decompose(n)
    s2 = set(stratum(n, 2))
    if exact:
        out = _norm_power_exact(n, t)
        for p in n1.support:
            qpow = _norm_power_exact(Ideal.of({p: 1}), -2 * (1 + t))
            if p in s2:
                out *= 1 + Fraction(p.q, p.q - 1) * qpow
            else:
                out *= 1 + qpow
        return out
    out_f = float(n.norm) ** float(t)
    for p in n1.support:
        qpow = float(p.q) ** float(-2 * (1 + t))
        out_f *= 1 + (p.q / (p.q - 1)) * qpow if p in s2 else 1 + qpow
    return out_f


def norm_power_fn(t: Fraction | int) -> ArithFn:
    return ArithFn(lambda n: _norm_power_exact(n, Fraction(t)))


def log_norm_fn() -> ArithFn:
    return ArithFn(lambda n: FormalLog.log_integer(n.norm) if n.norm > 1 else FormalLog.zero())


def one_fn() -> ArithFn:
    return ArithFn(lambda n: Fraction(1))
