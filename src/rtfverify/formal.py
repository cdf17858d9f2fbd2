"""Exact Q-linear combinations of transcendental symbols.

A FormalLog is  const + sum_i  c_i * sym_i  with rational coefficients.  All
main-term identities in this package are checked by exact cancellation of
these coefficients, never by floating comparison.

Symbols in use:
    log@<p>   natural log of a rational prime p (residue cardinalities q = p^f
              are canonicalised to f * log@p, so relabelling places with equal
              q cannot break an identity)
    logDF     log of the base-field discriminant
    LpL       L'/L(1, eta)
    frakC     the archimedean constant attached to the weight
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping

from .errors import InputError

LOG_DF = "logDF"
LPL = "LpL"
FRAKC = "frakC"

Rat = Fraction | int


# the primes below 2^11, by trial division; every n < 2048^2 (about 4.2e6)
# is factored by this table alone
_SMALL_PRIMES = (2,) + tuple(p for p in range(3, 2048, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))


def _factor_small(n: int) -> list[tuple[int, int]]:
    """The (prime, exponent) pairs of n >= 1, primes ascending, by trial
    division: first by the fixed table of small primes, then by the odd
    numbers past it.  The inputs are desk-scale: residue cardinalities
    (a prime q = 10^9 + 7 runs on past the table, up to sqrt q), and the
    numerators of the hyperbolic points of lattice, up to about 2e6, which
    the table covers."""
    out = []
    trial = _SMALL_PRIMES if n < 2048 ** 2 else itertools.chain(_SMALL_PRIMES, itertools.count(2049, 2))
    for d in trial:
        if d * d > n:
            break
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
    if n > 1:
        out.append((n, 1))
    return out


@cache
def _log_terms(q: int) -> tuple[tuple[tuple[int, str], int], ...]:
    """q = prod r^f as the ((r, "log@r"), f) pairs, r ascending, cached by
    q: one entry per residue cardinality seen, read by log_integer and by
    ntransform's log norms."""
    return tuple(((r, f"log@{r}"), f) for r, f in _factor_small(q))


class FormalLog:
    """const + sum_i coeffs[sym_i] * sym_i, kept normalised: const is a
    Fraction and every stored coefficient is a non-zero Fraction, so equality
    and hashing compare values.  __init__ establishes this from any rationals.

    The arithmetic (+, -, *, / by a scalar, negation and the reflected forms)
    builds its results through the private FormalLog._trusted: Fraction
    arithmetic already returns reduced Fractions, so it only drops the
    coefficients that become 0, and a product by 0 is the zero FormalLog.
    Each result equals FormalLog(result.const, result.coeffs) and owns a
    fresh dict.  _trusted must never be handed anything else.  FormalLog._sum
    adds a list of terms on integers, in the order a chain of + gives them;
    evaluate adds the coefficients in that insertion order, so the order
    fixes the bits of a float value."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: Rat = 0, coeffs: Mapping[str, Rat] | None = None):
        self.const = Fraction(const)
        self.coeffs: dict[str, Fraction] = {}
        if coeffs:
            for sym, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[sym] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "FormalLog":
        return cls(0)

    @classmethod
    def symbol(cls, sym: str, coeff: Rat = 1) -> "FormalLog":
        return cls(0, {sym: coeff})

    @classmethod
    def _trusted(cls, const: Fraction, coeffs: dict[str, Fraction]) -> "FormalLog":
        """Build without normalising.  The caller guarantees what __init__
        would otherwise establish: const is a Fraction, and coeffs is a fresh
        dict (the result takes ownership) whose values are non-zero Fractions.
        The Fractions themselves may be shared with other values: they are
        immutable, and no FormalLog operation changes one in place.  The
        arithmetic operators, log_integer and the hot loops of ntransform
        build through here."""
        self = object.__new__(cls)
        self.const = const
        self.coeffs = coeffs
        return self

    @classmethod
    def _sum(cls, terms: Iterable[tuple[str, int, int]]) -> "FormalLog":
        """The sum of num/den * sym over the (sym, num, den) terms, den > 0,
        with const 0: one integer numerator per symbol over a running
        denominator, and one Fraction per symbol at the end.  It equals the
        chain of + over the terms in coefficient order too: a symbol whose
        sum reaches 0 leaves, and re-enters at the end if a later term names
        it."""
        sums: dict[str, list[int]] = {}
        for sym, num, den in terms:
            if not num:
                continue
            pair = sums.setdefault(sym, [0, den])
            if pair[1] == den:
                pair[0] += num
            else:
                g = math.gcd(pair[1], den)
                pair[0] = pair[0] * (den // g) + num * (pair[1] // g)
                pair[1] = pair[1] // g * den
            if not pair[0]:
                del sums[sym]
        return cls._trusted(Fraction(0), {sym: Fraction(a, b) for sym, (a, b) in sums.items()})

    @classmethod
    def log_integer(cls, n: int, coeff: Rat = 1) -> "FormalLog":
        """log n for an integer n >= 1, canonicalised into prime symbols read
        from the cache _log_terms; an int coeff is read as it is."""
        if n < 1:
            raise InputError(f"log_integer wants an integer n >= 1, got n={n!r}")
        if not coeff:
            return cls._trusted(Fraction(0), {})
        a, b = coeff.numerator, coeff.denominator
        return cls._trusted(Fraction(0), {sym: Fraction(a * e, b) for (_r, sym), e in _log_terms(n)})

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FormalLog | Rat") -> "FormalLog":
        other = _promote(other)
        coeffs = dict(self.coeffs)
        for sym, c in other.coeffs.items():
            if sym in coeffs:
                c = coeffs[sym] + c
                if not c:
                    del coeffs[sym]
                    continue
            coeffs[sym] = c
        return FormalLog._trusted(self.const + other.const, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "FormalLog":
        return FormalLog._trusted(-self.const, {s: -c for s, c in self.coeffs.items()})

    def __sub__(self, other: "FormalLog | Rat") -> "FormalLog":
        return self + (-_promote(other))

    def __rsub__(self, other: "FormalLog | Rat") -> "FormalLog":
        return _promote(other) + (-self)

    def __mul__(self, scalar: Rat) -> "FormalLog":
        if not isinstance(scalar, Fraction):
            scalar = Fraction(scalar)
        if not scalar:
            return FormalLog._trusted(Fraction(0), {})
        return FormalLog._trusted(self.const * scalar, {s: c * scalar for s, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rat) -> "FormalLog":
        return self * (1 / Fraction(scalar))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (FormalLog, Fraction, int)):
            return NotImplemented
        other = _promote(other)
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.const, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return self.const == 0 and not self.coeffs

    # -- evaluation / serialisation -----------------------------------------

    def evaluate(self, bindings: Mapping[str, float] | None = None) -> float:
        """Numeric value; log@p symbols default to math.log(p)."""
        bindings = bindings or {}
        # num / den has the bits of float(Fraction), which computes just that
        total = self.const.numerator / self.const.denominator
        for sym, c in self.coeffs.items():
            if sym in bindings:
                v = bindings[sym]
            elif sym.startswith("log@"):
                v = math.log(int(sym[4:]))
            else:
                raise KeyError(f"unbound symbol {sym!r}")
            total += c.numerator / c.denominator * v
        return total

    def to_json(self) -> dict:
        return {
            "const": str(self.const),
            "coeffs": {s: str(c) for s, c in sorted(self.coeffs.items())},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FormalLog":
        return cls(Fraction(obj["const"]), {s: Fraction(c) for s, c in obj.get("coeffs", {}).items()})

    def __repr__(self):
        parts = [str(self.const)] if self.const or not self.coeffs else []
        parts += [f"{c}*{s}" for s, c in sorted(self.coeffs.items())]
        return "FormalLog(" + " + ".join(parts or ["0"]) + ")"


def _promote(x: "FormalLog | Rat") -> FormalLog:
    if isinstance(x, FormalLog):
        return x
    return FormalLog(x)
