"""Abstract ideal-monoid arithmetic over a declared finite set of places.

Places are opaque labels carrying a residue cardinality q; ideals are finite
exponent maps over them.  Nothing here factors ideals of an actual number
field: norms, the index iota, character values and the omega combinatorics
depend only on (q_v, ord_v), which is all the transforms downstream need.

Both are tuple-backed: a Prime is the tuple (id, q) and an Ideal the tuple of
its (Prime, exponent) pairs, so they hash, compare and construct as tuples do,
in C.  Iterating an Ideal gives its pairs.  They keep tuple's other behaviour:
a Prime equals the plain tuple (id, q) and an Ideal the plain tuple of its
pairs; Ideals order as tuples; `x in n` tests for a (Prime, exponent) pair, so
`p in n` is False for every Prime p (use n.ord(p) or n.support); the unit
ideal is falsy; and `n + m` and `2 * n` are tuple concatenation and
repetition, returning plain tuples (Ideal * Ideal is the ideal product, and
`n * 2` raises TypeError).
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import CoprimalityError, InputError


class Prime(tuple):
    """A finite place: opaque id plus residue field cardinality q >= 2, as the
    tuple (id, q).  Hashing, equality and the (id, q) order are tuple's."""

    __slots__ = ()

    def __new__(cls, id: str, q: int) -> "Prime":
        residue_cardinality(q, f"prime {id!r}")
        return tuple.__new__(cls, (id, q))

    id = property(itemgetter(0))
    q = property(itemgetter(1))

    def __getnewargs__(self):   # pickle and copy rebuild through __new__
        return tuple(self)

    def __repr__(self):
        return f"Prime(id={self.id!r}, q={self.q!r})"


class Ideal(tuple):
    """An integral ideal: the tuple of its (Prime, exponent) pairs, in sorted
    order with positive exponents; the empty tuple is O.  Ideal(pairs) takes
    pairs already in that form; Ideal.of builds one from any exponent map.
    Hashing, equality and construction are tuple's, so an Ideal equals a plain
    tuple with the same pairs."""

    __slots__ = ()

    @classmethod
    def unit(cls) -> "Ideal":
        return cls(())

    @classmethod
    def of(cls, exps: Mapping[Prime, int]) -> "Ideal":
        items = tuple(sorted(((p, e) for p, e in exps.items() if e != 0)))
        for p, e in items:
            if e < 0:
                raise InputError(f"negative exponent {e} at {p.id}")
        ids = [p.id for p, _ in items]
        if len(set(ids)) != len(ids):
            raise InputError(f"duplicate prime ids in exponent map: {sorted({i for i in ids if ids.count(i) > 1})}")
        return cls(items)

    def ord(self, p: Prime) -> int:
        for q, e in self:
            if q == p:
                return e
        return 0

    @property
    def support(self) -> tuple[Prime, ...]:
        return tuple(p for p, _ in self)

    @property
    def is_unit(self) -> bool:
        return not self

    @property
    def norm(self) -> int:
        n = 1
        for p, e in self:
            n *= p.q ** e
        return n

    # The methods below build their result straight from self's pairs when it
    # keeps self's sorted order and positive exponents, without Ideal.of.

    def __mul__(self, other: "Ideal") -> "Ideal":
        d = dict(self)
        for p, e in other:
            d[p] = d.get(p, 0) + e
        if len(d) > len(self):   # a new place: sort and check its id
            return Ideal.of(d)
        return Ideal((p, d[p]) for p, _ in self)

    def divide(self, other: "Ideal") -> "Ideal":
        """Exact quotient self * other^-1; raises if not integral."""
        d = dict(self)
        for p, e in other:
            r = d.get(p, 0) - e
            if r < 0:
                raise InputError(f"{other} does not divide {self}")
            d[p] = r
        return Ideal((p, d[p]) for p, _ in self if d[p])

    def divides(self, other: "Ideal") -> bool:
        return all(other.ord(p) >= e for p, e in self)

    def pow(self, k: int) -> "Ideal":
        if k < 0 and self:
            raise InputError(f"negative power {k} of {self}")
        return Ideal((p, e * k) for p, e in self) if k else Ideal(())

    def divisors(self) -> Iterator["Ideal"]:
        primes = [p for p, _ in self]
        ranges = [range(e + 1) for _, e in self]
        for combo in itertools.product(*ranges):
            yield Ideal((p, k) for p, k in zip(primes, combo) if k)

    def __repr__(self):
        return f"Ideal(exps={tuple(self)!r})"

    def __str__(self):
        if not self:
            return "O"
        return "*".join(p.id if e == 1 else f"{p.id}^{e}" for p, e in self)


@dataclass(frozen=True)
class QuadCharData:
    """Combinatorial presentation of a quadratic idele-class character.

    eps is the number of infinite places with sign -1; ram maps ramified
    primes to conductor exponents f(eta_v) >= 1; unram records eta_v(varpi_v)
    at declared unramified primes.  The two prime supports must be disjoint.
    """

    eps: int
    arch_signs: tuple[int, ...]
    ram: tuple[tuple[Prime, int], ...] = ()
    unram: tuple[tuple[Prime, int], ...] = ()

    def __post_init__(self):
        if self.eps != sum(1 for s in self.arch_signs if s == -1):
            raise InputError(f"eta 'eps' must count the 'arch_signs' equal to -1, got eps={self.eps}, "
                             f"arch_signs={list(self.arch_signs)}")
        if any(s not in (1, -1) for s in self.arch_signs):
            raise InputError(f"eta 'arch_signs' must be +-1, got {list(self.arch_signs)}")
        if any(f < 1 for _, f in self.ram):
            raise InputError(f"eta 'ram' conductor exponents must be >= 1, got {({p.id: f for p, f in self.ram})}")
        if any(v not in (1, -1) for _, v in self.unram):
            raise InputError(f"eta 'unram' values must be +-1, got {({p.id: v for p, v in self.unram})}")
        both = {p.id for p, _ in self.ram} & {p.id for p, _ in self.unram}
        if both:
            raise InputError(f"eta 'ram' and 'unram' must be disjoint, both name {sorted(both)}")

    @classmethod
    def build(cls, eps: int, arch_signs: Iterable[int],
              ram: Mapping[Prime, int] | None = None,
              unram: Mapping[Prime, int] | None = None) -> "QuadCharData":
        return cls(eps, tuple(arch_signs),
                   tuple(sorted((ram or {}).items())),
                   tuple(sorted((unram or {}).items())))

    @property
    def ram_primes(self) -> tuple[Prime, ...]:
        return tuple(p for p, _ in self.ram)

    @property
    def conductor(self) -> Ideal:
        return Ideal.of({p: f for p, f in self.ram})

    def tilde_eta(self, p: Prime) -> int:
        for q, v in self.unram:
            if q == p:
                return v
        if p in self.ram_primes:
            raise CoprimalityError(f"tilde eta undefined at ramified prime {p.id}")
        raise CoprimalityError(f"no declared eta value at prime {p.id}")

    def tilde_eta_ideal(self, n: Ideal) -> int:
        """Completely multiplicative extension to ideals prime to the conductor."""
        val = 1
        for p, e in n:
            if self.tilde_eta(p) == -1 and e % 2 == 1:
                val = -val
        return val


# ---------------------------------------------------------------------------
# support strata, square decomposition, iota


def stratum(m: Ideal, k: int) -> tuple[Prime, ...]:
    return tuple(p for p, e in m if e == k)


def square_decompose(n: Ideal) -> tuple[Ideal, Ideal]:
    """n = n0 * n1^2 with n0 the largest squarefree divisor of that shape."""
    return (Ideal((p, e % 2) for p, e in n if e % 2),
            Ideal((p, e // 2) for p, e in n if e >= 2))


def iota(m: Ideal) -> Fraction:
    """Index of the level-m congruence subgroup: prod (1+q) q^(ord-1)."""
    out = Fraction(1)
    for p, e in m:
        out *= (1 + p.q) * p.q ** (e - 1)
    return out


def sign_class(n: Ideal, eta: QuadCharData) -> int | None:
    """The sign (-1)^eps(eta) * tilde_eta(n) of n in the inert monoid, whose
    ideals have tilde_eta(p) = -1 at every prime p: +1 on the plus class, -1
    on the minus class, and None for an n outside the monoid.  A prime of n
    in the conductor of eta, or with no declared value, raises
    CoprimalityError."""
    bad = set(n.support) & set(eta.ram_primes)
    if bad:
        raise CoprimalityError(f"ideal meets excluded primes: {sorted(p.id for p in bad)}")
    value = (-1) ** eta.eps * eta.tilde_eta_ideal(n)
    return value if all(eta.tilde_eta(p) == -1 for p in n.support) else None


def omega_v(p: Prime, c: Ideal) -> Fraction:
    return Fraction(1) if c.ord(p) > 0 else Fraction(p.q + 1, p.q - 1)


def omega_pair(m: Ideal, b: Ideal) -> Fraction:
    """omega(m, b) = delta(m subset b) prod_{v in S(b)} omega_v(m b^-1)."""
    if not b.divides(m):
        return Fraction(0)
    quot = m.divide(b)
    out = Fraction(1)
    for p in b.support:
        out *= omega_v(p, quot)
    return out


# ---------------------------------------------------------------------------
# JSON configuration

CONFIG_SCHEMA = 1


def config_from_json(obj: dict) -> tuple[dict[str, Prime], QuadCharData]:
    """Parse the versioned config: primes plus the quadratic character.  A
    missing or malformed key, a prime id declared twice, or an eta entry at a
    prime the config does not declare, raises an InputError naming it."""
    if not isinstance(obj, dict):
        raise InputError(f"config must be a JSON object, got {type(obj).__name__}")
    if obj.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise InputError(f"unsupported config schema {obj.get('schema')}, expected {CONFIG_SCHEMA}")
    if not isinstance(obj.get("primes"), list):
        raise InputError("config has no 'primes' list")
    primes = {}
    for d in obj["primes"]:
        if not isinstance(d, dict) or "id" not in d or "q" not in d:
            raise InputError(f"config prime {d!r} needs an 'id' and a 'q'")
        pid = json_value(d["id"], (str,), "config prime id")
        if pid in primes:
            raise InputError(f"config declares prime {pid!r} twice")
        primes[pid] = Prime(pid, d["q"])
    eta_obj = json_value(obj.get("eta", {"eps": 0, "arch_signs": [1]}), (dict,), "config 'eta'")

    def at_primes(key: str) -> dict[Prime, int]:
        values = json_value(eta_obj.get(key, {}), (dict,), f"config eta {key!r}")
        for k in values:
            if k not in primes:
                raise InputError(f"config eta {key!r} names prime {k!r}, the config has {sorted(primes)}")
        return {primes[k]: json_value(v, (int,), f"config eta {key!r} at {k!r}") for k, v in values.items()}

    eta = QuadCharData.build(
        eps=json_value(eta_obj.get("eps", 0), (int,), "config eta 'eps'"),
        arch_signs=[json_value(s, (int,), "config eta 'arch_signs' entry")
                    for s in json_value(eta_obj.get("arch_signs", [1]), (list,), "config eta 'arch_signs'")],
        ram=at_primes("ram"),
        unram=at_primes("unram"),
    )
    return primes, eta


_JSON_NAMES = {int: "integer", float: "float", str: "string", list: "array", dict: "object"}


def json_value(value, kinds: tuple[type, ...], owner: str):
    """value as read from JSON, refused with an InputError naming owner
    unless its type is one of kinds (a bool is not an int, "3" is not a
    number)."""
    if type(value) not in kinds:
        raise InputError(f"{owner} must be a JSON {' or '.join(_JSON_NAMES[k] for k in kinds)}, got {value!r}")
    return value


def residue_cardinality(q, owner: str) -> int:
    """q, a residue cardinality: an integer q >= 2 (not a float or a bool),
    or an InputError naming owner.  The one check of q wherever one is taken in."""
    if type(q) is not int or q < 2:
        raise InputError(f"{owner} needs an integer q >= 2, got q={q!r}")
    return q


def load_config(path: str) -> tuple[dict[str, Prime], QuadCharData, dict]:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"config {path!r}: {exc.strerror}") from None
    except ValueError as exc:       # JSON syntax or text encoding
        raise InputError(f"config {path!r} is not valid JSON: {exc}") from None
    primes, eta = config_from_json(obj)
    return primes, eta, obj


def parse_ideal(text: str, primes: Mapping[str, Prime]) -> Ideal:
    """Parse "p^2*q" style ideal strings; "O" (or "1") is the unit ideal.
    An unknown prime or a non-integer exponent raises an InputError."""
    text = text.strip()
    if text in ("O", "o", "1", ""):
        return Ideal.unit()
    exps: dict[Prime, int] = {}
    for part in text.split("*"):
        name, caret, e = part.partition("^")
        name = name.strip()
        if name not in primes:
            raise InputError(f"ideal {text!r}: unknown prime {name!r}, the config has {sorted(primes)}")
        p = primes[name]
        try:
            exps[p] = exps.get(p, 0) + (int(e) if caret else 1)
        except ValueError:
            raise InputError(f"ideal {text!r}: exponent {e!r} is not an integer") from None
    return Ideal.of(exps)
