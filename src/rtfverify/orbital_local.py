"""Non-archimedean log-weighted orbital integrals on the split torus.

Every closed form here reduces to finite shell sums of eta(t) log|t| over
annuli of the local field, so each carries an elementary summation oracle
which the tests require to match exactly.

Sign convention: the zeroth shell coefficient at a place with
eta(varpi) = -1 is defined as the value of its shell sum,

    delta0(b) = sum_(k=0..ord b) eta(varpi)^k * (-k)
              = (1 - eta(b))/4 - ord(b) eta(b)/2.

The opposite-sign variant fails to specialise to the level-support integral
at conductor exponent one and is rejected by the oracle.

Every shell coefficient is an integer: tilde_delta and tilde_delta_oracle are
Fraction views of integer cores.  The two tilde-I sums add the cores into one
integer numerator, building one Fraction, and w_unramified passes its core to
log_integer as an int.

Every value is in units of the local volume vol(O_v^x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .formal import FormalLog, _factor_small
from .ideals import residue_cardinality


@dataclass(frozen=True)
class LocalPoint:
    """Orbit representative b in F_v - {0, -1} through its two valuations.

    Ultrametric consistency: ord(b) < 0 forces ord(b+1) = ord(b); ord(b) > 0
    forces ord(b+1) = 0; only ord(b) = 0 leaves ord(b+1) >= 0 free.
    """

    ordb: int
    ordb1: int

    def __post_init__(self):
        if self.ordb < 0 and self.ordb1 != self.ordb:
            raise InputError(f"ord(b) < 0 forces ord(b+1) = ord(b), got {self.ordb}, {self.ordb1}")
        if self.ordb > 0 and self.ordb1 != 0:
            raise InputError(f"ord(b) > 0 forces ord(b+1) = 0, got {self.ordb}, {self.ordb1}")
        if self.ordb == 0 and self.ordb1 < 0:
            raise InputError(f"ord(b) = 0 forces ord(b+1) >= 0, got ord(b+1)={self.ordb1}")

    @property
    def ord_bb1(self) -> int:
        return self.ordb + self.ordb1


def eta_at(eta_val: int, order: int) -> int:
    """eta_v of an element of the given valuation at an unramified place."""
    return eta_val ** (order & 1) if eta_val == -1 else 1


def lambda_v(point: LocalPoint) -> int:
    """delta(b integral) * (ord(b(b+1)) + 1)."""
    if point.ordb < 0:
        return 0
    return point.ord_bb1 + 1


def tau_S_rational(u: int, v: int, bset_norm: int) -> int:
    """tau^(S(bset))(b) over the rationals at b = u/v in lowest terms,
    v > 0: the product of Lambda_p off the support of bset, times
    integrality indicators b in bset^-1 Z_p on it."""
    if v <= 0 or math.gcd(u, v) != 1 or u in (0, -v):   # an internal invariant: lattice reduces b
        raise ValueError(f"b = u/v in lowest terms avoiding 0 and -1 required, got u={u}, v={v}")
    bset_primes = dict(_factor_small(bset_norm))
    for p, e in _factor_small(v):
        # ord_p(b) = -e must stay >= -ord_p(bset); off-support primes need e = 0
        if e > bset_primes.get(p, 0):
            return 0
    tau = 1
    # b(b+1) = u(u+v)/v^2 with u and u+v coprime, so their factorisations
    # together are that of the numerator
    for p, e in _factor_small(abs(u)) + _factor_small(abs(u + v)):
        if p not in bset_primes:
            tau *= e + 1
    return tau


# ---------------------------------------------------------------------------
# shell sums: the elementary integrals everything reduces to


def shell_sum(eta_val: int, lo: int, hi: int) -> int:
    """sum_(k=lo..hi) eta(varpi)^k * k  — the t-integral of eta(t) log|t|
    over lo <= ord(t) <= hi, divided by (-log q) vol(O^x)."""
    return sum(k if (eta_val == 1 or k % 2 == 0) else -k for k in range(lo, hi + 1))


def _tilde_delta_int(n: int, point: LocalPoint, eta_val: int) -> int:
    """delta-tilde_n(b), n >= 0, as the integer it is: at n = 0 it is
    -ordb (ordb + 1)/2 at eta = +1 and (1 - eb - 2 ordb eb)/4 at eta = -1,
    eb = eta(b) = (-1)^ordb, both exact divisions."""
    if n >= 1:
        if point.ordb <= -n:
            return 0
        return eta_at(eta_val, n) * eta_at(eta_val, point.ordb) * (-n - point.ordb)
    if point.ordb <= 0:
        return 0
    if eta_val == 1:
        return -point.ordb * (point.ordb + 1) // 2
    eb = eta_at(-1, point.ordb)
    return (1 - eb - 2 * point.ordb * eb) // 4


def tilde_delta(n: int, point: LocalPoint, eta_val: int) -> Fraction:
    """delta-tilde_n(b): the n-th shell-sum coefficient.

    n >= 1: delta(|b| < q^n) eta(varpi^n) eta(b) (-n - ord b).
    n = 0:  the integral-consistent value (see module docstring).
    """
    if n < 0:
        raise InputError(f"tilde_delta wants n >= 0, got n={n}")
    return Fraction(_tilde_delta_int(n, point, eta_val))


def _tilde_delta_oracle_int(n: int, point: LocalPoint, eta_val: int) -> int:
    """The shell sums of tilde_delta_oracle, as integers."""
    if n == 0:
        # shells ord(t) = 0 .. ord(b), requires |b| < 1
        if point.ordb <= 0:
            return 0
        return -shell_sum(eta_val, 0, point.ordb)
    # single shell ord(t) = n + ord(b), requires |b| <= q^n
    if point.ordb < -n:
        return 0
    k = n + point.ordb
    return -eta_at(eta_val, k) * k


def tilde_delta_oracle(n: int, point: LocalPoint, eta_val: int) -> Fraction:
    """Shell-sum oracle: the t-integral over |t| <= 1, sup(1, |b|/|t|) = q^n,
    divided by vol * log q."""
    return Fraction(_tilde_delta_oracle_int(n, point, eta_val))


# ---------------------------------------------------------------------------
# the S-place integral transforms


def tilde_I_plus_scaled(m: int, point: LocalPoint, q: int, eta_val: int) -> Fraction:
    """q^(m/2)/(vol log q) times the closed form: exactly rational."""
    if m < 0:
        raise InputError(f"tilde_I_plus_scaled wants m >= 0, got m={m}")
    total = -_tilde_delta_int(m, point, eta_val)
    for l in range(max(0, 1 - point.ordb), m):
        total += ((m - l - 1) * q - (m - l + 1)) * _tilde_delta_int(l, point, eta_val)
    return Fraction(2 * total if m == 0 else total)


def tilde_I_plus_oracle_scaled(m: int, point: LocalPoint, q: int, eta_val: int) -> Fraction:
    """Shell-sum oracle for tilde_I_plus_scaled, m >= 1: sums the transformed
    kernel coefficients against the elementary t-integrals."""
    if m < 1:
        raise InputError(f"tilde_I_plus_oracle_scaled is defined for m >= 1, got m={m}")
    # level m shell pattern
    total = -_tilde_delta_oracle_int(m, point, eta_val)
    for l in range(0, m):
        total += ((m - l - 1) * q - (m - l + 1)) * _tilde_delta_oracle_int(l, point, eta_val)
    return Fraction(total)


# ---------------------------------------------------------------------------
# places outside S


def w_unramified(point: LocalPoint, q: int, eta_val: int) -> FormalLog:
    """vol log q Lambda-tilde(b) at a place away from the level and the
    conductor (three-case closed form)."""
    residue_cardinality(q, "w_unramified")
    if point.ordb > 0:
        coeff = _tilde_delta_int(0, point, eta_val)
    elif point.ordb == 0 and point.ordb1 > 0:
        coeff = -_tilde_delta_int(0, LocalPoint(point.ordb1, 0), eta_val)
    else:
        coeff = 0
    return FormalLog.log_integer(q, coeff)


def w_unramified_oracle(point: LocalPoint, q: int, eta_val: int) -> FormalLog:
    """The two finite geometric log-sums from the defining integral:
    shells |b| <= |t| < 1 and 1 < |t| <= |b+1|^-1."""
    residue_cardinality(q, "w_unramified_oracle")
    if point.ordb < 0:
        return FormalLog.zero()
    # first piece: ord(t) = 1 .. ord(b); second: ord(t) = -ord(b+1) .. -1
    piece1 = -shell_sum(eta_val, 1, point.ordb)
    piece2 = -shell_sum(eta_val, -point.ordb1, -1)
    return FormalLog.log_integer(q, piece1 + piece2)


def _check_ordn(ordn: int):
    if ordn < 1:
        raise InputError(f"level exponent ordn >= 1 required, got ordn={ordn}")


def w_level(point: LocalPoint, ordn: int, q: int, eta_val: int) -> FormalLog:
    """Closed form at a place dividing the level (both eta signs)."""
    residue_cardinality(q, "w_level")
    _check_ordn(ordn)
    if point.ordb < ordn:
        return FormalLog.zero()
    N = point.ordb
    if eta_val == 1:
        coeff = Fraction((N + ordn) * (N - ordn + 1), 2)
    else:
        en = eta_at(-1, ordn)
        eb = eta_at(-1, N)
        coeff = Fraction(2 * (ordn * en + N * eb) + eb - en, 4)
    return FormalLog.log_integer(q, -coeff)


def w_level_oracle(point: LocalPoint, ordn: int, q: int, eta_val: int) -> FormalLog:
    """Defining sum: -vol log q sum_(n=ordn..ord b) eta(varpi^n) n."""
    residue_cardinality(q, "w_level_oracle")
    _check_ordn(ordn)
    if point.ordb < ordn:
        return FormalLog.zero()
    return FormalLog.log_integer(q, -shell_sum(eta_val, ordn, point.ordb))


def w_ramified(point: LocalPoint, f: int, q: int, eta_minus1: int,
               eta_bb1: int, d_v: int = 0) -> float:
    """Closed form at a ramified place of the character, conductor exponent f.

    eta_bb1 = eta_v(b(b+1)) must be supplied by the caller (the character on
    non-units at ramified places follows external conventions); d_v is the
    local different exponent.  Returns the value divided by log q.
    """
    residue_cardinality(q, "w_ramified")
    if f < 1:
        raise InputError(f"conductor exponent f >= 1 required, got f={f}")
    if point.ordb < -f:
        return 0.0
    if eta_bb1 not in (1, -1):
        raise InputError(f"eta(b(b+1)) must be +-1, got eta_bb1={eta_bb1}")
    pref = eta_minus1 * (1 - 1 / q) ** -1 * q ** (-f - d_v / 2)
    inner = -f
    if point.ordb > 0:
        inner += eta_bb1 * (-f - point.ordb)
    elif point.ordb == 0:
        inner += eta_bb1 * (-f + point.ordb1)
    else:
        inner += eta_bb1 * (-f) * q ** point.ordb
    return pref * inner


def w_ramified_bound(point: LocalPoint, f: int, q: int) -> float:
    """The stated envelope: 6 q^-f delta(|b| <= q^f) (f + delta(|b|<=1) ord(b(b+1)))."""
    residue_cardinality(q, "w_ramified_bound")
    if point.ordb < -f:
        return 0.0
    extra = max(point.ord_bb1, 0) if point.ordb >= 0 else 0
    return 6.0 * q ** (-f) * (f + extra)


def enumerate_points(ord_range: int) -> list[LocalPoint]:
    """All ultrametrically consistent (ord b, ord(b+1)) with |orders| bounded."""
    pts = []
    for k in range(1, ord_range + 1):
        pts.append(LocalPoint(k, 0))
        pts.append(LocalPoint(0, k))
        pts.append(LocalPoint(-k, -k))
    pts.append(LocalPoint(0, 0))
    return pts
