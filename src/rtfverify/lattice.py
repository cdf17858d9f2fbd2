"""Lattice sums over embedded fractional ideals of Q and real quadratic fields.

theta(Lambda) sums prod_j (1 + |x_j|)^(-l_j/2) over nonzero lattice points
of norm <= R, the sphere included, enumerated over an integer coefficient box
that Cramer's rule bounds from the basis rows; truncation tails carry a
rigorous ball-packing bound (every lattice point owns a disjoint ball of
radius r(Lambda)) plus, in rank one, a sharper integral estimate.  The
theta estimate's envelope is theta_envelope, for bound_audits and verify.

Every quadrature runs on quadrature.quad_many: sphere_I_quad (the oracle
of sphere_I) and ball_integral as one integral each, phi_spheres evaluates
the sphere integral phi(t) at every t it is given at once, and
w_hyp_arch_audit passes the W_+ quadratures of each N to w_plus_quads.  The
slopes of the hyperbolic sums and of phi are fitted in verify.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, InputError, UnsupportedField
from .formal import _factor_small
from .orbital_arch import j_arch, w_plus_quads
from .orbital_local import tau_S_rational
from .quadrature import quad_many


@dataclass(frozen=True)
class EmbeddedLattice:
    """Full-rank lattice in R^d; rows of basis are the generators.

    sqrt_disc records the covolume of the ambient maximal order: the
    covolume of an embedded ideal is its norm times this factor, so the
    norm-based sandwich constants must absorb it.
    """

    basis: tuple[tuple[float, ...], ...]
    provenance: str
    sqrt_disc: float = 1.0

    def __post_init__(self):
        if not 1e-300 <= self.covolume < math.inf:
            raise InputError(f"basis {self.basis} must be finite and nonsingular, got covolume {self.covolume}")

    @property
    def d(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return np.array(self.basis, dtype=float)

    @functools.cached_property
    def covolume(self) -> float:
        return abs(float(np.linalg.det(self.matrix)))

    @functools.cached_property
    def packing_radius(self) -> float:
        """r(Lambda), the radius of the disjoint balls: min_vector_radius,
        half the length of a shortest vector, found within Hermite's bound."""
        return min_vector_radius(self)


# The largest |generator| embed_ideal takes, and on Q the smallest.  Past R,
# _tail_bound walks ceil(r) + 2 unit shells, SHELL_BLOCK at a time, and r
# grows with the generator (|g|/2 on Q, |N|/sqrt 2 for N O in rank two), so
# at |g| = 1e6 the walk of 5e5 shells on Q takes about 0.02 s, and 7.1e5 in
# rank two 0.03 s, on a 2-core x86 host; it grows linearly.  lattice_points
# takes each point's norm from its squared coordinates, which leave the
# normal floats below |g| = 1.5e-154 (the root of 2^-1022).
MAX_GENERATOR = 10 ** 6
MIN_GENERATOR_Q = 1e-150
SHELL_BLOCK = 2 ** 12
# A tail bound below the normal floats (2^-1022) is reported as TAIL_FLOOR:
# underflow loses at most 2^-1074 per term times its multiplier (shell over
# ball volume, or c_d), and wherever rtf lattice reaches such a bound these
# sum below 2^52, so the true bound is below 2^-1022 + 2^-1022.
TAIL_FLOOR = 2 * sys.float_info.min
# Q(sqrt m) takes m below 2048^2, which formal._factor_small factors from its
# table of primes alone; past it, it would trial-divide up to sqrt(m).
MAX_FIELD_M = 2048 ** 2


def embed_ideal(field: str, descriptor, m: int | None = None) -> EmbeddedLattice:
    """Embed a fractional-ideal descriptor as a lattice under the real places.

    field "Q": descriptor is a rational number g; the lattice g*Z.
    field "real_quadratic": descriptor is "O", an integer N (the ideal N*O),
    or a pair (x, y) for the principal ideal generated by x + y*omega, with
    omega = sqrt(m) or (1+sqrt(m))/2 by the discriminant parity of m.
    """
    if field == "Q":
        try:
            g = abs(Fraction(descriptor))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"a rational generator required, got descriptor {descriptor!r}") from None
        if g == 0:
            raise InputError(f"the zero ideal has no lattice, got descriptor {descriptor!r}")
        if not MIN_GENERATOR_Q <= g <= MAX_GENERATOR:
            raise InputError(f"a generator with {MIN_GENERATOR_Q} <= |g| <= {MAX_GENERATOR} required, "
                             f"got descriptor {descriptor!r}")
        return EmbeddedLattice(((float(g),),), f"({descriptor})Z")
    if field != "real_quadratic":
        raise UnsupportedField(f"field {field!r}; only Q and real quadratic supported")
    if m is None or not 1 < m < MAX_FIELD_M or any(e > 1 for _p, e in _factor_small(m)):
        raise UnsupportedField(f"real quadratic field needs a squarefree m with 1 < m < {MAX_FIELD_M}, got m={m}")
    if descriptor in (0, (0, 0)):
        raise InputError(f"the zero ideal has no lattice, got descriptor {descriptor!r}")
    root = math.sqrt(m)
    if m % 4 == 1:
        w1, w2 = (1 + root) / 2, (1 - root) / 2
        sq_disc = root
    else:
        w1, w2 = root, -root
        sq_disc = 2 * root
    if descriptor == "O":
        (x, y), provenance = (1, 0), f"O_Q(sqrt{m})"
    elif isinstance(descriptor, int):
        if abs(descriptor) > MAX_GENERATOR:
            raise InputError(f"a generator with |N| <= {MAX_GENERATOR} required, got descriptor {descriptor}")
        (x, y), provenance = (descriptor, 0), f"({descriptor})O_Q(sqrt{m})"
    else:
        (x, y), provenance = descriptor, f"({descriptor[0]}+{descriptor[1]}w)O_Q(sqrt{m})"
    g1, g2 = x + y * w1, x + y * w2           # the two embeddings of the generator
    basis = ((g1, g2), (g1 * w1, g2 * w2))    # gamma * (1, omega)
    return EmbeddedLattice(basis, provenance, sq_disc)


# The largest integer coefficient box lattice_points enumerates.  At its peak
# the enumeration holds about 56 bytes a point in rank one and 82 in rank two,
# so the cap bounds it near 0.3 GB; on Z it admits R below 1999999.
MAX_BOX_POINTS = 4_000_000


def lattice_points(lat: EmbeddedLattice, R: float) -> np.ndarray:
    """All nonzero lattice points of Euclidean norm <= R: an integer box of
    coefficients |c_i| <= R prod_(j != i) |b_j| / covolume (Cramer's rule), one
    layer wider so that rounding drops no point of the sphere, then a filter.
    A box of more than MAX_BOX_POINTS points is refused before any allocation."""
    lengths = [math.hypot(*row) for row in lat.basis]
    bounds = [int(R * math.prod(lengths[:i] + lengths[i + 1:]) / lat.covolume) + 1 for i in range(lat.d)]
    points = math.prod(2 * b + 1 for b in bounds)
    if points > MAX_BOX_POINTS:
        raise InputError(f"truncation radius R={R} needs a coefficient box of {points} points, "
                         f"past the cap of {MAX_BOX_POINTS}")
    grids = np.meshgrid(*[np.arange(-b, b + 1) for b in bounds], indexing="ij")
    coefs = np.stack([g.ravel() for g in grids], axis=1)
    pts = coefs @ lat.matrix
    norms = np.linalg.norm(pts, axis=1)
    keep = (norms <= R * (1 + 1e-12)) & (norms > 0)
    return pts[keep]


def min_vector_radius(lat: EmbeddedLattice) -> float:
    """r(Lambda) = half the length of a shortest nonzero vector.  Hermite's
    bound puts a nonzero point of every rank-d lattice within
    sqrt(gamma_d) covolume^(1/d), gamma_1 = 1 and gamma_2 = 2/sqrt(3)
    (Cassels, An Introduction to the Geometry of Numbers), so one ball of
    that radius holds a shortest vector."""
    gamma = 1.0 if lat.d == 1 else 2 / math.sqrt(3)
    pts = lattice_points(lat, math.sqrt(gamma) * lat.covolume ** (1.0 / lat.d))
    return float(np.min(np.linalg.norm(pts, axis=1))) / 2


def _f_values(pts: np.ndarray, l: Sequence[float]) -> np.ndarray:
    out = np.ones(len(pts))
    for j, lj in enumerate(l):
        out *= (1.0 + np.abs(pts[:, j])) ** (-lj / 2)
    return out


def theta(lat: EmbeddedLattice, l: Sequence[float], R: float) -> dict:
    """Truncated lattice sum with rigorous tail bound and a tail estimate.

    Returns {"value", "tail_bound", "tail_estimate", "count"}.
    """
    l = list(l)
    if len(l) != lat.d:
        raise InputError(f"one weight per coordinate required, got l={l} in rank {lat.d}")
    if not 0 <= R < math.inf:
        raise InputError(f"truncation radius 0 <= R < inf required, got R={R}")
    if min(l) < 4:
        raise DomainError(f"weights below 4 leave non-summable tails, got l={l}")
    if min(l) / 2 <= lat.d:
        raise DomainError(f"shell tail bound needs min(l)/2 > d (= {lat.d}), got l={l}")
    pts = lattice_points(lat, R)
    vals = np.sort(_f_values(pts, l))     # deterministic, small-first sum
    value = float(np.sum(vals))
    bound = _tail_bound(lat, min(l), R)
    # in rank one, 1/covol points per unit length times the integral of f
    # beyond R; in rank two the bound stands in for the estimate
    estimate = ball_integral(R, l, outside=True) / lat.covolume if lat.d == 1 else bound
    return {"value": value, "tail_bound": bound, "tail_estimate": estimate, "count": len(pts)}


def _tail_bound(lat: EmbeddedLattice, lmin: float, R: float) -> float:
    """Ball-packing shell bound: points in the shell [k, k+1) number at most
    vol(inflated shell)/vol(packing ball), and f there is <= (1+k)^(-lmin/2).

    Needs lmin/2 > d for the sup-based shells to be summable, which theta
    checks.
    """
    r = lat.packing_radius
    d = lat.d
    s = lmin / 2
    vball = 2 * r if d == 1 else math.pi * r * r
    k0 = int(math.floor(R))
    k1 = k0 + int(math.ceil(r)) + 2          # beyond k1 the shells are clean
    # shells k0..k1-1 in blocks, each summed left to right after the total so
    # far (cumsum), as one Python loop would; float_power is libm's pow, as
    # ** is, where np.power may round the last bit otherwise
    total = 0.0
    for start in range(k0, k1, SHELL_BLOCK):
        k = np.arange(start, min(start + SHELL_BLOCK, k1))
        hi, lo = k + 1 + r, np.maximum(k - r, 0.0)
        vol = 2 * (hi - lo) if d == 1 else math.pi * (hi * hi - lo * lo)
        terms = vol / vball * np.float_power(1 + k, -s)
        terms[0] += total
        total = float(np.cumsum(terms)[-1])
    # for k >= k1 > r: count(k) <= c_d (1+k)^(d-1) with the constants below,
    # and sum_(k>=k1) (1+k)^(d-1-s) <= (1+k1)^(d-1-s) + integral comparison
    c_d = (1 + 2 * r) / r if d == 1 else 2 * (1 + 2 * r) / (r * r)
    head = c_d * (1 + k1) ** (d - 1 - s)
    integral = c_d * (1 + k1) ** (d - s) / (s - d)
    bound = total + head + integral
    return bound if bound >= sys.float_info.min else TAIL_FLOOR


# ---------------------------------------------------------------------------
# the sphere integral


def _check_lambda(lam: Sequence[float]) -> None:
    if not all(x < 1 for x in lam):
        raise DomainError(f"lambda_j < 1 required, got lambda={list(lam)}")


def sphere_I(lam: Sequence[float]) -> float:
    """I(lambda) = integral over S^(d-1) of prod |omega_j|^(-lambda_j)
    = 2 Gamma(sum (1-lambda_j)/2)^(-1) prod Gamma((1-lambda_j)/2)."""
    _check_lambda(lam)
    s = sum((1 - x) / 2 for x in lam)
    out = 2 / math.gamma(s)
    for x in lam:
        out *= math.gamma((1 - x) / 2)
    return out


def sphere_I_quad(lam: Sequence[float]) -> float:
    """The oracle for sphere_I: its defining integral over the circle by
    angular quadrature (d = 2)."""
    _check_lambda(lam)
    if len(lam) != 2:
        raise DomainError(f"angular quadrature implemented for d = 2, got lambda={list(lam)}")
    # [pi/4, pi/2] folded onto [0, pi/4] by t -> pi/2 - t, so both
    # integrable singularities sit at 0; t = (pi/4) u^4 then turns
    # t^(-lambda_j) dt into u^(3 - 4 lambda_j) du, bounded for lambda_j <= 3/4
    def f(u, which):
        t = math.pi / 4 * u ** 4
        c, s = np.cos(t), np.sin(t)
        return (c ** (-lam[0]) * s ** (-lam[1]) + s ** (-lam[0]) * c ** (-lam[1])) * math.pi * u ** 3

    ((val, _err),) = quad_many(f, [(0.0, 1.0)], epsabs=1e-12, epsrel=1e-12, limit=400)
    return 4 * val


# ---------------------------------------------------------------------------
# the hyperbolic-term lattice sum over Q


def _hyperbolic_points(N: int, K: int) -> list[tuple[int, float]]:
    """(tau(b), float b) for b = +-k N, k = 1..K, in that order, with b = -1
    and the b where tau vanishes left out; tau is tau^S at S = 1."""
    return [(tau, float(b)) for k in range(1, K + 1) for b in (k * N, -k * N)
            if b != -1 and (tau := tau_S_rational(b, 1, 1))]


def fI_rational(l: int, N: int, K: int) -> float:
    """The tau-weighted J-sum over b in N Z - {0, -1}, |b| <= K N, for the
    rational field, against the trivial character.  The divisor-count
    weights grow slower than any power, so the (1+|b|)^(-l/2) of J wins."""
    total = 0.0
    for tau, b in _hyperbolic_points(N, K):
        total += tau ** 2 * abs(j_arch(l, b)[0])
    return total


def w_hyp_arch_audit(l: int, ns: Sequence[int], K: int) -> list[float]:
    """At each N of ns, the tau-weighted sum of |W^eps(b)| = |2 Re W_+(b)|
    (eps(-1) = 1) over b in N Z: the log-weighted hyperbolic sum over Q.
    The W_+ quadratures of each N run as one batch."""
    vals = []
    for N in ns:
        points = _hyperbolic_points(N, K)
        total = 0.0
        for (tau, _b), w in zip(points, w_plus_quads(l, [b for _tau, b in points])):
            total += tau ** 2 * abs(2 * w.real)
        vals.append(total)
    return vals


# ---------------------------------------------------------------------------
# audits


def ball_integral(lat_r: float, l: Sequence[float], outside: bool = False) -> float:
    """integral of f over the ball ||x|| <= r (or its complement), d <= 2.

    In rank two by Fubini: the x_2-integral is closed, and quad_many takes
    x_1 = r sin phi, [pi/4, pi/2] folded onto [0, pi/4] so that the mass at
    either axis sits at phi = 0, where phi has all its digits."""
    def line(s, k):     # the integral of (1 + |x|)^(-k) over |x| <= s (or |x| > s)
        return 2 * ((1 + s) ** (1 - k) if outside else -np.expm1((1 - k) * np.log1p(s))) / (k - 1)

    a, c = l[0] / 2, l[-1] / 2
    if len(l) == 1:
        return float(line(lat_r, a))

    def g(phi, which):
        x, y = lat_r * np.sin(phi), lat_r * np.cos(phi)
        return 2 * ((1 + x) ** -a * line(y, c) * y + (1 + y) ** -a * line(x, c) * x)

    # a break at each power of 10 in r sin phi from 1/max(a, c) on, where a factor of f starts to fall
    ks = range(math.floor(-math.log10(max(a, c))), math.ceil(math.log10(lat_r)))
    edges = [0.0, *[phi for k in ks if (phi := math.asin(10.0 ** k / lat_r)) < math.pi / 4], math.pi / 4]
    try:
        ((val, _err),) = quad_many(g, [edges], epsabs=0.0, epsrel=1e-12, limit=200)
    except ConvergenceError as exc:
        raise ConvergenceError(f"ball integral of f at l={list(l)}, r={lat_r}, "
                               f"{'outside' if outside else 'inside'}: {exc}") from exc
    return val + line(lat_r, a) * 2 / (c - 1) if outside else val


def minkowski_constants(d: int) -> tuple[float, float]:
    """(C_d, C'_d) with C_d r^d <= D(Lambda) <= C'_d sqrt(disc) r^d for ideal
    lattices: the lower constant from Minkowski's convex body theorem, the
    upper from |norm(b)| >= norm(Lambda) via AM-GM (the covolume carries the
    extra sqrt(disc) of the maximal order)."""
    vball = 2.0 if d == 1 else math.pi
    return vball, (2 / math.sqrt(d)) ** d


def minkowski_sandwich_ok(lat: EmbeddedLattice) -> bool:
    r = lat.packing_radius
    D = lat.covolume
    c_lo, c_hi = minkowski_constants(lat.d)
    return (c_lo * r ** lat.d <= D * (1 + 1e-9)
            and D <= c_hi * lat.sqrt_disc * r ** lat.d * (1 + 1e-9))


def theta_envelope(lat: EmbeddedLattice, lat0: EmbeddedLattice, l: Sequence[float]) -> float:
    """The envelope (1 + r0)^(d max(l)/2) / D0 * D^((1 - min(l)/2)/d) of the theta
    estimate of lat inside lat0; one outside the float range is refused."""
    d, r0, D0, D1 = lat.d, lat0.packing_radius, lat0.covolume, lat.covolume
    grow, shrink = d * max(l) / 2, (1 - min(l) / 2) / d
    try:
        envelope = (1 + r0) ** grow / D0 * D1 ** shrink
    except OverflowError:
        envelope = math.inf
    if not 0 < envelope < math.inf:
        # a factor left the float range, which the envelope need not: form it from the sum of the logs
        try:
            envelope = math.exp(grow * math.log1p(r0) - math.log(D0) + shrink * math.log(D1))
        except OverflowError:
            envelope = math.inf
    if not 0 < envelope < math.inf:
        raise DomainError(f"the theta envelope at l={list(l)}, covolume {D1:.6g} is outside the float range")
    return envelope


def bound_audits(lat: EmbeddedLattice, lat0: EmbeddedLattice, l: Sequence[float], theta_value: float) -> dict:
    """Containment-based audits of theta_value = theta(lat, l, R)["value"]:
    the ratio to theta_envelope, the covering inequality, the hypothesis
    min(l) >= 0 of the submultiplicativity f(x + y) >= f(x) f(y), which
    follows from 1 + |x + y| <= (1 + |x|)(1 + |y|) (a tier-1 test holds the
    inequality on sampled pairs), and the Minkowski sandwich."""
    l = list(l)
    envelope = theta_envelope(lat, lat0, l)
    covering_rhs = ball_integral(lat0.packing_radius, l) ** -1 * ball_integral(lat.packing_radius, l, outside=True)
    return {
        "theta_ratio": theta_value / envelope,
        "covering_ok": theta_value <= covering_rhs * (1 + 1e-9),
        "submultiplicative_ok": min(l) >= 0,
        "minkowski_ok": minkowski_sandwich_ok(lat),
    }


def phi_spheres(l: Sequence[float], ts: Sequence[float]) -> list[float]:
    """phi(t, ..., t) = integral over the sphere of f(t omega) at each t of
    ts.  In rank two the angular integrals run together on quad_many, each
    over its own break points and with its own error check."""
    if len(l) == 1:
        return [2 * (1 + t) ** (-l[0] / 2) for t in ts]
    t_of = np.array(ts, dtype=float)

    def ang(th, which):
        t = t_of[which]
        return ((1 + t * np.abs(np.cos(th))) ** (-l[0] / 2)
                * (1 + t * np.abs(np.sin(th))) ** (-l[1] / 2))

    # at large t the mass sits in O(1/t) spikes at the axes; flag them
    edges = [[0.0, *sorted({min(max(x, 1e-12), math.pi / 2 - 1e-12)
                            for x in (1 / t, 10 / t, math.pi / 2 - 10 / t, math.pi / 2 - 1 / t)}), math.pi / 2]
             for t in ts]
    try:
        results = quad_many(ang, edges, epsabs=0.0, epsrel=1e-12, limit=500)
    except ConvergenceError as exc:
        raise ConvergenceError(f"sphere integral phi at l={list(l)}, t={ts[exc.which]}: {exc}") from exc
    return [4 * val for val, _err in results]

