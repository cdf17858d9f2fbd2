"""Main-term assembly: the two asymptotic averages and the geometric kernel.

The central identity checked here: the transform of the unipotent geometric
kernel, assembled from the norm-power/log-norm closed forms and the unipotent
moments, reproduces the displayed main term of the derivative average
exactly, coefficient by coefficient in FormalLog.

Normalisation: both assembly routes return the main term divided by the
common positive scalar  4 D_F^(3/2) L_fin(1, eta) norm(a)^(-1/2),  so that
everything that remains is exactly rational against the symbol basis.  The
evaluate() helpers put the scalar back for numeric output.

The odd-exponent correction term carries the coefficient (n_v + 1)/2 * log q_v
per place, as forced by the contour evaluation of the unipotent moments it is
assembled from (oracle-verified to 1e-15); the superficially similar variant
with n_v + 1/2 fails the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InputError, SignClassError
from .formal import FRAKC, LOG_DF, LPL, FormalLog
from .ideals import Ideal, QuadCharData, iota, sign_class, square_decompose, stratum
from .ntransform import ArithFn, closed_log, closed_power, n_transform
from .testfns import unip_du_scaled, unip_u_scaled


@dataclass(frozen=True)
class WeightData:
    """Even archimedean weights, one per infinite place."""

    l: tuple[int, ...]

    def __post_init__(self):
        if not self.l or any(x % 2 or x < 2 for x in self.l):
            raise InputError(f"'weights' must be even integers >= 2, got {list(self.l)}")

    @property
    def l_tilde_default(self) -> int:
        return sum(self.l)


@dataclass
class AnalyticConsts:
    """Opaque analytic constants; identities are linear in them, so tests may
    randomise the values freely."""

    D_F: float = 1.0
    L1_eta: float = 1.0          # the finite part L_fin(1, eta) > 0
    Lp_over_L: float = 0.0

    def __post_init__(self):
        for key, value in vars(self).items():
            if not math.isfinite(value):
                raise InputError(f"consts {key!r} must be finite, got {value}")
        if self.D_F < 1 or self.L1_eta <= 0:
            raise InputError(f"consts 'D_F' >= 1 and 'L1_eta' > 0 are forced, got D_F={self.D_F}, "
                             f"L1_eta={self.L1_eta}")

    def bindings(self, w: WeightData, eta: QuadCharData) -> dict[str, float]:
        return {
            LOG_DF: math.log(self.D_F),
            LPL: self.Lp_over_L,
            FRAKC: frak_c(w, eta),
        }


EULER_GAMMA = 0.5772156649015329


def c_l(w: WeightData) -> float:
    """prod_v 2 pi (l_v - 2)! / ((l_v/2 - 1)!)^2: (2 pi)^n times one exact
    integer, the product of the binomials binom(l_v - 2, l_v/2 - 1)."""
    out = math.inf
    # binom(l - 2, l/2 - 1) >= 2^(l - 2)/(l - 1) passes the float range before
    # l = 1040, so a larger weight is refused before its binomial is built
    if max(w.l) < 1040:
        try:
            out = (2 * math.pi) ** len(w.l) * math.prod(math.comb(lv - 2, lv // 2 - 1) for lv in w.l)
        except OverflowError:   # a factor past the float range
            pass
    if not math.isfinite(out):
        raise DomainError(f"C_l overflows a float at weights {list(w.l)}")
    return out


def frak_c(w: WeightData, eta: QuadCharData) -> float:
    """Archimedean constant: per place, H_(l/2-1) - log(pi)/2 - gamma/2,
    minus log 2 at the sign places."""
    if len(eta.arch_signs) != len(w.l):
        raise InputError(f"one of 'weights' per infinite place required, got {list(w.l)} "
                         f"for {len(eta.arch_signs)} places")
    total = 0.0
    for lv, sv in zip(w.l, eta.arch_signs):
        total += sum(1.0 / k2 for k2 in range(1, lv // 2))
        total -= 0.5 * math.log(math.pi) + 0.5 * EULER_GAMMA
        if sv == -1:
            total -= math.log(2)
    return total


def nu_of_n(n: Ideal) -> Fraction:
    """prod over S(n)-(S1 u S2) of (1 - q^-2) times prod over S2 of
    (1 - (q^2 - q)^-1)."""
    out = Fraction(1)
    for p, e in n:
        if e == 1:
            continue
        if e == 2:
            out *= 1 - Fraction(1, p.q ** 2 - p.q)
        else:
            out *= 1 - Fraction(1, p.q ** 2)
    return out


def x_of_n(n: Ideal) -> FormalLog:
    """X(n) = sum over S(n) of log q (1/q + 1/(q-1)^2), exactly."""
    out = FormalLog.zero()
    for p in n.support:
        out = out + FormalLog.log_integer(p.q, Fraction(1, p.q) + Fraction(1, (p.q - 1) ** 2))
    return out


# ---------------------------------------------------------------------------
# sign-class splits of the test ideal a


def eta_split(a: Ideal, eta: QuadCharData) -> tuple[Ideal, Ideal]:
    """(a_eta^-, a_eta^+): the parts of a supported on inert / split primes."""
    minus = {p: e for p, e in a if eta.tilde_eta(p) == -1}
    plus = {p: e for p, e in a if eta.tilde_eta(p) == 1}
    return Ideal.of(minus), Ideal.of(plus)


def d_one(a: Ideal) -> int:
    out = 1
    for _, e in a:
        out *= e + 1
    return out


def delta_square(a: Ideal) -> int:
    return int(all(e % 2 == 0 for _, e in a))


# ---------------------------------------------------------------------------
# main terms


def _require_class(n: Ideal, a: Ideal, eta: QuadCharData, want: str) -> None:
    if set(n.support) & set(a.support):
        raise SignClassError("level and test ideal must be coprime")
    cls = sign_class(n, eta, excluded=a.support)
    if not cls["in_I"]:
        raise SignClassError("level must be totally inert for eta")
    if want == "+" and not cls["in_I_plus"]:
        raise SignClassError("level lies outside the plus class")
    if want == "-" and not cls["in_I_minus"]:
        raise SignClassError("level lies outside the minus class (the minus "
                             "average vanishes on the plus class)")


def main_AL(n: Ideal, a: Ideal, eta: QuadCharData, consts: AnalyticConsts,
            w: WeightData) -> float:
    """First main term: 4 D^(3/2) L(1,eta) nu(n) norm(a)^(-1/2)
    delta_sq(a^-) d_1(a^+)."""
    _require_class(n, a, eta, "+")
    am, ap = eta_split(a, eta)
    return (4 * consts.D_F ** 1.5 * consts.L1_eta * float(nu_of_n(n))
            * a.norm ** -0.5 * delta_square(am) * d_one(ap))


def main_ADL_bracket(n: Ideal, a: Ideal, eta: QuadCharData) -> FormalLog:
    """Displayed main term of the derivative average, normalised by the scalar
    4 D^(3/2) L(1,eta) norm(a)^(-1/2): an exact FormalLog."""
    _require_class(n, a, eta, "-")
    am, ap = eta_split(a, eta)
    nu = nu_of_n(n)
    d1p = d_one(ap)
    bracket = FormalLog.zero()
    if delta_square(am):
        core = FormalLog.log_integer(n.norm, Fraction(1, 2))
        if a.norm > 1:
            core = core + FormalLog.log_integer(a.norm, Fraction(-1, 2))
        feta_norm = eta.conductor.norm
        if feta_norm > 1:
            core = core + FormalLog.log_integer(feta_norm)
        core = core + FormalLog.symbol(LOG_DF) + FormalLog.symbol(LPL) + FormalLog.symbol(FRAKC)
        _, n1 = square_decompose(n)
        s2 = set(stratum(n, 2))
        for p in n1.support:
            if p in s2:
                core = core + FormalLog.log_integer(p.q, Fraction(1, p.q ** 2 - p.q - 1))
            else:
                core = core + FormalLog.log_integer(p.q, Fraction(1, p.q ** 2 - 1))
        bracket = bracket + core * d1p
    # odd-exponent correction on the inert part: coefficient (n_v + 1)/2
    for p, e in am:
        rest_even = all(e2 % 2 == 0 for p2, e2 in am if p2 != p)
        if e % 2 == 1 and rest_even:
            bracket = bracket + FormalLog.log_integer(p.q, Fraction((e + 1) * d1p, 2))
    return bracket * nu


def geom_kernel_bracket(n: Ideal, a: Ideal, eta: QuadCharData) -> FormalLog:
    """The unipotent geometric kernel's transform, same normalisation:
    (-1)^#S [ (N[log norm]/2 + C0 N[1]) prod_v U_v + N[1] sum_v dU_v prod_(w!=v) U_w ]
    with the per-place moments in their scaled (exactly rational) form."""
    _require_class(n, a, eta, "-")
    u_hat = {p: unip_u_scaled(eta.tilde_eta(p), e) for p, e in a}
    du_hat = {p: unip_du_scaled(eta.tilde_eta(p), e) for p, e in a}
    n_one = closed_power(n, 0)
    n_log = closed_log(n)
    c0 = FormalLog.symbol(LOG_DF) + FormalLog.symbol(LPL) + FormalLog.symbol(FRAKC)
    feta_norm = eta.conductor.norm
    if feta_norm > 1:
        c0 = c0 + FormalLog.log_integer(feta_norm)
    prod_all = Fraction(1)
    for p, _ in a:
        prod_all *= u_hat[p]
    bracket = (n_log * Fraction(1, 2) + c0 * n_one) * prod_all
    cross = FormalLog.zero()
    for p, _ in a:
        rest = Fraction(1)
        for p2, _ in a:
            if p2 != p:
                rest *= u_hat[p2]
        cross = cross + FormalLog.log_integer(p.q, du_hat[p] * rest)
    bracket = bracket + cross * n_one
    sign = Fraction((-1) ** len(a))
    return bracket * sign


def main_term_scale(a: Ideal, consts: AnalyticConsts) -> float:
    """The positive scalar both brackets were normalised by."""
    return 4 * consts.D_F ** 1.5 * consts.L1_eta * a.norm ** -0.5


def main_ADL_value(n: Ideal, a: Ideal, eta: QuadCharData, consts: AnalyticConsts,
                   w: WeightData) -> float:
    """Numeric main term of the derivative average."""
    bracket = main_ADL_bracket(n, a, eta)
    return main_term_scale(a, consts) * bracket.evaluate(consts.bindings(w, eta))


@dataclass(frozen=True)
class PrefactorMonomial:
    """rational * (-1)^sign * G^g_pow * D^(d_pow): the scalar prefactors that
    must cancel between the trace-formula identity and the kernel transform."""

    rational: Fraction
    d_pow: Fraction
    g_pow: int

    def __mul__(self, other: "PrefactorMonomial") -> "PrefactorMonomial":
        return PrefactorMonomial(self.rational * other.rational,
                                 self.d_pow + other.d_pow,
                                 self.g_pow + other.g_pow)


def geom_prefactor(n_s: int, eps_eta: int) -> PrefactorMonomial:
    """2 (-1)^(#S + eps) G^-1 D  x  2 (-1)^eps G D^(1/2)  =  4 (-1)^#S D^(3/2)."""
    henkei = PrefactorMonomial(Fraction(2 * (-1) ** (n_s + eps_eta)), Fraction(1), -1)
    kernel = PrefactorMonomial(Fraction(2 * (-1) ** eps_eta), Fraction(1, 2), 1)
    return henkei * kernel


def degenerate_D(n: Ideal, eta: QuadCharData, w: WeightData) -> complex:
    """The transform of D, which survives only on fully squared levels (the
    transform of D log norm vanishes identically)."""
    if any(e != 2 for _, e in n):
        return 0j
    prod = Fraction(1)
    for p, _ in n:
        prod *= Fraction(p.q + 1, p.q - 1)
    count = len(n)
    i_l_tilde = 1j ** (w.l_tilde_default % 4)   # +-1: the weights are even
    return complex((-1) ** eta.eps * (-1) ** count * float(prod / iota(n))) * i_l_tilde


# ---------------------------------------------------------------------------
# the modified trace-formula wiring (spectral entries injected as mocks)


def henkei_adl_star(n: Ideal,
                    w_geom: ArithFn,
                    al_star: ArithFn,
                    al_dw: ArithFn,
                    eta: QuadCharData,
                    G_eta: Fraction,
                    D_F: Fraction,
                    n_s: int) -> FormalLog:
    """ADL* via the rearranged identity, all spectral entries user-supplied:

        ADL*(n) = 2 (-1)^(#S+eps) G^-1 D N[w_geom](n)
                  + log(norm(n)^(1/2) norm(f_eta)) AL*(n) - N[al_dw](n).

    Exact in FormalLog for rational-valued mocks and rational G, D.
    """
    pref = Fraction(2 * (-1) ** (n_s + eta.eps)) * D_F / G_eta
    t1 = n_transform(w_geom, n) * pref
    logfac = FormalLog.log_integer(n.norm, Fraction(1, 2))
    if eta.conductor.norm > 1:
        logfac = logfac + FormalLog.log_integer(eta.conductor.norm)
    alv = al_star(n)
    if isinstance(alv, FormalLog):
        raise ValueError("the exact wiring wants a rational-valued AL* mock")
    t2 = logfac * Fraction(alv)
    t3 = n_transform(al_dw, n)
    return t1 + t2 - t3


def adl_w_plus_weight(al_star: ArithFn, eta: QuadCharData) -> ArithFn:
    """The plus-part forward weight: m -> (-1/2) log(norm(m) norm(f_eta)^2 D^2) AL*(m)."""
    feta = eta.conductor.norm

    def fn(m: Ideal):
        fac = FormalLog.symbol(LOG_DF, -1)
        if m.norm > 1:
            fac = fac + FormalLog.log_integer(m.norm, Fraction(-1, 2))
        if feta > 1:
            fac = fac + FormalLog.log_integer(feta, -1)
        return fac * al_star(m)

    return fn
