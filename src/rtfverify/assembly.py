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
from .formal import FRAKC, LOG_DF, LPL, FormalLog, _log_terms
from .ideals import Ideal, QuadCharData, iota, sign_class
from .ntransform import ArithFn, _closed_log_pair, _closed_pair, log_norm, n_transform
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
    (1 - (q^2 - q)^-1): one integer numerator over one denominator."""
    num = den = 1
    for p, e in n:
        if e >= 2:
            d = p.q * p.q - p.q if e == 2 else p.q * p.q
            num *= d - 1
            den *= d
    return Fraction(num, den)


def x_of_n(n: Ideal) -> FormalLog:
    """X(n) = sum over S(n) of log q (1/q + 1/(q-1)^2), exactly."""
    return FormalLog._sum((sym, f * (q + (q - 1) ** 2), q * (q - 1) ** 2)
                          for q in (p.q for p, _ in n) for (_r, sym), f in _log_terms(q))


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
    sign = sign_class(n, eta)
    if sign is None:
        raise SignClassError("level must be totally inert for eta")
    if want == "+" and sign != 1:
        raise SignClassError("level lies outside the plus class")
    if want == "-" and sign != -1:
        raise SignClassError("level lies outside the minus class (the minus "
                             "average vanishes on the plus class)")


def main_AL(n: Ideal, a: Ideal, eta: QuadCharData, consts: AnalyticConsts,
            w: WeightData) -> float:
    """First main term: main_term_scale times the exact
    nu(n) delta_sq(a^-) d_1(a^+)."""
    _require_class(n, a, eta, "+")
    am, ap = eta_split(a, eta)
    return main_term_scale(a, consts, float(nu_of_n(n) * delta_square(am) * d_one(ap)))


def main_ADL_bracket(n: Ideal, a: Ideal, eta: QuadCharData) -> FormalLog:
    """Displayed main term of the derivative average, normalised by the scalar
    4 D^(3/2) L(1,eta) norm(a)^(-1/2): an exact FormalLog, nu(n) d_1(a^+) times
    the core below when a^- is a square, and times (e + 1)/2 log q when one
    exponent e of a^- is odd (0 when more are).  The core is
    log(norm(n)^(1/2) norm(a)^(-1/2) norm(f_eta)) + logDF + LpL + frakC plus,
    at each place of n with exponent 2, log q / (q^2 - q - 1), and above,
    log q / (q^2 - 1)."""
    _require_class(n, a, eta, "-")
    am, ap = eta_split(a, eta)
    nu = nu_of_n(n)
    num, den = d_one(ap) * nu.numerator, nu.denominator
    odd = [(p, e) for p, e in am if e % 2]
    if len(odd) > 1:
        return FormalLog.zero()
    if odd:
        # odd-exponent correction on the inert part: coefficient (n_v + 1)/2
        (p, e), = odd
        return FormalLog._sum((sym, f * (e + 1) * num, 2 * den) for (_r, sym), f in _log_terms(p.q))
    terms = [(sym, c.numerator * num, 2 * den) for sym, c in log_norm(n).coeffs.items()]
    terms += [(sym, -c.numerator * num, 2 * den) for sym, c in log_norm(a).coeffs.items()]
    terms += [(sym, c.numerator * num, den) for sym, c in log_norm(eta.conductor).coeffs.items()]
    terms += [(LOG_DF, num, den), (LPL, num, den), (FRAKC, num, den)]
    for p, e in n:
        if e >= 2:
            d = p.q * p.q - p.q - 1 if e == 2 else p.q * p.q - 1
            terms += [(sym, f * num, d * den) for (_r, sym), f in _log_terms(p.q)]
    return FormalLog._sum(terms)


def geom_kernel_bracket(n: Ideal, a: Ideal, eta: QuadCharData) -> FormalLog:
    """The unipotent geometric kernel's transform, same normalisation:
    (-1)^#S [ (N[log norm]/2 + C0 N[1]) prod_v U_v + N[1] sum_v dU_v prod_(w!=v) U_w ]
    with the per-place moments in their scaled (exactly rational) form and
    C0 = logDF + LpL + frakC + log norm(f_eta), and N[1] and N[log norm]
    read as the closed forms' unreduced integer pairs.  The cross sum over v
    is summed first, then added to the rest."""
    _require_class(n, a, eta, "-")
    u = [unip_u_scaled(eta.tilde_eta(p), e) for p, e in a]
    du = [unip_du_scaled(eta.tilde_eta(p), e) for p, e in a]
    one_n, one_d = _closed_pair(n, 0, -1)
    log_nums, log_d = _closed_log_pair(n)
    sign = (-1) ** len(a)
    un, ud = sign * math.prod(x.numerator for x in u), math.prod(x.denominator for x in u)
    terms = [(sym, c * un, 2 * log_d * ud) for sym, c in log_nums.items()]
    terms += [(sym, one_n * un, one_d * ud) for sym in (LOG_DF, LPL, FRAKC)]
    terms += [(sym, c.numerator * one_n * un, one_d * ud) for sym, c in log_norm(eta.conductor).coeffs.items()]
    cross = []
    for i, (p, _) in enumerate(a):
        rest = u[:i] + u[i + 1:]
        cn = du[i].numerator * math.prod(x.numerator for x in rest)
        cd = du[i].denominator * math.prod(x.denominator for x in rest)
        cross += [(sym, f * cn, cd) for (_r, sym), f in _log_terms(p.q)]
    terms += [(sym, c.numerator * one_n * sign, c.denominator * one_d)
              for sym, c in FormalLog._sum(cross).coeffs.items()]
    return FormalLog._sum(terms)


def main_term_scale(a: Ideal, consts: AnalyticConsts, value: float) -> float:
    """value times 4 D^(3/2) L(1,eta) norm(a)^(-1/2), the positive scalar of
    both main terms, which the brackets were normalised by.  A product past
    the float range is refused."""
    try:
        out = 4 * consts.D_F ** 1.5 * consts.L1_eta * a.norm ** -0.5 * value
    except OverflowError:   # D_F^(3/2) past the float range
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(f"the main term overflows a float at {consts}")
    return out


def main_ADL_value(bracket: FormalLog, a: Ideal, eta: QuadCharData, consts: AnalyticConsts,
                   w: WeightData) -> float:
    """Numeric main term of the derivative average, from its bracket
    main_ADL_bracket(n, a, eta)."""
    return main_term_scale(a, consts, bracket.evaluate(consts.bindings(w, eta)))


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
    logfac = log_norm(n) * Fraction(1, 2) + log_norm(eta.conductor)
    alv = al_star(n)
    if isinstance(alv, FormalLog):
        raise InputError(f"the exact wiring wants a rational-valued AL* mock, got AL*({n})={alv}")
    t2 = logfac * Fraction(alv)
    t3 = n_transform(al_dw, n)
    return t1 + t2 - t3


def adl_w_plus_weight(al_star: ArithFn, eta: QuadCharData) -> ArithFn:
    """The plus-part forward weight: m -> (-1/2) log(norm(m) norm(f_eta)^2 D^2) AL*(m)."""
    log_feta = log_norm(eta.conductor)

    def fn(m: Ideal):
        return (FormalLog.symbol(LOG_DF, -1) + log_norm(m) * Fraction(-1, 2) - log_feta) * al_star(m)

    return fn
