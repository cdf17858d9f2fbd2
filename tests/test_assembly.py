import math
import random
from fractions import Fraction

import pytest

from _reference import reference
from rtfverify import assembly as asm
from rtfverify import ntransform as nt
from rtfverify import verify
from rtfverify.errors import DomainError, InputError, SignClassError
from rtfverify.formal import FRAKC, LOG_DF, LPL, FormalLog
from rtfverify.ideals import Ideal, Prime, QuadCharData
from rtfverify.testfns import unip_du_scaled, unip_u_scaled

P3 = Prime("p", 3)
Q2 = Prime("q", 2)
R5 = Prime("r", 5)

ETA_MINUS = QuadCharData.build(1, [-1], unram={P3: -1, Q2: -1, R5: -1})
ETA_PLUS_CLASS = QuadCharData.build(0, [1], unram={P3: -1, Q2: -1, R5: -1})


def test_c_l_examples():
    assert asm.c_l(asm.WeightData((6,))) == pytest.approx(12 * math.pi)
    assert asm.c_l(asm.WeightData((4,))) == pytest.approx(4 * math.pi)
    assert asm.c_l(asm.WeightData((6, 6))) == pytest.approx(144 * math.pi ** 2)
    big = asm.c_l(asm.WeightData((400,)))
    assert math.isfinite(big) and big > 0


def _c_l_at(ctx, weights):
    """C_l = prod_l 2 pi (l-2)! / (l/2-1)!^2 on the mpmath context ctx."""
    exact = ctx.mpf(1)
    for l in weights:
        exact *= 2 * ctx.pi * ctx.mpf(math.factorial(l - 2)) / ctx.mpf(math.factorial(l // 2 - 1)) ** 2
    return exact


@pytest.mark.parametrize("weights", [(2,), (6,), (6, 8, 10), (10, 10, 10), (100,), (174,), (180,), (200,),
                                     (202,), (400,), (1000,), (180, 200, 202)])
def test_c_l_is_the_exact_binomial_product(weights):
    # 174 <= l <= 200 overflowed the old factorial quotient
    got = asm.c_l(asm.WeightData(weights))
    exact = reference(_c_l_at, weights, rtol=1e-30)
    assert abs(got - exact) <= 2 * math.ulp(got)


@pytest.mark.parametrize("weights", [(1030,), (1040,), (2000,), (600, 600), (6, 10 ** 6)])
def test_c_l_past_the_float_range_is_refused(weights):
    with pytest.raises(DomainError, match=r"C_l overflows a float at weights \["):
        asm.c_l(asm.WeightData(weights))


def test_frak_c_examples():
    eta = QuadCharData.build(0, [1])
    assert asm.frak_c(asm.WeightData((6,)), eta) == pytest.approx(0.6390273, abs=1e-6)
    eta_neg = QuadCharData.build(1, [-1])
    assert asm.frak_c(asm.WeightData((6,)), eta_neg) == pytest.approx(0.6390273 - math.log(2), abs=1e-6)
    assert asm.frak_c(asm.WeightData((4,)), eta) == pytest.approx(
        1 - 0.5 * math.log(math.pi) - 0.5 * asm.EULER_GAMMA)


def test_nu_and_x_examples():
    assert asm.nu_of_n(Ideal.of({P3: 1})) == 1
    assert asm.nu_of_n(Ideal.of({P3: 2})) == Fraction(5, 6)
    x = asm.x_of_n(Ideal.of({Q2: 2, P3: 1}))
    assert x == FormalLog.symbol("log@2", Fraction(1, 2) + Fraction(1, 1)) \
        + FormalLog.symbol("log@3", Fraction(1, 3) + Fraction(1, 4))


def test_nu_agrees_with_transform_of_one():
    rng = random.Random(2)
    for _ in range(40):
        n = Ideal.of({p: rng.randint(0, 6) for p in (P3, Q2, R5)})
        assert asm.nu_of_n(n) == nt.closed_power(n, 0)


CONSTS = asm.AnalyticConsts(D_F=4.0, L1_eta=0.7, Lp_over_L=0.25)
W6 = asm.WeightData((6,))


def test_main_AL_examples():
    n = Ideal.of({P3: 2})
    base = asm.main_AL(n, Ideal.unit(), ETA_PLUS_CLASS, CONSTS, W6)
    assert base == pytest.approx(4 * 4.0 ** 1.5 * 0.7 * float(Fraction(5, 6)))
    # odd inert exponent in the test ideal kills the term
    assert asm.main_AL(n, Ideal.of({Q2: 1}), ETA_PLUS_CLASS, CONSTS, W6) == 0.0
    # even inert exponent contributes norm(a)^(-1/2)
    with_a = asm.main_AL(n, Ideal.of({Q2: 2}), ETA_PLUS_CLASS, CONSTS, W6)
    assert with_a == pytest.approx(base / 2)


def test_main_AL_past_the_float_range_is_refused():
    # the scale 4 D^(3/2) L(1,eta) norm(a)^(-1/2) = 5.9e307 is a float, but
    # not its product with nu(p^2) d_1(s^3) = 10/3
    s2 = Prime("s", 2)
    eta = QuadCharData.build(0, [1], unram={P3: -1, s2: 1})
    consts = asm.AnalyticConsts(D_F=1.2e205, L1_eta=1.0)
    assert asm.main_term_scale(Ideal.of({s2: 3}), consts, 1.0) < 1e308
    with pytest.raises(DomainError, match=r"^the main term overflows a float at "
                                          r"AnalyticConsts\(D_F=1\.2e\+205, L1_eta=1\.0, Lp_over_L=0\.0\)$"):
        asm.main_AL(Ideal.of({P3: 2}), Ideal.of({s2: 3}), eta, consts, W6)


def test_main_AL_sign_guard():
    with pytest.raises(SignClassError):
        asm.main_AL(Ideal.of({P3: 2}), Ideal.unit(), ETA_MINUS, CONSTS, W6)
    with pytest.raises(SignClassError):
        # level and test ideal must be coprime
        asm.main_AL(Ideal.of({P3: 2}), Ideal.of({P3: 1}), ETA_PLUS_CLASS, CONSTS, W6)


def test_main_ADL_bracket_example():
    n = Ideal.of({P3: 2})
    bracket = asm.main_ADL_bracket(n, Ideal.unit(), ETA_MINUS)
    want = (FormalLog.symbol("log@3", 1)
            + FormalLog.symbol(LOG_DF, Fraction(5, 6))
            + FormalLog.symbol(LPL, Fraction(5, 6))
            + FormalLog.symbol(FRAKC, Fraction(5, 6)))
    assert bracket == want


def test_main_ADL_refuses_plus_class():
    with pytest.raises(SignClassError):
        asm.main_ADL_bracket(Ideal.of({P3: 2}), Ideal.unit(), ETA_PLUS_CLASS)


def test_sign_class_guard_lets_other_errors_through(monkeypatch):
    # only a SignClassError counts as the guard refusing; a crash escapes
    real = asm.main_ADL_bracket

    def crash_instead_of_refusing(n, a, eta):
        try:
            return real(n, a, eta)
        except SignClassError:
            raise RuntimeError("not a sign-class refusal")

    monkeypatch.setattr(asm, "main_ADL_bracket", crash_instead_of_refusing)
    with pytest.raises(RuntimeError):
        verify.suite_assembly(seed=0)


def test_main_ADL_correction_term():
    # one odd inert exponent on the test ideal: only the correction survives,
    # with coefficient (n_v + 1)/2 log q_v (the n_v + 1/2 variant breaks the
    # kernel identity below)
    n = Ideal.of({P3: 2})
    a = Ideal.of({Q2: 1})
    bracket = asm.main_ADL_bracket(n, a, ETA_MINUS)
    assert bracket == FormalLog.symbol("log@2", Fraction(5, 6) * Fraction(1))
    a3 = Ideal.of({Q2: 3})
    assert asm.main_ADL_bracket(n, a3, ETA_MINUS) == FormalLog.symbol("log@2", Fraction(5, 6) * 2)
    # two odd inert exponents: everything dies
    eta = QuadCharData.build(1, [-1], unram={P3: -1, Q2: -1, R5: -1})
    a2 = Ideal.of({Q2: 1, R5: 1})
    assert asm.main_ADL_bracket(n, a2, eta).is_zero()


def test_geom_kernel_equals_main_ADL_fixed_cases():
    cases = [
        (Ideal.of({P3: 2}), Ideal.unit()),
        (Ideal.of({P3: 2}), Ideal.of({Q2: 2})),
        (Ideal.of({P3: 4, Q2: 1}), Ideal.of({R5: 3})),
        (Ideal.of({P3: 2}), Ideal.of({Q2: 1, R5: 2})),
    ]
    for n, a in cases:
        sign = (-1) ** ETA_MINUS.eps * ETA_MINUS.tilde_eta_ideal(n)
        if sign != -1:
            n = n * Ideal.of({n.support[0]: 1})
        assert asm.geom_kernel_bracket(n, a, ETA_MINUS) == asm.main_ADL_bracket(n, a, ETA_MINUS)


def test_identity_at_unit_level():
    # with eps odd the unit ideal itself sits in the minus class; the
    # non-degenerate kernel bracket still matches the displayed main term
    n = Ideal.unit()
    for a in (Ideal.unit(), Ideal.of({Q2: 2}), Ideal.of({Q2: 1, R5: 2})):
        assert asm.geom_kernel_bracket(n, a, ETA_MINUS) == asm.main_ADL_bracket(n, a, ETA_MINUS)


def test_geom_kernel_reduces_to_plus_shape_at_unit_a():
    # with a = O the bracket is nu(n) times the scalar core
    n = Ideal.of({P3: 2})
    bracket = asm.geom_kernel_bracket(n, Ideal.unit(), ETA_MINUS)
    nu = asm.nu_of_n(n)
    assert bracket.coeffs[LPL] == nu
    assert bracket.coeffs[FRAKC] == nu


def test_main_term_value_evaluation():
    n = Ideal.of({P3: 2})
    bracket = asm.main_ADL_bracket(n, Ideal.unit(), ETA_MINUS)
    val = asm.main_ADL_value(bracket, Ideal.unit(), ETA_MINUS, CONSTS, W6)
    scale = 4 * 4.0 ** 1.5 * 0.7
    assert val == pytest.approx(scale * bracket.evaluate(CONSTS.bindings(W6, ETA_MINUS)))


def test_degenerate_terms():
    w = asm.WeightData((6,))
    assert asm.degenerate_D(Ideal.of({P3: 1}), ETA_MINUS, w) == 0
    nd = asm.degenerate_D(Ideal.of({P3: 2}), ETA_MINUS, w)
    assert abs(nd) == pytest.approx(1 / 6)
    # i^(l tilde) is i^(sum l): purely real for even weights
    assert nd.imag == pytest.approx(0.0)
    # at the unit ideal only the signs remain: (-1)^eps i^6
    assert asm.degenerate_D(Ideal.unit(), ETA_MINUS, w) == -(-1) ** ETA_MINUS.eps


def test_prefactor_cancellation():
    for n_s in range(4):
        for eps in range(3):
            pref = asm.geom_prefactor(n_s, eps)
            assert pref.rational == Fraction(4 * (-1) ** n_s)
            assert pref.d_pow == Fraction(3, 2)
            assert pref.g_pow == 0


def test_weight_and_consts_validation():
    with pytest.raises(ValueError):
        asm.WeightData((5,))
    with pytest.raises(ValueError):
        asm.WeightData(())
    with pytest.raises(ValueError):
        asm.AnalyticConsts(D_F=0.5)
    with pytest.raises(ValueError):
        asm.AnalyticConsts(L1_eta=0.0)


def test_henkei_wiring_small_instance():
    eta = QuadCharData.build(0, [1], unram={P3: -1})
    n = Ideal.of({P3: 2})
    al_star = lambda m: Fraction(3)
    al_dw = lambda m: Fraction(1, 2)
    adl_star = lambda m: Fraction(5, 4)
    G, D, n_s = Fraction(2), Fraction(3), 1
    pref = Fraction(2 * (-1) ** (n_s + eta.eps)) * D / G

    def w_geom(m):
        tot = (nt.convolve_omega(adl_star, m)
               + nt.convolve_omega(asm.adl_w_plus_weight(al_star, eta), m)
               + FormalLog.symbol(LOG_DF, nt.convolve_omega(al_star, m))
               + al_dw(m))
        return tot * (1 / pref)

    got = asm.henkei_adl_star(n, w_geom, al_star, al_dw, eta, G, D, n_s)
    assert got == FormalLog(Fraction(5, 4))
    log_mock = lambda m: FormalLog.log_integer(3, Fraction(1))
    with pytest.raises(InputError, match=r"^the exact wiring wants a rational-valued AL\* mock, "
                                         r"got AL\*\(p\^2\)=FormalLog\(1\*log@3\)$"):
        asm.henkei_adl_star(n, w_geom, log_mock, al_dw, eta, G, D, n_s)


def test_random_minus_config_wellformed():
    rng = random.Random(9)
    for _ in range(30):
        eta, n, a = verify.random_minus_config(rng)
        assert (-1) ** eta.eps * eta.tilde_eta_ideal(n) == -1
        assert not (set(n.support) & set(a.support))


# ---------------------------------------------------------------------------
# references: the FormalLog-algebra bodies that the integer sums replaced, a
# chain of + and * on FormalLog values; the integer sums must give their
# values and their coefficient order, which fixes the bits of evaluate()


def _nu_of_n_reference(n):
    out = Fraction(1)
    for p, e in n:
        if e == 2:
            out *= 1 - Fraction(1, p.q ** 2 - p.q)
        elif e > 2:
            out *= 1 - Fraction(1, p.q ** 2)
    return out


def _x_of_n_reference(n):
    out = FormalLog.zero()
    for p in n.support:
        out = out + FormalLog.log_integer(p.q, Fraction(1, p.q) + Fraction(1, (p.q - 1) ** 2))
    return out


def _main_ADL_bracket_reference(n, a, eta):
    am, ap = asm.eta_split(a, eta)
    nu = _nu_of_n_reference(n)
    d1p = asm.d_one(ap)
    bracket = FormalLog.zero()
    if asm.delta_square(am):
        core = nt.log_norm(n) * Fraction(1, 2) + nt.log_norm(a) * Fraction(-1, 2) + nt.log_norm(eta.conductor)
        core = core + FormalLog.symbol(LOG_DF) + FormalLog.symbol(LPL) + FormalLog.symbol(FRAKC)
        for p, e in n:
            if e == 2:
                core = core + FormalLog.log_integer(p.q, Fraction(1, p.q ** 2 - p.q - 1))
            elif e > 2:
                core = core + FormalLog.log_integer(p.q, Fraction(1, p.q ** 2 - 1))
        bracket = bracket + core * d1p
    for p, e in am:
        rest_even = all(e2 % 2 == 0 for p2, e2 in am if p2 != p)
        if e % 2 == 1 and rest_even:
            bracket = bracket + FormalLog.log_integer(p.q, Fraction((e + 1) * d1p, 2))
    return bracket * nu


def _geom_kernel_bracket_reference(n, a, eta):
    u_hat = {p: unip_u_scaled(eta.tilde_eta(p), e) for p, e in a}
    du_hat = {p: unip_du_scaled(eta.tilde_eta(p), e) for p, e in a}
    n_one = nt.closed_power(n, 0)
    c0 = (FormalLog.symbol(LOG_DF) + FormalLog.symbol(LPL) + FormalLog.symbol(FRAKC)
          + nt.log_norm(eta.conductor))
    prod_all = Fraction(1)
    for p, _ in a:
        prod_all *= u_hat[p]
    bracket = (nt.closed_log(n) * Fraction(1, 2) + c0 * n_one) * prod_all
    cross = FormalLog.zero()
    for p, _ in a:
        rest = Fraction(1)
        for p2, _ in a:
            if p2 != p:
                rest *= u_hat[p2]
        cross = cross + FormalLog.log_integer(p.q, du_hat[p] * rest)
    bracket = bracket + cross * n_one
    return bracket * Fraction((-1) ** len(a))


def _same(got, want):
    return got == want and list(got.coeffs) == list(want.coeffs)


def test_integer_sums_equal_the_formal_log_chains():
    # 2400 minus-class configs; every other one gets a ramified prime whose
    # q shares its rational prime with q's of the monoid (2, 4, 8 and 3, 9),
    # so log norm(f_eta) meets the symbols of n and a
    rng = random.Random(33)
    for k in range(2400):
        eta, n, a = verify.random_minus_config(rng)
        if k % 2:
            ram = {Prime("f", rng.choice((2, 3, 4, 8, 9))): rng.randint(1, 2)}
            eta = QuadCharData.build(eta.eps, eta.arch_signs, ram=ram, unram=dict(eta.unram))
        assert asm.nu_of_n(n) == _nu_of_n_reference(n) == nt.closed_power(n, 0), n
        assert _same(asm.x_of_n(n), _x_of_n_reference(n)), n
        assert _same(asm.main_ADL_bracket(n, a, eta), _main_ADL_bracket_reference(n, a, eta)), (n, a, eta)
        assert _same(asm.geom_kernel_bracket(n, a, eta), _geom_kernel_bracket_reference(n, a, eta)), (n, a, eta)


def test_a_cancelled_symbol_re_enters_at_the_end():
    # log norm(n)/2 - log norm(a)/2 = 2 log 3 - 2 log 3 leaves log@3 out, and
    # the place of n with exponent 2 brings it back after frakC
    nine, three = Prime("n", 9), Prime("a", 3)
    eta = QuadCharData.build(1, [-1], unram={nine: -1, three: 1})
    n, a = Ideal.of({nine: 2}), Ideal.of({three: 4})
    bracket = asm.main_ADL_bracket(n, a, eta)
    assert _same(bracket, _main_ADL_bracket_reference(n, a, eta))
    assert list(bracket.coeffs) == [LOG_DF, LPL, FRAKC, "log@3"]
