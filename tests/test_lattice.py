import math
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from rtfverify import lattice as lt, verify
from rtfverify.errors import ConvergenceError, DomainError, InputError, UnsupportedField
from rtfverify.orbital_local import tau_S_rational


def test_embed_examples():
    z = lt.embed_ideal("Q", 1)
    assert z.covolume == 1.0
    assert lt.min_vector_radius(z) == 0.5
    o2 = lt.embed_ideal("real_quadratic", "O", m=2)
    assert o2.covolume == pytest.approx(2 * math.sqrt(2))
    assert lt.min_vector_radius(o2) == pytest.approx(math.sqrt(2) / 2)
    nz = lt.embed_ideal("Q", 7)
    assert nz.covolume == pytest.approx(7.0) and lt.min_vector_radius(nz) == 3.5


def test_embed_guards():
    with pytest.raises(UnsupportedField):
        lt.embed_ideal("cubic", 1)
    with pytest.raises(UnsupportedField):
        lt.embed_ideal("real_quadratic", "O")
    for basis, covolume in ((((1.0, 2.0), (2.0, 4.0)), "0.0"), (((math.nan,),), "nan"), (((math.inf,),), "inf")):
        with np.errstate(invalid="ignore"), pytest.raises(
                InputError, match=rf"^basis .* must be finite and nonsingular, got covolume {covolume}$"):
            lt.EmbeddedLattice(basis, "refused")


@pytest.mark.parametrize("m", [4, 8, 12, 18])
def test_embed_refuses_a_non_squarefree_m(m):
    # Q(sqrt 4) = Q, and Z[sqrt 8] is not the maximal order of Q(sqrt 2)
    with pytest.raises(UnsupportedField, match=f"m={m}"):
        lt.embed_ideal("real_quadratic", "O", m=m)


@pytest.mark.parametrize("m, accepted", [(4194303, True), (2048 ** 2, False), (4194319, False)])
def test_embed_takes_m_below_the_factor_table_reach(m, accepted):
    # 4194303 = 3 * 23 * 89 * 683; 4194319, the first prime past 2048^2, is
    # refused before any factoring
    if accepted:
        assert lt.embed_ideal("real_quadratic", "O", m=m).d == 2
        return
    t0 = time.perf_counter()
    with pytest.raises(UnsupportedField, match=rf"1 < m < {2048 ** 2}, got m={m}$"):
        lt.embed_ideal("real_quadratic", "O", m=m)
    assert time.perf_counter() - t0 < 0.1


def test_theta_weight_4_on_Z():
    th = lt.theta(lt.embed_ideal("Q", 1), [4], 1e4)
    exact = 2 * (math.pi ** 2 / 6 - 1)
    assert abs(th["value"] - exact) <= th["tail_bound"]
    assert abs(th["value"] + th["tail_estimate"] - exact) <= 1e-6


def test_theta_scaling_on_2Z():
    th = lt.theta(lt.embed_ideal("Q", 2), [4], 1e4)
    exact = math.pi ** 2 / 4 - 2
    assert abs(th["value"] + th["tail_estimate"] - exact) <= 1e-6


def test_theta_two_truncations_agree():
    o2 = lt.embed_ideal("real_quadratic", "O", m=2)
    a = lt.theta(o2, [6, 6], 40.0)
    b = lt.theta(o2, [6, 6], 80.0)
    assert abs(a["value"] - b["value"]) <= a["tail_bound"] + b["tail_bound"]
    assert b["tail_bound"] < a["tail_bound"]


def _tail_bound_shell_walk(lat, lmin, R):
    """_tail_bound with its shells walked one at a time in a Python loop: the
    reference its blocked numpy sum must equal bit for bit."""
    r = lt.min_vector_radius(lat)
    d = lat.d
    s = lmin / 2
    vball = 2 * r if d == 1 else math.pi * r * r

    def shell_count(k: float) -> float:
        hi, lo = k + 1 + r, max(0.0, k - r)
        vol = (2 * (hi - lo)) if d == 1 else math.pi * (hi * hi - lo * lo)
        return vol / vball

    k0 = int(math.floor(R))
    k1 = k0 + int(math.ceil(r)) + 2
    total = 0.0
    for k in range(k0, k1):
        total += shell_count(k) * (1 + k) ** -s
    c_d = (1 + 2 * r) / r if d == 1 else 2 * (1 + 2 * r) / (r * r)
    head = c_d * (1 + k1) ** (d - 1 - s)
    integral = c_d * (1 + k1) ** (d - s) / (s - d)
    return total + head + integral


def _sqrt2_power(k):
    # (sqrt 2)^k as x + y*sqrt(2)
    return (2 ** (k // 2), 0) if k % 2 == 0 else (0, 2 ** ((k - 1) // 2))


# rank one N Z with N up to 10^4, at walks of one block, one shell past it,
# and at the largest generator (about 31 blocks); the sqrt(2) chain in rank
# two, and the largest generator there
_TAIL_CASES = (
    [(lt.embed_ideal("Q", N), l, R) for N in (1, 2, 3, 5, 10, 31, 100, 316, 1000, 3162, 10000, Fraction(7, 3))
     for l in (4, 6, 7.5) for R in (0.0, 3.5, 20.0, 200.0, 10000.5)]
    + [(lt.embed_ideal("Q", N), 4, 20.0) for N in (2 * lt.SHELL_BLOCK - 4, 2 * lt.SHELL_BLOCK - 2)]
    + [(lt.embed_ideal("Q", lt.MAX_GENERATOR), l, R) for l in (4, 6) for R in (0.0, 20.0)]
    + [(lt.embed_ideal("real_quadratic", _sqrt2_power(k), m=2), l, R) for k in range(7) for l in (6, 9)
       for R in (0.0, 60.0 * 2 ** (k / 2))]
    + [(lt.embed_ideal("real_quadratic", lt.MAX_GENERATOR, m=2), 6, 20.0)])


def test_tail_bound_equals_the_shell_walk():
    for lat, l, R in _TAIL_CASES:
        assert lt._tail_bound(lat, l, R).hex() == _tail_bound_shell_walk(lat, l, R).hex(), (lat.provenance, l, R)


def test_tail_bound_below_the_normal_floats_is_floored():
    # at l = 380 every term of the bound underflows, and at l = 1327 in rank
    # two too: the floor is reported, and stays above the bound taken in mpmath
    z, o2 = lt.embed_ideal("Q", 1), lt.embed_ideal("real_quadratic", "O", m=2)
    assert lt.theta(z, [380], 50)["tail_bound"] > 0
    for lat, l, R in ((z, 380, 50.0), (z, 1327, 5.0), (o2, 1327, 30.0)):
        assert lt._tail_bound(lat, l, R) == lt.TAIL_FLOOR
        assert 0 < _tail_bound_shell_walk(lat, mpmath.mpf(l), R) < lt.TAIL_FLOOR
    # at l = 360 and 361 the bound is a normal float (1.13 min at 361, below
    # the floor), and keeps its bits
    for l in (360, 361):
        assert sys.float_info.min < lt._tail_bound(z, l, 50.0) == _tail_bound_shell_walk(z, l, 50.0)


def test_theta_weight_guard_and_tolerance():
    z = lt.embed_ideal("Q", 1)
    with pytest.raises(DomainError):
        lt.theta(z, [3], 10.0)


def test_enumeration_radius_complete():
    # at R = 26 and 50 the points +-(R/2) sqrt2 (1, -1) lie on the sphere
    o2 = lt.embed_ideal("real_quadratic", "O", m=2)
    for R in (5.0, 11.0, 23.0, 26.0, 50.0):
        small = lt.lattice_points(o2, R)
        big = lt.lattice_points(o2, 2 * R)
        inside = big[np.linalg.norm(big, axis=1) <= R + 1e-12]
        assert len(inside) == len(small)


def test_points_equal_the_exact_count_on_the_queries_range():
    # rtf lattice's lattices and radii in the benchmark's queries: N O_Q(sqrt m)
    # for m in 2, 3, 5, 6, 7 and N in 1, 2, 3, and N Z for N in 1, 2, 3, 5,
    # at every integer R from 20 to 80.  xi = N (a + b omega) has 4|xi|^2 =
    # N^2 F(a, b), F the integer form 8(a^2 + m b^2), or 2((2a + b)^2 + m b^2)
    # where m = 1 (mod 4), so |xi| <= R reads F(a, b) <= 4R^2 // N^2 with no
    # float step; F <= 4 * 80^2 needs |a|, |b| <= sqrt2 * 80, inside the box
    ab = np.arange(-160, 161, dtype=np.int64)
    a, b = np.meshgrid(ab, ab, indexing="ij")
    wrong = []
    for m in (2, 3, 5, 6, 7):
        form = 2 * (2 * a + b) ** 2 + 2 * m * b * b if m % 4 == 1 else 8 * (a * a + m * b * b)
        form = np.sort(form[form > 0])
        for N in (1, 2, 3):
            lat = lt.embed_ideal("real_quadratic", N if N > 1 else "O", m=m)
            for R in range(20, 81):
                want = int(np.searchsorted(form, 4 * R * R // (N * N), side="right"))
                if len(lt.lattice_points(lat, float(R))) != want:
                    wrong.append((m, N, R))
    for N in (1, 2, 3, 5):
        lat = lt.embed_ideal("Q", N)
        wrong += [(1, N, R) for R in range(20, 81) if len(lt.lattice_points(lat, float(R))) != 2 * (R // N)]
    assert wrong == []


def test_points_of_a_tiny_generator():
    # the filter's slack is relative: at |g| = 1e-13, far below an absolute
    # 1e-12, no point lies within R = 0, and within 5e-13 the 10 of |k| <= 5
    lat = lt.embed_ideal("Q", 1e-13)
    assert len(lt.lattice_points(lat, 0.0)) == 0
    assert len(lt.lattice_points(lat, 5e-13)) == 10


@pytest.mark.parametrize("lat, R", [(lt.embed_ideal("Q", 1), 1e9),
                                    (lt.embed_ideal("real_quadratic", "O", m=2), 1e4)])
def test_enumeration_past_the_box_cap_is_refused(lat, R):
    # refused before the box is allocated: 2e9 points on Z would take about 15 GiB
    with pytest.raises(InputError, match=f"R={R}.* past the cap of {lt.MAX_BOX_POINTS}"):
        lt.lattice_points(lat, R)


def test_theta_monotone_under_inclusion():
    # termwise subsums: theta(3 O) <= theta(O) at equal truncation
    o2 = lt.embed_ideal("real_quadratic", "O", m=2)
    sub = lt.embed_ideal("real_quadratic", 3, m=2)
    R = 60.0
    assert lt.theta(sub, [6, 6], R)["value"] <= lt.theta(o2, [6, 6], R)["value"]
    z = lt.embed_ideal("Q", 1)
    z2 = lt.embed_ideal("Q", 2)
    assert lt.theta(z2, [4], 1e3)["value"] <= lt.theta(z, [4], 1e3)["value"]


def test_sphere_I_closed_examples():
    assert lt.sphere_I([0.0, 0.0]) == pytest.approx(2 * math.pi)
    assert lt.sphere_I([0.0, 0.0, 0.0]) == pytest.approx(4 * math.pi)


def test_sphere_I_quad_oracle():
    for lam in ((0.5, 0.0), (0.25, 0.25), (-1.0, 0.5)):
        assert lt.sphere_I_quad(lam) == pytest.approx(lt.sphere_I(lam), rel=1e-6)


def test_sphere_I_domain():
    for sphere_I in (lt.sphere_I, lt.sphere_I_quad):
        with pytest.raises(DomainError, match=r"lambda_j < 1 required, got lambda=\[1.0, 0.0\]"):
            sphere_I([1.0, 0.0])
        with pytest.raises(DomainError, match=r"lambda_j < 1 required, got lambda=\[nan, 0.0\]"):
            sphere_I((math.nan, 0.0))
    with pytest.raises(DomainError):
        lt.sphere_I_quad([0.5, 0.0, 0.0])   # angular quadrature is rank two only


def test_fI_examples():
    # no terms inside the truncation window
    assert lt.fI_rational(6, 10 ** 9, 0) == 0.0
    vals = [lt.fI_rational(6, N, 60) for N in (10, 100, 1000)]
    assert vals[0] > vals[1] > vals[2] > 0


@pytest.mark.parametrize("N", [1, 3, 10, 31, 100, 1000])
def test_hyperbolic_points_match_fraction_arithmetic(N):
    # against Fraction arithmetic on b = +-k N, with tau at bset = 1
    want = []
    for k in range(1, 121):
        for s in (1, -1):
            b = Fraction(N) * s * k
            if b != -1:
                tau = tau_S_rational(b.numerator, b.denominator, 1)
                if tau:
                    want.append((tau, float(b)))
    got = lt._hyperbolic_points(N, 120)
    assert [(tau, b.hex()) for tau, b in got] == [(tau, b.hex()) for tau, b in want]


def test_w_hyp_arch_audit():
    ns = (10, 100, 1000)
    assert verify._loglog_slope(ns, lt.w_hyp_arch_audit(6, ns, 25)) <= -(6 / 2 - 1) + 0.1


def test_bound_audits():
    ideal_2 = lt.embed_ideal("real_quadratic", 2, m=2)
    rep = lt.bound_audits(ideal_2, lt.embed_ideal("real_quadratic", "O", m=2), [6, 6],
                          lt.theta(ideal_2, [6, 6], 120.0)["value"])
    assert rep["covering_ok"] and rep["submultiplicative_ok"] and rep["minkowski_ok"]


def _kronecker_submultiplicative(d, l):
    """f(x + y) >= f(x) f(y) - 1e-15 on 10,000 pairs in [-5, 5]^d: the sample
    that bound_audits once took on every rtf lattice query."""
    # frac(k alpha), k = 1..10^4, alpha_j = 2^(j/(2d+1)), j = 1..2d: 1 and the
    # alpha_j are rationally independent, so the pairs fill [-5, 5]^d evenly
    pts = 10 * (np.arange(1, 10_001)[:, None] * 2.0 ** (np.arange(1, 2 * d + 1) / (2 * d + 1)) % 1.0) - 5
    xs, ys = pts[:, :d], pts[:, d:]
    fx = lt._f_values(xs, l) * lt._f_values(ys, l)
    fxy = lt._f_values(xs + ys, l)
    return bool(np.all(fxy >= fx - 1e-15))


@pytest.mark.parametrize("l", [(4,), (4.01,), (6,), (9,), (1327,), (4, 4), (4.01, 4.01), (6, 6), (9, 9),
                               (1327, 1327), (4.5, 900)])
def test_f_is_submultiplicative_where_the_weights_are_nonnegative(l):
    # 1 + |x + y| <= (1 + |x|)(1 + |y|) gives f(x + y) >= f(x) f(y) for every
    # l >= 0, which bound_audits reports as the hypothesis min(l) >= 0
    lat = lt.embed_ideal("Q", 1) if len(l) == 1 else lt.embed_ideal("real_quadratic", "O", m=2)
    assert _kronecker_submultiplicative(len(l), l)
    assert lt.bound_audits(lat, lat, l, 1.0)["submultiplicative_ok"] is (min(l) >= 0)


def test_f_is_not_submultiplicative_at_a_negative_weight():
    assert not _kronecker_submultiplicative(1, [-1])


def test_theta_envelope_hand_values():
    # (1 + r0)^(d max(l)/2) / D0 * D^((1 - min(l)/2)/d): N Z inside Z at l = [4]
    # has r0 = 1/2, D0 = 1, D = N, so 9/(4N); O_Q(sqrt2) inside itself at
    # l = [6, 6] has r0 = sqrt2/2 and D0 = D = 2 sqrt2, so (1 + sqrt2/2)^6/8
    z = lt.embed_ideal("Q", 1)
    for N in (1, 2, 7, 1000):
        assert lt.theta_envelope(lt.embed_ideal("Q", N), z, [4]) == pytest.approx(9 / (4 * N), rel=1e-15, abs=0)
    o2 = lt.embed_ideal("real_quadratic", "O", m=2)
    value = (1 + math.sqrt(2) / 2) ** 6 / 8
    assert round(value, 4) == 3.0937
    assert lt.theta_envelope(o2, o2, [6, 6]) == pytest.approx(value, rel=1e-15, abs=0)


@pytest.mark.parametrize("m, ideal, l", [(2, "O", 2000), (2, 2, 1300), (2, 3, 1000), (2, 3, 1327), (7, 3, 800)])
def test_theta_envelope_where_a_factor_leaves_the_float_range(m, ideal, l):
    # in rank two (1 + r0)^l overflows on O_Q(sqrt2) from l = 1328, and in
    # the other four rows D^((1 - l/2)/2) underflows; the envelopes are in range
    lat0, lat = lt.embed_ideal("real_quadratic", "O", m=m), lt.embed_ideal("real_quadratic", ideal, m=m)
    r0, D0, D = (mpmath.mpf(x) for x in (lat0.packing_radius, lat0.covolume, lat.covolume))
    want = (1 + r0) ** l / D0 * D ** ((1 - mpmath.mpf(l) / 2) / 2)
    assert lt.theta_envelope(lat, lat0, [l, l]) == pytest.approx(float(want), rel=1e-12, abs=0)


def test_minkowski_sandwich():
    for N in (1, 2, 9):
        assert lt.minkowski_sandwich_ok(lt.embed_ideal("Q", N))
    assert lt.minkowski_sandwich_ok(lt.embed_ideal("real_quadratic", "O", m=2))
    assert lt.minkowski_sandwich_ok(lt.embed_ideal("real_quadratic", (0, 2), m=2))
    assert lt.minkowski_sandwich_ok(lt.embed_ideal("real_quadratic", "O", m=5))


def test_phi_mellin_audit_examples():
    # rank one is exact: phi(t) = 2 (1+t)^(-l/2)
    assert lt.phi_spheres([6.0], [3.0]) == [2 * 4.0 ** -3]
    # in rank two phi(t) decays like t^-(d - 1 + min(l)/2) = t^-4
    ts = [100.0, 316.0, 1000.0, 3162.0]
    assert abs(verify._loglog_slope(ts, lt.phi_spheres([6.0, 6.0], ts)) + 4.0) <= 0.05 * 4.0


def test_ball_integral_rank_one():
    val = lt.ball_integral(3.0, [6.0])
    assert val == pytest.approx(2 * (1 - 4.0 ** -2) / 2)
    out = lt.ball_integral(3.0, [6.0], outside=True)
    assert out == pytest.approx(2 * 4.0 ** -2 / 2)


@pytest.mark.parametrize("l", [(6, 6), (6, 10), (8, 12)])
def test_ball_integral_inside_plus_outside_is_the_total(l):
    # the integral of f over R^2 is prod_j 2 int_0^inf (1+x)^(-l_j/2) dx
    total = math.prod(4 / (lj - 2) for lj in l)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (0.3, 1.0, math.sqrt(2), 3.0, 10.0):
            both = lt.ball_integral(r, l) + lt.ball_integral(r, l, outside=True)
            assert abs(both - total) <= 1e-9 * total, (l, r, both / total - 1)


def test_ball_integral_failure_names_the_ball():
    # a NaN weight leaves the integrand not finite; the failure names l, r and the side
    with pytest.raises(ConvergenceError, match=r"^ball integral of f at l=\[6, nan\], r=1.5, outside: "
                                               r"quad_many integral #0 on \[0.0, 0.7853981633974483\]: "
                                               r"the integrand is not finite$"):
        lt.ball_integral(1.5, [6, math.nan], outside=True)


def _ball_polar(ctx, r, l, outside):
    """ball_integral(r, l, outside) on the mpmath context ctx, as the 2-D
    integral of f in polar coordinates, x = rho (cos t, sin t): the radial
    integral the inner one, split where rho cos t or rho sin t is 1 or 10,
    and the angular one split at the t where rho = r meets those points.

    _BALL_REFERENCE holds tests/_reference.reference(_ball_polar, *case,
    rtol=1e-20, start=20) for each case: two precisions from 20 digits on
    agree to 1e-20.  A case takes seconds to minutes, so no test calls it."""
    a, c = ctx.mpf(l[0]) / 2, ctx.mpf(l[1]) / 2
    r = ctx.mpf(r)

    def radial(t):
        co, si = ctx.cos(t), ctx.sin(t)
        knots = sorted(k / s for k in (1, 10) for s in (co, si) if s)
        rhos = [r, *[k for k in knots if k > r], ctx.inf] if outside else [0, *[k for k in knots if k < r], r]
        return ctx.quad(lambda rho: (1 + rho * co) ** -a * (1 + rho * si) ** -c * rho, rhos)

    ts = sorted({ctx.zero, ctx.pi / 4, ctx.pi / 2, *[f(k / r) for k in (1, 10) if k < r for f in (ctx.asin, ctx.acos)]})
    return 4 * ctx.quad(radial, ts)


_BALL_REFERENCE = [
    (0.3, (4.01, 4.01), False, "0.179123933155821326323050"),
    (300.0, (4.01, 4.01), True, "0.025573120703665646470722"),
    (1.5, (5, 13), True, "0.128185692125209590541817"),
    (30.0, (5, 13), False, "0.482039117124315349539622"),
    (100.0, (5, 13), True, "0.000477670127887595368496"),
    (3.0, (14, 5), False, "0.388407444390332500801015"),
    (100.0, (14, 5), True, "0.000437863402132640814502"),
    (0.7, (13, 10), True, "0.033816418408424580823452"),
    (10.0, (13, 10), False, "0.181805390162777834404589"),
    (300.0, (13, 10), True, "2.215418133451295396691e-11"),
]


@pytest.mark.parametrize("r, l, outside, value", _BALL_REFERENCE)
def test_ball_integral_against_a_polar_reference(r, l, outside, value):
    assert abs(lt.ball_integral(r, l, outside) - float(value)) <= 1e-12 * float(value)


def test_ball_integral_is_symmetric_in_its_weights():
    # f(x_1, x_2) with the weights swapped is f(x_2, x_1), and the ball is
    # symmetric, but ball_integral closes the x_2-integral and integrates
    # x_1: a swap compares the two, out to radii and weights far past the
    # reference cases, where a panel that spans decades misses mass
    for r in (2.8, 5.6, 1e4, 4.7e5, 7.5e5):
        for l in ((12, 7), (12, 200), (14, 1000), (5, 14), (4.01, 6)):
            for outside in (False, True):
                one, two = lt.ball_integral(r, l, outside), lt.ball_integral(r, l[::-1], outside)
                assert abs(one - two) <= 1e-12 * max(one, two), (r, l, outside, one / two - 1)
