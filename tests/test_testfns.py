import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtfverify import testfns as tf
from rtfverify.errors import ConvergenceError, InputError


def test_chebyshev_trivial_values():
    assert tf.chebyshev(0, Fraction(7)) == 1 and type(tf.chebyshev(0, Fraction(7))) is Fraction
    assert tf.chebyshev(1, Fraction(7)) == 7
    assert tf.chebyshev(2, Fraction(0)) == -1
    for n in range(8):
        assert tf.chebyshev(n, Fraction(2)) == n + 1


def test_decompose_alpha_examples():
    assert tf.decompose_alpha(1) == ([1], 0)
    assert tf.decompose_alpha(2) == ([2, 0], -1)
    assert tf.decompose_alpha(3) == ([3, 1], 0)
    with pytest.raises(InputError, match=r"^n >= 0 required, got n=-1$"):
        tf.decompose_alpha(-1)


def test_decompose_alpha_laurent_identity():
    for n in range(0, 13):
        assert tf.laurent_decomposition(n) == tf.laurent_alpha_pn(n)


def test_unip_moment_closed_examples():
    # n = 0 gives -1 for both signs
    assert tf.unip_u_scaled(-1, 0) == tf.unip_u_scaled(1, 0) == -1
    # odd depth dies on the inert side
    assert tf.unip_u_scaled(-1, 1) == 0
    # the split side counts dimensions
    assert tf.unip_u_scaled(1, 3) == -4
    # at q = 3, n = 2 on the inert side: U = -1/3 and dU = (1/3) log 3
    assert tf.unip_u_scaled(-1, 2) == -1
    assert tf.unip_du_scaled(-1, 2) == 1


def test_dunip_examples():
    assert tf.dunip_scaled(3, -1, 0) == tf.dunip_scaled(3, 1, 0) == 0
    assert tf.dunip(3, -1, 0) == tf.dunip(3, 1, 0) == 0.0
    # at q = 3, m = 2: dU = (1/3) log 3 on the inert side and log 3 on the split side
    assert tf.dunip_scaled(3, -1, 2) == 1
    assert tf.dunip_scaled(3, 1, 2) == 3
    assert tf.dunip(3, -1, 2) == pytest.approx(math.log(3) / 3, rel=1e-15)
    assert tf.dunip(3, 1, 2) == pytest.approx(math.log(3), rel=1e-15)
    # odd m carries the irrational q^(-1/2), which no Fraction holds
    assert tf.dunip_scaled(3, -1, 1) == -1
    assert tf.dunip(3, -1, 1) == pytest.approx(-math.log(3) / math.sqrt(3), rel=1e-15)


def _period_integral(kernel, q, eta_val, alpha, sigma=0.7):
    """One (kernel, eta) pair and one alpha: a one-item call of period_integrals."""
    ((value,),) = tf.period_integrals([(kernel, eta_val)], q, [alpha], sigma=sigma)
    return value


def test_period_integral_examples():
    # the basic moment of the constant test function
    val = _period_integral(tf.upsilon_kernel, 3, -1, tf.alpha_pn_at(0))
    assert val.real == pytest.approx(-1.0, abs=1e-10)
    assert abs(val.imag) < 1e-10
    val = _period_integral(tf.dunip_kernel, 5, 1, tf.alpha_basis_at(0))
    assert abs(val) < 1e-10
    # derived value against the closed form
    val = _period_integral(tf.dunip_kernel, 3, -1, tf.alpha_basis_at(2))
    assert val.real == pytest.approx(math.log(3) / 3, abs=1e-10)


def test_period_integral_kernel_equivalence():
    # the two kernel routes are the same integrand
    for q, eta, n in ((2, -1, 3), (3, 1, 2)):
        a = _period_integral(tf.dunip_kernel, q, eta, tf.alpha_pn_at(n))
        b = _period_integral(tf.upsilon_over_unip_kernel, q, eta, tf.alpha_pn_at(n))
        assert a == pytest.approx(b, abs=1e-12)


def test_period_integral_guards():
    with pytest.raises(ValueError):
        _period_integral(tf.upsilon_kernel, 3, -1, tf.alpha_pn_at(0), sigma=-1.0)


def _period_pass_per_alpha(kernel, q, eta_val, alpha, sigma, steps):
    """The contour pass for one alpha alone, with its own z grid, kernel and
    measure, in the product order period_integrals must keep."""
    z = q ** (sigma / 2) * np.exp(2j * math.pi * (np.arange(steps) + 0.5) / steps)
    spacing = (np.roll(z, -1) - np.roll(z, 1)) / (2j * math.sin(2 * math.pi / steps) * z)
    terms = kernel(q, eta_val, z) * (math.sqrt(q) * (z - 1 / z) * spacing) * alpha(z)
    while len(terms) > 1:
        terms = terms[:len(terms) // 2] + terms[len(terms) // 2:]
    return complex(terms[0]) / steps


def _st_pass_per_n(q, eta_val, n, steps):
    """The theta-substitution pass for one n alone, with its own grid, weight
    and recurrence, in the product order st_moments must keep."""
    theta = np.linspace(0.0, math.pi, steps)
    x = 2 * np.cos(theta)
    weight = tf.plancherel_factor(q, eta_val, x) * (2 / math.pi) * np.sin(theta) ** 2 * (math.pi / (steps - 1))
    weight[[0, -1]] /= 2
    return float(np.sum(tf.chebyshev(n, x) * weight))


# A second arithmetic for the same integrals: each contour quantity a power
# of q at the grid point s, and X_n as a ratio of sines.  Its order of
# operations differs, so each oracle is held to it within a rounding budget,
# not bit for bit.

S_FORM_KERNELS = {
    "upsilon_kernel": lambda q, eta_val, s: 1.0 / ((1 - eta_val * q ** (-(1 + s) / 2)) * (1 - q ** ((1 + s) / 2))),
    "dunip_kernel": lambda q, eta_val, s: (
        eta_val * math.log(q) * q ** (-(s + 1))
        / ((1 - eta_val * q ** (-(s + 1) / 2)) ** 2 * (1 - q ** (-(s + 1) / 2)))),
}
S_FORM_KERNELS["upsilon_over_unip_kernel"] = lambda q, eta_val, s: (
    S_FORM_KERNELS["upsilon_kernel"](q, eta_val, s) * math.log(q) / (1 - eta_val * q ** ((s + 1) / 2)))


def _period_pass_s_form(kernel, q, eta_val, alpha, sigma, steps):
    """One contour pass on the grid s itself, with the measure
    (log q/2)(q^((1+s)/2) - q^((1-s)/2)) ds and the (1/2 pi i) factor."""
    T = 4 * math.pi / math.log(q)
    s = sigma + 1j * T * (np.arange(steps) + 0.5) / steps
    terms = (S_FORM_KERNELS[kernel.__name__](q, eta_val, s) * alpha(q ** (s / 2)) * (math.log(q) / 2)
             * (q ** ((1 + s) / 2) - q ** ((1 - s) / 2)))
    return complex(np.sum(terms)) * (1j * T / steps) / (2j * math.pi)


def _st_pass_sin_ratio(q, eta_val, n, steps):
    """One theta pass with X_n(2 cos t) = sin((n+1)t)/sin t, patched to its
    limit (n+1) cos(t)^n at the endpoints."""
    theta = np.linspace(0.0, math.pi, steps)
    x = 2 * np.cos(theta)
    num = np.sin((n + 1) * theta)
    den = np.sin(theta)
    Xn = np.where(den > 1e-12, num / np.where(den > 1e-12, den, 1.0), (n + 1) * np.cos(theta) ** n)
    integrand = Xn * tf.plancherel_factor(q, eta_val, x) * (2 / math.pi) * np.sin(theta) ** 2
    return float(np.trapezoid(integrand, theta))


def _s_form_tolerance(q, n, sigma):
    """1e-12 times the bound (n + 1) |z|^n on alpha_[p^n] and alpha^(n) on
    the contour |z| = q^(sigma/2): the two orders of operations round each
    term differently, by a few ulps of its size."""
    return 1e-12 * (n + 1) * q ** (sigma * n / 2)


def _bits(z: complex) -> tuple[str, str]:
    return complex(z).real.hex(), complex(z).imag.hex()


KERNELS = {"upsilon": tf.upsilon_kernel, "dunip_kernel": tf.dunip_kernel,
           "upsilon_over_unip": tf.upsilon_over_unip_kernel}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(KERNELS.values())), st.sampled_from((2, 3, 4, 5, 7, 9, 11, 13)),
       st.sampled_from((-1, 1)), st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.sampled_from((0.3, 0.7, 1.7)))
def test_period_integrals_bit_identical(kernel, q, eta, ns, sigma):
    alphas = [tf.alpha_pn_at(n) for n in ns] + [tf.alpha_basis_at(n) for n in ns]
    (batch,) = tf.period_integrals([(kernel, eta)], q, alphas, sigma=sigma)
    assert len(batch) == len(alphas)
    for n, alpha, got in zip(ns + ns, alphas, batch):
        assert _bits(got) == _bits(_period_integral(kernel, q, eta, alpha, sigma=sigma))
        assert _bits(got) == _bits(_period_pass_per_alpha(kernel, q, eta, alpha, sigma, 2 * 4096))
        assert abs(got - _period_pass_s_form(kernel, q, eta, alpha, sigma, 2 * 4096)) <= _s_form_tolerance(q, n, sigma)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.sampled_from(list(KERNELS.values())), min_size=1, max_size=3, unique=True),
       st.sampled_from((2, 3, 4, 5, 7, 9, 11, 13)), st.lists(st.integers(0, 8), min_size=1, max_size=4),
       st.sampled_from((0.3, 0.7, 1.7)))
def test_period_integrals_both_characters_on_one_grid_bit_identical(kernels, q, ns, sigma):
    # every kernel at both characters in one call, as suite_unipotent makes it
    pairs = [(kernel, eta) for eta in (-1, 1) for kernel in kernels]
    alphas = [tf.alpha_pn_at(n) for n in ns] + [tf.alpha_basis_at(n) for n in ns]
    rows = tf.period_integrals(pairs, q, alphas, sigma=sigma)
    assert len(rows) == len(pairs)
    for (kernel, eta), row in zip(pairs, rows):
        assert [_bits(v) for v in row] == [_bits(_period_integral(kernel, q, eta, a, sigma=sigma)) for a in alphas]


QE_PAIRS = st.tuples(st.sampled_from((2, 3, 4, 5, 7, 9, 11, 13)), st.sampled_from((-1, 1)))


@settings(max_examples=15, deadline=None)
@given(st.lists(QE_PAIRS, min_size=1, max_size=4), st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_st_moments_bit_identical(pairs, ns):
    rows = tf.st_moments(pairs, ns)
    assert len(rows) == len(pairs)
    for (q, eta), batch in zip(pairs, rows):
        for n, got in zip(ns, batch, strict=True):
            assert got.hex() == tf.st_moments([(q, eta)], [n])[0][0].hex()
            assert got.hex() == _st_pass_per_n(q, eta, n, 2 * tf.ST_STEPS + 1).hex()
            assert abs(got - _st_pass_sin_ratio(q, eta, n, 2 * tf.ST_STEPS + 1)) <= 1e-12


def test_st_grid_margin():
    # ST_STEPS keeps the refinement gap 1e4 below the 1e-9 gate, and the
    # moments within 1e-13 of their closed values, over the q of verify's
    # random monoids; it fails at 65 steps (gap 9.9e-12)
    pairs = [(q, eta) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13) for eta in (-1, 1)]
    ns = range(41)
    coarse = tf._st_passes(pairs, ns, tf.ST_STEPS)
    fine = tf.st_moments(pairs, ns)
    for (q, eta), row1, row2 in zip(pairs, coarse, fine):
        for n, v1, v2 in zip(ns, row1, row2):
            assert abs(v1 - v2) <= 1e-13, (q, eta, n, abs(v1 - v2))
            assert abs(v2 - tf.st_moment_expected(q, eta, n)) <= 1e-13, (q, eta, n)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("count", [1, 9])
def test_period_integrals_run_each_kernel_once_per_grid(kernel, count):
    calls = []

    def counted(q, eta_val, s):
        calls.append(len(s))
        return KERNELS[kernel](q, eta_val, s)

    tf.period_integrals([(counted, -1)], 3, [tf.alpha_pn_at(n) for n in range(count)])
    assert calls == [4096, 8192]


# (kernel, eta) pairs; the last runs two kernels at both characters
@pytest.mark.parametrize("kernels", [[("upsilon", -1)], [("upsilon", -1), ("dunip_kernel", -1)],
                                     [(k, -1) for k in sorted(KERNELS)],
                                     [(k, eta) for eta in (-1, 1) for k in ("upsilon", "dunip_kernel")]])
def test_period_integrals_evaluate_each_alpha_once_per_grid(kernels):
    calls = []

    def counted(alpha):
        def f(z):
            calls.append((alpha, len(z)))
            return alpha(z)
        return f

    alphas = [tf.alpha_pn_at(n) for n in range(3)] + [tf.alpha_basis_at(2)]
    rows = tf.period_integrals([(KERNELS[k], eta) for k, eta in kernels], 3, [counted(a) for a in alphas])
    assert calls == [(a, steps) for steps in (4096, 8192) for a in alphas]
    assert len(rows) == len(kernels) and all(len(row) == len(alphas) for row in rows)
    for (kernel, eta), row in zip(kernels, rows):
        assert [_bits(v) for v in row] == [_bits(_period_integral(KERNELS[kernel], 3, eta, a)) for a in alphas]


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 11, 13))
@pytest.mark.parametrize("eta", (-1, 1))
def test_period_integrals_cover_the_moments_domain(q, eta):
    # every (q, eta, n <= 10) that rtf moments is asked in the benchmark's
    # queries passes both kernels' refinement checks
    u, du = tf.period_integrals([(tf.upsilon_kernel, eta), (tf.dunip_kernel, eta)], q,
                                [tf.alpha_pn_at(n) for n in range(11)])
    assert len(u) == len(du) == 11


def test_alphas_are_named():
    assert tf.alpha_pn_at(20).__name__ == "alpha_[p^20]"
    assert tf.alpha_basis_at(3).__name__ == "alpha^(3)"


def test_period_integrals_failure_names_the_input():
    def growing_kernel(q, eta_val, s):
        # grows with the grid, so it fails every refinement check
        return len(s) * q ** (-(1 + s) / 2)

    def nan_dunip_kernel(q, eta_val, z):
        # its refinement gap is NaN, which fails the gate too
        return tf.dunip_kernel(q, eta_val, z) * np.nan

    for kernel, gap in ((growing_kernel, "refinement gap "), (nan_dunip_kernel, "refinement gap nan")):
        with pytest.raises(ConvergenceError) as info:
            tf.period_integrals([(tf.upsilon_kernel, -1), (kernel, 1)], 5, [tf.alpha_pn_at(0), tf.alpha_pn_at(2)],
                                sigma=0.3)
        msg = str(info.value)
        for part in (kernel.__name__, "q=5", "eta=1", "sigma=0.3", "steps=4096", "alpha #0", gap):
            assert part in msg, msg


def test_st_moments_failure_names_the_input(monkeypatch):
    for factor, parts in (
            # the weight grows with the grid at q = 3 only, so the second pair fails;
            # X_4 is orthogonal to the constant, so only n = 0 sees the grid size
            (lambda q, eta_val, x: np.full(x.shape, float(len(x)) if q == 3 else 1.0), ("q=3", "eta=-1", "n=0", "gap ")),
            # a NaN weight fails the first value the gate reads
            (lambda q, eta_val, x: np.full(x.shape, np.nan), ("q=5", "eta=1", "n=4", "gap nan"))):
        monkeypatch.setattr(tf, "plancherel_factor", factor)
        with pytest.raises(ConvergenceError) as info:
            tf.st_moments([(5, 1), (3, -1)], [4, 0])
        msg = str(info.value)
        for part in (f"steps={tf.ST_STEPS}", "refinement") + parts:
            assert part in msg, msg


def test_kernel_identity_exact():
    for Y in (Fraction(7, 2), Fraction(-9, 4), Fraction(13)):
        for eta in (-1, 1):
            assert tf.kernel_identity_lhs(eta, Y) == tf.kernel_identity_rhs(eta, Y)


def test_st_moment_examples():
    for q in (2, 3, 5):
        for eta in (-1, 1):
            assert tf.st_moments([(q, eta)], [0])[0][0] == pytest.approx(1.0, abs=1e-10)
    ((m2, m3),) = tf.st_moments([(3, -1)], [2, 3])
    assert m2 == pytest.approx(1 / 3, abs=1e-9)
    assert m3 == pytest.approx(0.0, abs=1e-9)
    assert tf.st_moments([(5, 1)], [1])[0][0] == pytest.approx(2 / 5 ** 0.5, abs=1e-9)
