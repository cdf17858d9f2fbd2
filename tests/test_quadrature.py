import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rtfverify import lattice as lt, orbital_arch as oa, quadrature
from rtfverify.errors import ConvergenceError
from rtfverify.quadrature import GAUSS, KRONROD, NODES, quad_many


def test_gauss_nodes_and_weights_are_legendre():
    x, w = np.polynomial.legendre.leggauss(10)
    on = GAUSS > 0
    assert np.max(np.abs(NODES[on] - x)) <= 1e-15
    assert np.max(np.abs(GAUSS[on] - w)) <= 1e-15


@pytest.mark.parametrize("degree", range(32))
def test_kronrod_is_exact_up_to_degree_31(degree):
    exact = 2 / (degree + 1) if degree % 2 == 0 else 0.0
    assert abs((NODES ** degree * KRONROD).sum() - exact) <= 1e-15


def test_kronrod_is_not_exact_at_degree_32():
    # the bound above is sharp, so the constants cannot be a higher-order rule
    assert abs((NODES ** 32 * KRONROD).sum() - 2 / 33) > 1e-13


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.75, 0.9])
def test_endpoint_singularity(lam):
    ((val, err),) = quad_many(lambda x, which: x ** -lam, [(0.0, 1.0)], epsabs=1e-10, epsrel=0.0, limit=500)
    assert abs(val - 1 / (1 - lam)) <= 1e-10 and err <= 1e-10
    assert type(val) is float and type(err) is float


def test_break_points_and_complex_integrand():
    # break points are the inner edges of a quad_many integral
    ((val, err),) = quad_many(lambda x, which: np.exp(1j * x), [(0.0, 1.0, 2.0, 3.0)],
                              epsabs=1e-13, epsrel=0.0, limit=50)
    assert type(val) is complex
    assert abs(val - (np.exp(3j) - 1) / 1j) <= 1e-13


def test_limit_raises_convergence_error_naming_the_interval():
    with pytest.raises(ConvergenceError, match=r"\[0.0, 1.0\].*with 12 panels"):
        quad_many(lambda x, which: x ** -0.9, [(0.0, 1.0)], epsabs=1e-12, epsrel=0.0, limit=12)


def test_non_finite_integrand_raises():
    with pytest.raises(ConvergenceError, match="not finite"):
        quad_many(lambda x, which: np.full_like(x, np.nan), [(0.0, 1.0)], epsabs=1e-12, epsrel=0.0, limit=50)


def test_zero_integrand_meets_a_relative_rule():
    # with epsabs = 0 the target of an integral of 0 is 0, and its error 0 meets it
    for dtype in (float, complex):
        got = quad_many(lambda x, which: np.zeros(x.shape, dtype), [(0.0, 0.5, 1.0)], epsabs=0.0, epsrel=1e-12, limit=50)
        assert got == [(0.0, 0.0)] and type(got[0][0]) is dtype


def test_quad_many_names_the_failing_integral():
    # integral #2 alone has an endpoint singularity that 12 panels cannot meet
    def f(x, which):
        return np.where(which == 2, x ** -0.9, x)

    with pytest.raises(ConvergenceError, match=r"quad_many integral #2 on \[0.0, 1.0\].*with 12 panels") as info:
        quad_many(f, [(0.0, 1.0)] * 4, epsabs=1e-12, epsrel=0.0, limit=12)
    assert info.value.which == 2


def test_quad_many_batch_finishing_in_different_rounds():
    # x^-lam on [0, 1]: #0 finishes in round 1, #3 in round 43 and #1 in
    # round 68, while #2 reaches the limit of 100 panels in round 100
    lam = np.array([0.0, 0.5, 0.9, 0.25])
    last = {}

    def f(x, which):
        last["round"] = last.get("round", 0) + 1
        last.update({int(i): last["round"] for i in np.unique(which)})
        return x ** -lam[which]

    with pytest.raises(ConvergenceError, match=r"quad_many integral #2 on \[0.0, 1.0\].*with 100 panels") as info:
        quad_many(f, [(0.0, 1.0)] * 4, epsabs=1e-10, epsrel=0.0, limit=100)
    assert info.value.which == 2
    assert (last[0], last[3], last[1], last[2]) == (1, 43, 68, 100)
    # the others without it, each against its one-item call
    lam = np.array([0.0, 0.5, 0.25])
    got = quad_many(lambda x, which: x ** -lam[which], [(0.0, 1.0)] * 3, epsabs=1e-10, epsrel=0.0, limit=100)
    want = [quad_many(lambda x, which, a=a: x ** -a, [(0.0, 1.0)], epsabs=1e-10, epsrel=0.0, limit=100)[0]
            for a in lam]
    assert _quad_bits(got) == _quad_bits(want)
    assert quad_many(f, [], epsabs=1e-10, epsrel=0.0, limit=100) == []


def test_quad_many_near_the_limit_bit_identical_to_one_item_calls(monkeypatch):
    # at limit 7 the first two integrals have more panels to bisect than
    # room, keep their largest errors, and finish
    trimmed = []
    keep_largest = quadrature._largest_errors
    monkeypatch.setattr(quadrature, "_largest_errors", lambda *args: trimmed.append(1) or keep_largest(*args))
    freqs = [45.0, 59.0, 3.0]
    edges = [(0.0, 1.0), (0.0, 0.3, 1.0), (0.0, 1.0)]
    w = np.array(freqs)
    got = quad_many(lambda x, which: np.cos(w[which] * x), edges, epsabs=1e-12, epsrel=0.0, limit=7)
    assert trimmed
    want = [quad_many(lambda x, which, k=k: np.cos(k * x), [e], epsabs=1e-12, epsrel=0.0, limit=7)[0]
            for k, e in zip(freqs, edges)]
    assert _quad_bits(got) == _quad_bits(want)
    assert abs(got[0][0] - math.sin(45.0) / 45.0) <= 1e-12


def _quad_bits(results) -> list:
    return [(_bits(value), error.hex()) for value, error in results]


def test_quad_many_bit_identical_to_quad():
    # complex and real integrands, of different lengths and panel counts, in
    # one batch; each as the unbatched quadrature (a one-item call) gives it alone
    freqs = [1.0, 3.0, 0.25, 7.0, 40.0]
    spans = [(0.0, 3.0), (-1.0, 4.0), (0.0, 2.0), (0.5, 0.75), (0.0, 1.0)]
    w = np.array(freqs)
    for f in (lambda x, k: np.exp(1j * k * x), lambda x, k: np.sqrt(x + k)):
        got = quad_many(lambda x, which: f(x, w[which]), spans, epsabs=1e-12, epsrel=0.0, limit=100)
        want = [quad_many(lambda x, which, k=k: f(x, k), [s], epsabs=1e-12, epsrel=0.0, limit=100)[0]
                for k, s in zip(freqs, spans)]
        assert _quad_bits(got) == _quad_bits(want)
        assert [type(v) for v, _e in got] == [type(v) for v, _e in want]


def test_quad_many_with_break_points_bit_identical_to_one_item_calls():
    freqs = [1.0, 3.0, 0.25, 7.0]
    edges = [(0.0, 1.0, 2.0, 3.0), (0.0, 3.0), (-1.0, 0.5, 4.0), (0.0, 0.1, 0.2, 2.0)]
    w = np.array(freqs)
    got = quad_many(lambda x, which: np.exp(1j * w[which] * x), edges, epsabs=1e-13, epsrel=0.0, limit=50)
    want = [quad_many(lambda x, which, k=k: np.exp(1j * k * x), [e], epsabs=1e-13, epsrel=0.0, limit=50)[0]
            for k, e in zip(freqs, edges)]
    assert _quad_bits(got) == _quad_bits(want)


def _w_plus_quad_by_quad(l: int, b: float) -> complex:
    """W_+(b) off the cut as a one-item quad_many on the scalar ray
    integrand: the unbatched reference.  On t = i s, with a = 1 + b for
    b > 0 and a = b for b < -1, W_+ = a^(-h) int_0^inf (s/d)^(h-1) / d
    (log s + i pi/2) ds, d = (1+s)((1+b)/a s + b/a), from the break points
    0, 1/32, ..., 1/2, 1 of (0, 1] and held relative."""
    h = l // 2
    a = 1 + b if b > 0 else b
    p, q = (1 + b) / a, b / a

    def f(s):
        d = (1 + s) * (p * s + q)
        return (s / d) ** (h - 1) / d * (np.log(s) + 0.5j * math.pi)

    ((value, _err),) = quad_many(lambda t, which: f(t) + f(1 / t) / (t * t),
                                 [(0.0, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)], epsabs=0.0, epsrel=1e-11, limit=200)
    return a ** -h * value


@pytest.mark.parametrize("N", [10, 100, 1000, 10000])
def test_w_plus_quads_bit_identical_to_w_plus_quad(N):
    # b = +-k N, k = 1..40: the W_+ grid of the w-hyp-arch-slope check at this N, against one-item calls
    bs = [float(N * k * s) for k in range(1, 41) for s in (1, -1)]
    batched = [_bits(w) for w in oa.w_plus_quads(6, bs)]
    assert batched == [_bits(oa.w_plus_quads(6, [b])[0]) for b in bs]
    assert batched == [_bits(_w_plus_quad_by_quad(6, b)) for b in bs]


@pytest.mark.parametrize("l", [[6.0, 6.0], [6.0, 10.0], [4.5, 8.0]])
def test_phi_spheres_bit_identical_to_phi_sphere(l):
    ts = [0.01, 0.5, 1.0, 3.0, 31.6, 100.0, 1000.0, 1e5]
    # against one-item calls
    assert [_bits(v) for v in lt.phi_spheres(l, ts)] == [_bits(lt.phi_spheres(l, [t])[0]) for t in ts]


def test_batched_oracles_name_the_failing_input(monkeypatch):
    monkeypatch.setattr(oa, "_W_PLUS_QUAD_TOL", 0.0)     # no integral can meet it
    with pytest.raises(ConvergenceError, match=r"W_\+ quadrature at l=6, b=2.0: quad_many integral #0 on \[0.0, 1.0\]"):
        oa.w_plus_quads(6, [2.0, 5.0])


def _bits(x) -> tuple[str, ...]:
    if isinstance(x, list):
        return tuple(_bits(v) for v in x)
    z = complex(x)
    return z.real.hex(), z.imag.hex()


def test_oracles_on_threads_bit_identical_to_serial():
    # one-item and multi-item calls of each batched oracle
    calls = ([(oa.w_plus_quads, (l, [b])) for l in (6, 10) for b in (1 / 3, -0.5, -3.0, 119.0)]
             + [(oa.w_plus_quads, (l, [1 / 3, -0.5, -3.0, 119.0])) for l in (6, 10)]
             + [(lt.phi_spheres, ([6.0, 6.0], [t])) for t in (0.5, 31.6, 1000.0)]
             + [(lt.phi_spheres, ([6.0, 6.0], [0.5, 31.6, 1000.0]))]
             + [(lt.sphere_I_quad, (lam,)) for lam in ((0.5, 0.0), (-0.5, 0.75))]
             + [(lt.ball_integral, (r, (6, 10), outside)) for r in (0.3, 3.0) for outside in (False, True)]
             + [(lt.ball_integral, (100.0, l, True)) for l in ((5, 5), (5, 14), (14, 5))])
    serial = [_bits(fn(*args)) for fn, args in calls]
    work = list(range(len(calls))) * 4
    random.Random(3).shuffle(work)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(lambda i: (i, _bits(calls[i][0](*calls[i][1]))), work, timeout=300))
    finally:
        sys.setswitchinterval(switch)
    assert len(threaded) == len(work)
    assert [i for i, bits in threaded if bits != serial[i]] == []
