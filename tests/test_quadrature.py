import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from rtfverify import lattice as lt, orbital_arch as oa
from rtfverify.errors import ConvergenceError, InputError
from rtfverify.quadrature import GAUSS, KRONROD, NODES, quad


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


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_half_line_power(k):
    val, err = quad(lambda x: (1 + x) ** -k, 0.0, math.inf, epsabs=1e-12, epsrel=0.0, limit=200)
    assert abs(val - 1 / (k - 1)) <= 1e-12 and err <= 1e-12
    assert type(val) is float and type(err) is float


@pytest.mark.parametrize("lam", [0.1, 0.5, 0.75, 0.9])
def test_endpoint_singularity(lam):
    val, err = quad(lambda x: x ** -lam, 0.0, 1.0, epsabs=1e-10, epsrel=0.0, limit=500)
    assert abs(val - 1 / (1 - lam)) <= 1e-10 and err <= 1e-10


def test_break_points_and_complex_integrand():
    val, err = quad(lambda x: np.exp(1j * x), 0.0, 3.0, epsabs=1e-13, epsrel=0.0, limit=50,
                    points=(1.0, 2.0, 7.0))
    assert type(val) is complex
    assert abs(val - (np.exp(3j) - 1) / 1j) <= 1e-13


def test_break_points_need_a_finite_interval():
    with pytest.raises(InputError):
        quad(lambda x: 1 / (1 + x * x), 0.0, math.inf, epsabs=1e-12, epsrel=0.0, limit=50, points=(1.0,))


def test_limit_raises_convergence_error_naming_the_interval():
    with pytest.raises(ConvergenceError, match=r"\[0.0, 1.0\].*with 12 panels"):
        quad(lambda x: x ** -0.9, 0.0, 1.0, epsabs=1e-12, epsrel=0.0, limit=12)


def test_non_finite_integrand_raises():
    with pytest.raises(ConvergenceError, match="not finite"):
        quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0, epsabs=1e-12, epsrel=0.0, limit=50)


def _bits(x) -> tuple[str, ...]:
    z = complex(x)
    return z.real.hex(), z.imag.hex()


def test_oracles_on_threads_bit_identical_to_serial():
    calls = ([(oa.w_plus_quad, (l, b)) for l in (6, 10) for b in (1 / 3, -0.5, -3.0, 119.0)]
             + [(lt.phi_sphere, ([6.0, 6.0], t)) for t in (0.5, 31.6, 1000.0)]
             + [(lt.ball_integral, (r, (6, 10), outside)) for r in (0.3, 3.0) for outside in (False, True)])
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
