import itertools
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rtfverify import spectral as sp
from rtfverify.errors import InertViolation, InputError
from rtfverify.formal import FormalLog
from rtfverify.ideals import Ideal, Prime, QuadCharData
from rtfverify.verify import QS, _random_rep

QS_ALL = (2, 3, 4, 5, 7, 8, 9, 11, 13)

P3 = Prime("p", 3)
Q2 = Prime("q", 2)

REP0 = sp.LocalRepData(q=3, c=0, Q=Fraction(1, 3))
REP1 = sp.LocalRepData(q=3, c=1, chi=1)
REP2 = sp.LocalRepData(q=3, c=2)


def test_q_poly_examples():
    X = Fraction(2, 7)
    assert sp.q_poly(0, REP2, -1, X) == 1
    assert sp.q_poly(1, REP2, -1, X) == -X
    assert sp.q_poly(1, REP0, -1, X) == -X - Fraction(1, 3)
    assert sp.q_poly(1, REP0, 1, X) == X - Fraction(1, 3)


def test_tau_examples():
    assert sp.tau_jj(0, REP0) == 1
    assert sp.tau_jj(3, REP1) == 1 - Fraction(1, 9)
    assert sp.tau_jj(2, REP0) == (1 - Fraction(1, 9)) * (1 - Fraction(1, 9))


def test_rz_examples():
    X = Fraction(5, 8)
    # degree-two polynomial branch
    assert sp.r_z(REP2, -1, 2, X) == 1 - X + X * X
    assert sp.r_z_sum(REP2, -1, 2, X) == 1 - X + X * X
    # central vanishing at odd depth
    assert sp.r_z(REP2, -1, 1, Fraction(1)) == 0
    # unramified central value at even depth
    assert sp.r_z(REP0, -1, 2, Fraction(1)) == Fraction(3 + 1, 3 - 1)
    assert sp.r_z(REP0, -1, 2, 1) == 2
    assert sp.r_z(REP0, -1, 3, 1) == 0


def test_rz_closed_equals_sum_randomised():
    rng = random.Random(3)
    for c in (0, 1, 2, 3):
        for eta in (-1, 1):
            for k in range(1, 9):
                if c == 0:
                    rep = sp.LocalRepData(q=5, c=0, Q=Fraction(rng.randint(-9, 9), 10))
                elif c == 1:
                    rep = sp.LocalRepData(q=5, c=1, chi=rng.choice((1, -1)))
                else:
                    rep = sp.LocalRepData(q=5, c=c)
                for _ in range(5):
                    X = Fraction(rng.randint(-40, 40), rng.randint(1, 20))
                    assert sp.r_z(rep, eta, k, X) == sp.r_z_sum(rep, eta, k, X)


def test_partial_r_examples():
    assert sp.partial_r(REP2, -1, 2) == 1
    assert sp.partial_r(REP2, 1, 2) == 3
    assert sp.partial_r(REP0, -1, 2) == Fraction(3 + 1, 3 - 1)


def test_partial_r_matches_sum_derivative_and_fd():
    for rep in (REP0, REP1, REP2, sp.LocalRepData(q=2, c=1, chi=-1)):
        for eta in (-1, 1):
            for k in range(1, 9):
                exact = sp.partial_r(rep, eta, k)
                assert exact == sp.partial_r_sum(rep, eta, k)
                h = 1e-6
                q = rep.q
                fd = float(sp.r_z_sum(rep, eta, k, Fraction(float(q) ** -h))
                           - sp.r_z_sum(rep, eta, k, Fraction(float(q) ** h))) / (2 * h) * (-1 / math.log(q))
                assert fd == pytest.approx(float(exact), rel=1e-7, abs=1e-9)


def test_c1_plus_closed_form_regression():
    # the inner sum must run over X^(j-1); the X^j variant breaks against the
    # defining sum already at k = 1
    rep = sp.LocalRepData(q=3, c=1, chi=1)
    X = Fraction(2)
    cq = Fraction(1, 3)
    wrong = 1 + (X - cq) / (1 + cq) * sum(X ** j for j in range(1, 2))
    right = sp.r_z_sum(rep, 1, 1, X)
    assert sp.r_z(rep, 1, 1, X) == right
    assert wrong != right


def test_rz_closed_equals_sum_at_minus_one():
    # r(eta, X) = r(+1, eta X), and the eta = +1 expressions never divide by
    # 1 + X, so X = -1 has the value of the removable singularity
    data = [REP0, sp.LocalRepData(q=2, c=0, Q=Fraction(-9, 10)), REP1, sp.LocalRepData(q=2, c=1, chi=-1), REP2,
            sp.LocalRepData(q=9, c=3)]
    for rep, eta, k in itertools.product(data, (-1, 1), range(1, sp.MAX_K + 1)):
        X = Fraction(-1)
        assert sp.r_z(rep, eta, k, X) == sp.r_z_sum(rep, eta, k, X), (rep, eta, k)


@pytest.mark.parametrize("X", [0.5, -1.0, float("nan"), complex(0.5, 0.1), 1j])
@pytest.mark.parametrize("r", [sp.r_z, sp.r_z_sum], ids=["closed", "sum"])
def test_rz_refuses_a_float_or_complex_x(X, r):
    with pytest.raises(InputError, match=rf"^{r.__name__} wants a rational X, got (float|complex) X="):
        r(REP0, 1, 3, X)


def test_rz_at_an_int_x_is_its_fraction():
    for rep, eta, r, X in itertools.product((REP0, REP1, REP2), (-1, 1), (sp.r_z, sp.r_z_sum), (-3, -1, 0, 1, 2)):
        for k in (1, 2, 7):
            assert _bits(r(rep, eta, k, X)) == _bits(r(rep, eta, k, Fraction(X)))


def test_singular_tau_rejected():
    # a Satake parameter lies in (-1, 1), so 1 - Q^2 and 1 + Q, which the
    # weights divide by, never vanish
    for Q in (Fraction(1), Fraction(-1), Fraction(3), Fraction(-7, 2)):
        with pytest.raises(InputError, match=f"Q={Q}$"):
            sp.LocalRepData(q=3, c=0, Q=Q)


ETA = QuadCharData.build(0, [1], unram={P3: -1, Q2: -1})


def test_w_dw_examples():
    # level equals conductor: empty product
    reps = {P3: sp.LocalRepData(q=3, c=2)}
    w, dw = sp.w_and_dw(reps, Ideal.of({P3: 2}), ETA)
    assert (w, dw) == (1, FormalLog.zero())
    # odd excess: w vanishes, dw survives
    w, dw = sp.w_and_dw(reps, Ideal.of({P3: 3}), ETA)
    assert w == 0 and dw == FormalLog.symbol("log@3", 1)
    # even excess of one square at a deep place
    w, dw = sp.w_and_dw(reps, Ideal.of({P3: 4}), ETA)
    assert w == 1 and dw == FormalLog.symbol("log@3", -1)


def test_w_dw_against_product_rule():
    rng = random.Random(11)
    for _ in range(40):
        reps = {}
        exps = {}
        for p in (P3, Q2):
            c = rng.choice((0, 1, 2))
            if c == 0:
                reps[p] = sp.LocalRepData(q=p.q, c=0, Q=Fraction(rng.randint(-7, 7), 10))
            elif c == 1:
                reps[p] = sp.LocalRepData(q=p.q, c=1, chi=rng.choice((1, -1)))
            else:
                reps[p] = sp.LocalRepData(q=p.q, c=2)
            exps[p] = c + rng.randint(0, 4)
        n = Ideal.of(exps)
        assert sp.w_and_dw(reps, n, ETA) == sp.w_and_dw_oracle(reps, n, ETA)


def test_w_dw_inert_guard():
    eta_bad = QuadCharData.build(0, [1], unram={P3: 1})
    reps = {P3: sp.LocalRepData(q=3, c=0, Q=Fraction(0))}
    with pytest.raises(InertViolation):
        sp.w_and_dw(reps, Ideal.of({P3: 2}), eta_bad)


def test_adl_plus_factor_examples():
    eta_triv = QuadCharData.build(0, [1])
    fl = sp.adl_plus_factor(Ideal.unit(), eta_triv)
    assert fl == FormalLog.symbol("logDF", -1)
    assert fl.evaluate({"logDF": 0.0}) == 0.0
    fl = sp.adl_plus_factor(Ideal.of({P3: 2}), eta_triv)
    assert fl == FormalLog.symbol("log@3", -1) + FormalLog.symbol("logDF", -1)


def test_rep_validation_and_k_cap():
    with pytest.raises(ValueError):
        sp.LocalRepData(q=3, c=0)
    with pytest.raises(ValueError):
        sp.LocalRepData(q=3, c=1, Q=Fraction(1, 2))
    with pytest.raises(ValueError):
        sp.r_z(REP2, -1, sp.MAX_K + 1, Fraction(1, 2))
    # every k-indexed weight has the one domain 1 <= k <= MAX_K
    for fn in (lambda rep, eta, k: sp.r_z(rep, eta, k, 1), lambda rep, eta, k: sp.r_z_sum(rep, eta, k, 1),
               sp.partial_r, sp.partial_r_sum):
        for k in (0, sp.MAX_K + 1):
            for rep, eta in itertools.product((REP0, REP1, REP2), (1, -1)):
                with pytest.raises(InputError, match=f"got k={k}$"):
                    fn(rep, eta, k)
    for Q in (0.5, complex(0.5, 0.1), 1, "1/2"):
        with pytest.raises(InputError, match="Q must be a Fraction"):
            sp.LocalRepData(q=3, c=0, Q=Q)


# ---------------------------------------------------------------------------
# the X-free factors of r_z_sum are cached as integer pairs; results must
# not move


def _bits(x):
    return type(x), repr(x)


def _uncached_r_z_sum(rep, eta_val, k, X):
    return sum((_fraction_q_poly(j, rep, 1, Fraction(1)) * _fraction_q_poly(j, rep, eta_val, X))
               / _fraction_tau_jj(j, rep) for j in range(k + 1))


def _suite_weights_inputs(seed):
    """The (rep, eta, k, X) of weights.rz-closed-vs-sum and the X of
    weights.partial-r-exact-and-fd (a float sample point, read exactly),
    drawn as suite_weights draws them."""
    rng = random.Random(seed)
    out = []
    for c in (0, 1, 2, 3):
        for q in QS:
            for eta_val in (-1, 1):
                for k in range(1, 9):
                    rep = _random_rep(rng, c, q)
                    for _ in range(20):
                        out.append((rep, eta_val, k, Fraction(rng.randint(-60, 60), rng.randint(1, 30))))
                    out += [(rep, eta_val, k, Fraction(float(q) ** -1e-6)), (rep, eta_val, k, Fraction(float(q) ** 1e-6))]
    return out


RZ_EXACT_X = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3), Fraction(-59, 29),
              Fraction(10 ** 12 + 1, 10 ** 12)]


def test_rz_sum_bit_identical_to_uncached_sum():
    """r_z_sum (cached factors and the integer kernel) against the
    uncached sum of the reference _fraction_q_poly terms: every c and eta,
    and k up to MAX_K, at both parities, for the first datum of each c."""
    rng = random.Random(5)
    data = [(REP0, sp.LocalRepData(q=5, c=0, Q=Fraction(3, 10))), (REP1, sp.LocalRepData(q=2, c=1, chi=-1)),
            (REP2, sp.LocalRepData(q=5, c=2)), (sp.LocalRepData(q=9, c=3), sp.LocalRepData(q=2, c=3))]
    for deep, shallow in data:
        for rep, ks in ((deep, [*range(1, 9), 31, 32, sp.MAX_K - 1, sp.MAX_K]), (shallow, range(1, 9))):
            for eta, k in itertools.product((-1, 1), ks):
                xs = [Fraction(rng.uniform(-3, 3)), Fraction(float(rep.q) ** 1e-6)]
                for X in xs + RZ_EXACT_X:
                    assert _bits(sp.r_z_sum(rep, eta, k, X)) == _bits(_uncached_r_z_sum(rep, eta, k, X)), (rep, k, X)


def _literal_r_z_closed(rep, eta_val, k, X):
    """r_z's closed expressions, evaluated term by term: the eta = -1 cases
    as they stand, so they divide by 1 + X."""
    q = rep.q
    if rep.c == 0:
        Q = rep.Q
        if eta_val == -1:
            quad = 1 + Q * (q + 1) * X + q * X * X
            return (1 - X) / (1 + Q) + quad * (1 - (-X) ** (k - 1)) / ((q - 1) * (1 + Q) * (1 + X))
        quad = 1 - Q * (q + 1) * X + q * X * X
        geo = sum(X ** (j - 2) for j in range(2, k + 1)) if k >= 2 else 0
        return (1 + X) / (1 + Q) + quad * geo / ((q - 1) * (1 + Q))
    if rep.c == 1:
        cq = Fraction(rep.chi, q)
        if eta_val == -1:
            return 1 - (X + cq) / (1 + cq) * (1 - (-1) ** k * X ** k) / (1 + X)
        return 1 + (X - cq) / (1 + cq) * sum(X ** (j - 1) for j in range(1, k + 1))
    if eta_val == -1:
        return (1 + (-1) ** k * X ** (k + 1)) / (1 + X)
    return sum(X ** j for j in range(k + 1))


def test_rz_closed_bit_identical_to_literal_expressions():
    """r_z (the integer kernel at eta X) against the expressions evaluated
    term by term: every c and eta, and k up to MAX_K.  At X = -1 the
    eta = -1 expressions divide by zero; test_rz_closed_equals_sum_at_minus_one
    checks r_z there."""
    rng = random.Random(7)
    data = [REP0, sp.LocalRepData(q=5, c=0, Q=Fraction(-3, 10)), sp.LocalRepData(q=2, c=0, Q=Fraction(0)), REP1,
            sp.LocalRepData(q=2, c=1, chi=-1), REP2, sp.LocalRepData(q=9, c=3)]
    for rep, eta in itertools.product(data, (-1, 1)):
        for k in [*range(1, 9), 31, 32, sp.MAX_K - 1, sp.MAX_K]:
            xs = [Fraction(rng.uniform(-3, 3)), Fraction(float(rep.q) ** 1e-6),
                  Fraction(rng.randint(-60, 60), rng.randint(1, 30))]
            for X in xs + RZ_EXACT_X + [Fraction(-1)]:
                try:
                    want = _literal_r_z_closed(rep, eta, k, X)
                except ZeroDivisionError:
                    assert X == -1 and eta == -1
                    continue
                assert _bits(sp.r_z(rep, eta, k, X)) == _bits(want), (rep, eta, k, X)


def test_rep_hash_is_taken_once_and_rebuilt_on_unpickling():
    rep = sp.LocalRepData(q=5, c=0, Q=Fraction(3, 10))
    twin = sp.LocalRepData(q=5, c=0, Q=Fraction(6, 20))
    assert rep == twin and hash(rep) == hash(twin) == hash((5, 0, Fraction(3, 10), None))
    assert repr(rep) == "LocalRepData(q=5, c=0, Q=Fraction(3, 10), chi=None)"
    for value in (rep, REP1, REP2):
        # the stored hash is not pickled (hash(None) may differ between
        # processes): unpickling rebuilds the datum, which hashes it afresh
        data = pickle.dumps(value)
        assert b"_hash" not in data
        back = pickle.loads(data)
        assert back == value and hash(back) == hash(value)


def test_rep_caches_are_bounded():
    fn = sp._weight_pairs
    assert fn.cache_info().maxsize == sp.REP_CACHE_SIZE
    fn.cache_clear()
    for rep in (REP0, REP1, REP2):
        for k in (*range(8), sp.MAX_K):
            got = fn(rep, k)
            assert got == fn.__wrapped__(rep, k) and len(got) == k + 1
            for j, (a, b) in enumerate(got):
                assert Fraction(a, b) == _fraction_q_poly(j, rep, 1, Fraction(1)) / _fraction_tau_jj(j, rep)
    assert fn.cache_info().currsize <= sp.REP_CACHE_SIZE
    for k in range(sp.MAX_K + 1):   # more (rep, k) entries than the cache holds
        fn(sp.LocalRepData(q=5, c=0, Q=Fraction(k, 100)), k)
        fn(sp.LocalRepData(q=7, c=0, Q=Fraction(k, 100)), k)
    assert fn.cache_info().currsize == sp.REP_CACHE_SIZE


def test_rz_on_threads_bit_identical_to_serial():
    inputs = _suite_weights_inputs(3)
    serial = [_bits(sp.r_z_sum(*args)) for args in inputs]

    def run(shift):
        order = inputs[shift:] + inputs[:shift]
        got = [_bits(sp.r_z_sum(*args)) for args in order]
        return got[len(inputs) - shift:] + got[:len(inputs) - shift]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sp._weight_pairs.cache_clear()
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run, shift) for shift in (0, 97, 311, 503)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


# ---------------------------------------------------------------------------
# q_poly, tau_jj and partial_r run on integers; each must equal, in value and
# type, the Fraction expressions it replaced, kept here as literal copies


def _fraction_q_poly(j, rep, eta_val, X):
    q, c = rep.q, rep.c
    if j == 0:
        return Fraction(1)
    if c == 0 and j == 1:
        return eta_val * X - rep.Q
    if c == 1:
        return eta_val ** (j - 1) * X ** (j - 1) * (eta_val * X - Fraction(rep.chi, q))
    if c == 0:
        quad = q * X * X - eta_val * rep.Q * (q + 1) * X + 1
        return Fraction(1, q) * eta_val ** (j - 2) * X ** (j - 2) * quad
    return eta_val ** j * X ** j


def _fraction_tau_jj(j, rep):
    if j == 0 or rep.c >= 2:
        return Fraction(1)
    if rep.c == 1:
        return 1 - Fraction(1, rep.q ** 2)
    if j == 1:
        return 1 - rep.Q * rep.Q
    return (1 - rep.Q * rep.Q) * (1 - Fraction(1, rep.q ** 2))


def _fraction_partial_r(rep, eta_val, k):
    q, c = rep.q, rep.c
    sgn = (-1) ** k
    if eta_val == -1:
        if c == 0:
            Q = rep.Q
            return (
                -1 / (1 + Q)
                + Fraction(1 + sgn, 2) * (2 * q + (q + 1) * Q) / ((q - 1) * (1 + Q))
                + Fraction(sgn * (2 * k - 3) - 1, 4) * Fraction(q + 1, q - 1)
            )
        if c == 1:
            cq = Fraction(rep.chi, q)
            return -Fraction(1 - sgn, 2) / (1 + cq) + Fraction(1 + sgn * (2 * k - 1), 4)
        return Fraction(sgn * (2 * k + 1) - 1, 4)
    if c == 0:
        Q = rep.Q
        return (
            1 / (1 + Q)
            + (k - 1) * (2 * q - (q + 1) * Q) / ((q - 1) * (1 + Q))
            + Fraction((k - 2) * (k - 1), 2) * (q + 1) * (1 - Q) / ((q - 1) * (1 + Q))
        )
    if c == 1:
        cq = Fraction(rep.chi, q)
        return k / (1 + cq) + (1 - cq) / (1 + cq) * Fraction(k * (k - 1), 2)
    return Fraction(k * (k + 1), 2)


# Satake parameters +-m/100 and +-1/d, 0 included
SATAKE_GRID = sorted({s * Fraction(m, 100) for s in (1, -1) for m in (0, 1, 3, 37, 50, 89, 99)}
                     | {s * Fraction(1, d) for s in (1, -1) for d in (2, 3, 7, 64, 1001)})
GRID_REPS = ([sp.LocalRepData(q=q, c=0, Q=Q) for q in QS_ALL for Q in SATAKE_GRID]
             + [sp.LocalRepData(q=q, c=1, chi=chi) for q in QS_ALL for chi in (1, -1)]
             + [sp.LocalRepData(q=q, c=c) for q in QS_ALL for c in (2, 3)])


def _exact(got, want):
    return got == want and type(got) is type(want) is Fraction


def test_partial_r_and_tau_jj_equal_their_fraction_forms():
    for rep in GRID_REPS:
        for eta, k in itertools.product((1, -1), range(1, sp.MAX_K + 1)):
            assert _exact(sp.partial_r(rep, eta, k), _fraction_partial_r(rep, eta, k)), (rep, eta, k)
        for j in range(sp.MAX_K + 1):
            assert _exact(sp.tau_jj(j, rep), _fraction_tau_jj(j, rep)), (rep, j)


def test_q_poly_equals_its_fraction_form():
    """At X = 1 (q_poly_one), every j up to MAX_K; at other X, j up to 12
    and the top four."""
    js = [*range(13), *range(sp.MAX_K - 3, sp.MAX_K + 1)]
    for rep in GRID_REPS:
        for j in range(sp.MAX_K + 1):
            assert _exact(sp.q_poly_one(j, rep), _fraction_q_poly(j, rep, 1, Fraction(1))), (rep, j)
        for eta, j, X in itertools.product((1, -1), js, (Fraction(-1), Fraction(2, 7), Fraction(-59, 29))):
            assert _exact(sp.q_poly(j, rep, eta, X), _fraction_q_poly(j, rep, eta, X)), (rep, eta, j, X)


# ---------------------------------------------------------------------------
# partial_r_sum runs on integers; it must equal, in value and type, the
# Fraction arithmetic it replaced, kept here as a literal copy


def _fraction_partial_r_sum(rep, eta_val, k):
    total = Fraction(0)
    for j in range(1, k + 1):
        dq = _fraction_dq_poly_at_one(j, rep, eta_val)
        total = total + _fraction_q_poly(j, rep, 1, Fraction(1)) * dq / _fraction_tau_jj(j, rep)
    return total


def _fraction_dq_poly_at_one(j, rep, eta_val):
    q, c = rep.q, rep.c
    e = eta_val
    if c == 0 and j == 1:
        return Fraction(e)
    if c == 1:
        cq = Fraction(rep.chi, q)
        return e ** (j - 1) * ((j - 1) * (e - cq) + e)
    if c == 0:
        quad_at_1 = q - e * rep.Q * (q + 1) + 1
        dquad_at_1 = 2 * q - e * rep.Q * (q + 1)
        return Fraction(1, q) * e ** (j - 2) * ((j - 2) * quad_at_1 + dquad_at_1)
    return Fraction(j) * e ** j


satake = st.fractions(min_value=-1, max_value=1, max_denominator=60).filter(lambda Q: abs(Q) < 1)
reps = st.tuples(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13)), st.integers(0, 3), satake,
                 st.sampled_from((1, -1))).map(
    lambda t: sp.LocalRepData(q=t[0], c=t[1], Q=t[2] if t[1] == 0 else None, chi=t[3] if t[1] == 1 else None))


@settings(max_examples=150, deadline=None)
@given(reps, st.sampled_from((1, -1)), st.integers(1, sp.MAX_K))
def test_partial_r_sum_equals_its_fraction_form(rep, eta_val, k):
    got, want = sp.partial_r_sum(rep, eta_val, k), _fraction_partial_r_sum(rep, eta_val, k)
    assert got == want and type(got) is type(want) is Fraction


@settings(max_examples=150, deadline=None)
@given(reps, st.sampled_from((1, -1)), st.integers(1, sp.MAX_K),
       st.fractions(min_value=-60, max_value=60, max_denominator=40), st.booleans())
def test_r_z_sum_equals_its_fraction_form(rep, eta_val, k, X, cold):
    """With the X-free factors built afresh (cold) or extended from the
    cached entry for k - 1, and then read from the cache."""
    if cold:
        sp._weight_pairs.cache_clear()
    else:
        sp._weight_pairs(rep, k - 1)
    for _ in range(2):
        got, want = sp.r_z_sum(rep, eta_val, k, X), _uncached_r_z_sum(rep, eta_val, k, X)
        assert got == want and type(got) is type(want) is Fraction


@pytest.mark.parametrize("eta_val", [0, 2, -2])
def test_k_indexed_weights_refuse_an_eta_off_plus_minus_one(eta_val):
    # partial_r used to read eta 0 as +1, and partial_r_sum summed at it
    calls = {"r_z": lambda: sp.r_z(REP0, eta_val, 3, 1), "r_z_sum": lambda: sp.r_z_sum(REP0, eta_val, 3, 1),
             "partial_r": lambda: sp.partial_r(REP0, eta_val, 3),
             "partial_r_sum": lambda: sp.partial_r_sum(REP0, eta_val, 3)}
    for name, call in calls.items():
        with pytest.raises(InputError, match=rf"^{name} wants eta_val = \+-1, got eta_val={eta_val}$"):
            call()
