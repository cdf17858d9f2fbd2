import itertools
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from rtfverify import spectral as sp
from rtfverify.errors import InertViolation, InputError
from rtfverify.formal import FormalLog
from rtfverify.ideals import Ideal, Prime, QuadCharData
from rtfverify.verify import QS, _random_rep

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
    assert sp.r_z(REP2, -1, 2, X, "sum") == 1 - X + X * X
    # central vanishing at odd depth
    assert sp.r_z(REP2, -1, 1, Fraction(1)) == 0
    # unramified central value at even depth
    assert sp.r_z(REP0, -1, 2, Fraction(1)) == Fraction(3 + 1, 3 - 1)
    assert sp.r_at_center(REP0, -1, 2) == 2
    assert sp.r_at_center(REP0, -1, 3) == 0


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
                    if X == -1:
                        continue
                    assert sp.r_z(rep, eta, k, X, "closed") == sp.r_z(rep, eta, k, X, "sum")


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
                fd = (sp.r_z(rep, eta, k, float(q) ** -h, "sum")
                      - sp.r_z(rep, eta, k, float(q) ** h, "sum")) / (2 * h) * (-1 / math.log(q))
                assert fd == pytest.approx(float(exact), rel=1e-7, abs=1e-9)


def test_c1_plus_closed_form_regression():
    # the inner sum must run over X^(j-1); the X^j variant breaks against the
    # defining sum already at k = 1
    rep = sp.LocalRepData(q=3, c=1, chi=1)
    X = Fraction(2)
    cq = Fraction(1, 3)
    wrong = 1 + (X - cq) / (1 + cq) * sum(X ** j for j in range(1, 2))
    right = sp.r_z(rep, 1, 1, X, "sum")
    assert sp.r_z(rep, 1, 1, X, "closed") == right
    assert wrong != right


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
    for fn in (sp.r_at_center, sp.partial_r, sp.partial_r_sum):
        for k in (0, sp.MAX_K + 1):
            for rep, eta in itertools.product((REP0, REP1, REP2), (1, -1)):
                with pytest.raises(InputError, match=f"got k={k}$"):
                    fn(rep, eta, k)
    for Q in (0.5, complex(0.5, 0.1), 1, "1/2"):
        with pytest.raises(InputError, match="Q must be a Fraction"):
            sp.LocalRepData(q=3, c=0, Q=Q)


# ---------------------------------------------------------------------------
# the X-free factors of the r_z sum are cached; results must not move


def _bits(x):
    return type(x), repr(x)


def _uncached_r_z_sum(rep, eta_val, k, X):
    q_one, tau = sp.q_poly_one.__wrapped__, sp.tau_jj.__wrapped__
    return sum((q_one(j, rep) * sp.q_poly(j, rep, eta_val, X)) / tau(j, rep) for j in range(k + 1))


def _suite_weights_inputs(seed):
    """The (rep, eta, k, X) of weights.rz-closed-vs-sum and the float X of
    weights.partial-r-exact-and-fd, drawn as suite_weights draws them."""
    rng = random.Random(seed)
    out = []
    for c in (0, 1, 2, 3):
        for q in QS:
            for eta_val in (-1, 1):
                for k in range(1, 9):
                    rep = _random_rep(rng, c, q)
                    for _ in range(20):
                        X = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
                        if X != -1:
                            out.append((rep, eta_val, k, X))
                    out += [(rep, eta_val, k, float(q) ** -1e-6), (rep, eta_val, k, float(q) ** 1e-6)]
    return out


RZ_EXACT_X = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(7, 3), Fraction(-59, 29),
              Fraction(10 ** 12 + 1, 10 ** 12)]


def test_rz_sum_bit_identical_to_uncached_sum():
    """The sum path (cached factors; at a Fraction X the integer kernel)
    against the uncached sum of q_poly terms: every c and eta, and k up to
    MAX_K, at both parities, for the first datum of each c."""
    rng = random.Random(5)
    data = [(REP0, sp.LocalRepData(q=5, c=0, Q=Fraction(3, 10))), (REP1, sp.LocalRepData(q=2, c=1, chi=-1)),
            (REP2, sp.LocalRepData(q=5, c=2)), (sp.LocalRepData(q=9, c=3), sp.LocalRepData(q=2, c=3))]
    for deep, shallow in data:
        for rep, ks in ((deep, [*range(1, 9), 31, 32, sp.MAX_K - 1, sp.MAX_K]), (shallow, range(1, 9))):
            for eta, k in itertools.product((-1, 1), ks):
                xs = [rng.uniform(-3, 3), float(rep.q) ** 1e-6, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
                for X in xs + RZ_EXACT_X:
                    assert _bits(sp.r_z(rep, eta, k, X, "sum")) == _bits(_uncached_r_z_sum(rep, eta, k, X)), (rep, k, X)


def _literal_r_z_closed(rep, eta_val, k, X):
    """r_z's closed expressions, evaluated term by term in X's own type."""
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
    """The closed path (at a Fraction X the integer kernel) against its
    expressions evaluated term by term: every c and eta, k up to MAX_K, and
    X = -1, where the expressions that divide by 1 + X raise."""
    rng = random.Random(7)
    data = [REP0, sp.LocalRepData(q=5, c=0, Q=Fraction(-3, 10)), sp.LocalRepData(q=2, c=0, Q=Fraction(0)), REP1,
            sp.LocalRepData(q=2, c=1, chi=-1), REP2, sp.LocalRepData(q=9, c=3)]
    for rep, eta in itertools.product(data, (-1, 1)):
        for k in [*range(1, 9), 31, 32, sp.MAX_K - 1, sp.MAX_K]:
            xs = [rng.uniform(-3, 3), float(rep.q) ** 1e-6, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                  Fraction(rng.randint(-60, 60), rng.randint(1, 30))]
            for X in xs + RZ_EXACT_X + [Fraction(-1)]:
                try:
                    want = _literal_r_z_closed(rep, eta, k, X)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        sp.r_z(rep, eta, k, X, "closed")
                    continue
                assert _bits(sp.r_z(rep, eta, k, X, "closed")) == _bits(want), (rep, eta, k, X)


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
    for fn in (sp.q_poly_one, sp.tau_jj):
        assert fn.cache_info().maxsize == sp.REP_CACHE_SIZE
        for j in range(4):
            assert _bits(fn(j, REP0)) == _bits(fn.__wrapped__(j, REP0))


def test_rz_on_threads_bit_identical_to_serial():
    inputs = _suite_weights_inputs(3)
    serial = [_bits(sp.r_z(*args, "sum")) for args in inputs]

    def run(shift):
        order = inputs[shift:] + inputs[:shift]
        got = [_bits(sp.r_z(*args, "sum")) for args in order]
        return got[len(inputs) - shift:] + got[:len(inputs) - shift]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for fn in (sp.q_poly_one, sp.tau_jj):
            fn.cache_clear()
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(run, shift) for shift in (0, 97, 311, 503)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)
