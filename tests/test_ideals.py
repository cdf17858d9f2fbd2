import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rtfverify import orbital_local
from rtfverify.errors import CoprimalityError, InputError
from rtfverify.ideals import (Ideal, Prime, QuadCharData, config_from_json, iota,
                              omega_pair, omega_v, parse_ideal, sign_class,
                              square_decompose, stratum)
from rtfverify.spectral import LocalRepData
from rtfverify.testfns import alpha_basis_at, period_integrals, st_moments, upsilon_kernel

P3 = Prime("p", 3)
Q2 = Prime("q", 2)
R5 = Prime("r", 5)


def ideal(**kw):
    table = {"p": P3, "q": Q2, "r": R5}
    return Ideal.of({table[k]: v for k, v in kw.items()})


def test_square_decompose_examples():
    n0, n1 = square_decompose(ideal(p=3, q=2))
    assert (str(n0), str(n1)) == ("p", "p*q")
    sq = ideal(p=1, q=1)
    assert square_decompose(sq) == (sq, Ideal.unit())
    assert square_decompose(ideal(p=4)) == (Ideal.unit(), ideal(p=2))
    # round trip holds for every ideal
    n = ideal(p=5, q=2, r=1)
    n0, n1 = square_decompose(n)
    assert n0 * n1.pow(2) == n


def test_iota_examples():
    assert iota(Ideal.unit()) == 1
    assert iota(ideal(p=1)) == 4
    assert iota(ideal(p=2)) == 12


def test_norm_multiplicative():
    rng = random.Random(0)
    for _ in range(50):
        m = Ideal.of({p: rng.randint(0, 4) for p in (P3, Q2, R5)})
        n = Ideal.of({p: rng.randint(0, 4) for p in (P3, Q2, R5)})
        assert (m * n).norm == m.norm * n.norm


def test_iota_multiplicative_over_coprime():
    assert iota(ideal(p=2) * ideal(q=3)) == iota(ideal(p=2)) * iota(ideal(q=3))


@given(st.integers(0, 5), st.integers(0, 5))
def test_divides_contains(e1, e2):
    a, b = ideal(p=e1) if e1 else Ideal.unit(), ideal(p=e2) if e2 else Ideal.unit()
    assert a.divides(b) == (e1 <= e2)


ETA = QuadCharData.build(0, [1], unram={P3: -1, Q2: -1, R5: 1})


def test_sign_class_examples():
    assert sign_class(Ideal.unit(), ETA)["sign"] == 1
    res = sign_class(ideal(p=1), ETA)
    assert res["sign"] == -1 and res["in_I_minus"]
    eta1 = QuadCharData.build(1, [-1], unram={P3: -1})
    assert sign_class(ideal(p=2), eta1)["sign"] == -1
    # r has tilde eta = +1, so it breaks inert membership but not the sign
    res = sign_class(ideal(r=2), ETA)
    assert res["sign"] == 1 and not res["in_I"]


def test_sign_class_coprimality_guard():
    eta = QuadCharData.build(0, [1], ram={P3: 1}, unram={Q2: -1})
    with pytest.raises(CoprimalityError):
        sign_class(ideal(p=1), eta)
    with pytest.raises(CoprimalityError):
        sign_class(ideal(q=1), eta, excluded=[Q2])


def test_tilde_eta_completely_multiplicative():
    rng = random.Random(1)
    for _ in range(40):
        m = Ideal.of({p: rng.randint(0, 4) for p in (P3, Q2)})
        n = Ideal.of({p: rng.randint(0, 4) for p in (P3, Q2)})
        assert ETA.tilde_eta_ideal(m * n) == ETA.tilde_eta_ideal(m) * ETA.tilde_eta_ideal(n)


def test_omega_pair_examples():
    assert omega_pair(ideal(p=1), ideal(p=2)) == 0          # m not contained in b
    assert omega_pair(ideal(p=2), ideal(p=2)) == 2          # (3+1)/(3-1)
    assert omega_pair(ideal(p=3), ideal(p=2)) == 1          # v in S(p)
    # omega(m, O) = 1 always
    for e in range(4):
        assert omega_pair(ideal(p=e) if e else Ideal.unit(), Ideal.unit()) == 1
    assert omega_v(Q2, Ideal.unit()) == Fraction(3, 1)


def test_config_and_ideal_parsing():
    primes, eta = config_from_json({
        "schema": 1,
        "primes": [{"id": "p", "q": 3}, {"id": "r", "q": 5}],
        "eta": {"eps": 1, "arch_signs": [-1, 1], "ram": {"r": 1}, "unram": {"p": -1}},
    })
    assert primes["p"].q == 3 and eta.eps == 1
    assert eta.conductor == Ideal.of({primes["r"]: 1})
    n = parse_ideal("p^2*p", primes)
    assert n.ord(primes["p"]) == 3
    assert parse_ideal("O", primes).is_unit


@pytest.mark.parametrize("obj, named", [
    ([1], "JSON object"),
    ({"schema": 1, "primes": 5}, "'primes'"),
    ({"schema": 1, "primes": [{"id": "p", "q": "x"}]}, "'p'"),
    ({"schema": 1, "primes": [{"id": "p", "q": 1}]}, "'p'"),
    ({"schema": 1, "primes": [{"id": "p", "q": True}]}, "'p'"),
    ({"schema": 1, "primes": [{"id": "p", "q": 3.7}]}, "'p'"),
    ({"schema": 1, "primes": [{"id": "p", "q": 3.0}]}, "'p'"),
    ({"schema": 1, "primes": [{"id": ["p"], "q": 3}]}, "prime id"),
    ({"schema": 1, "primes": [], "eta": 5}, "'eta'"),
    ({"schema": 1, "primes": [], "eta": {"eps": "x"}}, "'eps'"),
    ({"schema": 1, "primes": [], "eta": {"eps": 1, "arch_signs": [1]}}, "'eps'"),
    ({"schema": 1, "primes": [], "eta": {"arch_signs": 5}}, "'arch_signs'"),
    ({"schema": 1, "primes": [{"id": "p", "q": 3}], "eta": {"unram": {"p": "x"}}}, "'unram' at 'p'"),
    ({"schema": 1, "primes": [{"id": "p", "q": 3}], "eta": {"ram": {"p": 0}}}, "'ram'"),
])
def test_config_faults_name_the_prime_or_key(obj, named):
    with pytest.raises(InputError, match=named):
        config_from_json(obj)


_ORIGIN = orbital_local.LocalPoint(0, 0)


@pytest.mark.parametrize("make", [
    lambda: Prime("p", 1),
    lambda: LocalRepData(q=1, c=2),
    lambda: period_integrals([upsilon_kernel], 1, 1, [alpha_basis_at(1)]),
    lambda: st_moments(1, 1, [0]),
    lambda: orbital_local.w_unramified(_ORIGIN, 1, 1),
    lambda: orbital_local.w_unramified_oracle(_ORIGIN, 1, 1),
    lambda: orbital_local.w_level(_ORIGIN, 1, 1, 1),
    lambda: orbital_local.w_level_oracle(_ORIGIN, 1, 1, 1),
    lambda: orbital_local.w_ramified(_ORIGIN, 1, 1, 1, 1),
    lambda: orbital_local.w_ramified_bound(_ORIGIN, 1, 1),
], ids=["Prime", "LocalRepData", "period_integrals", "st_moments", "w_unramified", "w_unramified_oracle",
        "w_level", "w_level_oracle", "w_ramified", "w_ramified_bound"])
def test_every_q_is_checked_by_residue_cardinality(make):
    with pytest.raises(InputError, match=r"needs an integer q >= 2, got q=1$"):
        make()


def test_prime_and_ideal_value_semantics():
    """Prime and Ideal are tuple-backed values: (id, q) order, the repr and
    str texts, pickle and deepcopy round trips, and one hash per value."""
    primes = [Prime("b", 2), Prime("a", 5), Prime("c", 13), Prime("a", 3)]
    assert sorted(primes) == [Prime("a", 3), Prime("a", 5), Prime("b", 2), Prime("c", 13)]
    assert repr(P3) == str(P3) == "Prime(id='p', q=3)"
    assert (P3.id, P3.q) == ("p", 3)
    n = Ideal.of({Q2: 1, P3: 2})
    assert repr(n) == "Ideal(exps=((Prime(id='p', q=3), 2), (Prime(id='q', q=2), 1)))"
    assert str(n) == "p^2*q"
    assert (repr(Ideal.unit()), str(Ideal.unit())) == ("Ideal(exps=())", "O")
    copies = [lambda x, proto=proto: pickle.loads(pickle.dumps(x, proto))
              for proto in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.deepcopy]
    for value in (P3, n, Ideal.unit()):
        for copied in copies:
            back = copied(value)
            assert back == value and type(back) is type(value) and hash(back) == hash(value)
            if isinstance(value, Ideal):
                assert all(type(p) is Prime for p, _ in back)
    twin = Ideal.of({P3: 2, Q2: 1})
    assert twin == n and hash(twin) == hash(n)
    # an Ideal is the tuple of its pairs: it equals them as a plain tuple,
    # and membership tests a pair, not a place
    assert n == ((P3, 2), (Q2, 1)) and (P3, 2) in n and P3 not in n


@pytest.mark.parametrize("make, error, message", [
    (lambda: Prime("p", 1), InputError, "prime 'p' needs an integer q >= 2, got q=1"),
    (lambda: Prime("p", 2.0), InputError, "prime 'p' needs an integer q >= 2, got q=2.0"),
    (lambda: Ideal.of({P3: 2, Q2: -1}), InputError, "negative exponent -1 at q"),
    (lambda: Ideal.of({P3: 1, Prime("p", 5): 2}), ValueError, "duplicate prime ids in exponent map"),
], ids=["q=1", "q=2.0", "negative", "duplicate"])
def test_prime_and_ideal_refusals_keep_their_messages(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_quadchar_validation():
    with pytest.raises(ValueError):
        QuadCharData.build(1, [1])             # eps does not match signs
    with pytest.raises(ValueError):
        QuadCharData.build(0, [1], ram={P3: 1}, unram={P3: -1})


def test_stratum_helper():
    n = ideal(p=2, q=2, r=1)
    assert set(stratum(n, 2)) == {P3, Q2}
    assert stratum(n, 5) == ()


@st.composite
def monoid_ideals(draw, count):
    """`count` ideals over one random monoid of 1-5 places, q in 2..13."""
    qs = draw(st.lists(st.integers(2, 13), min_size=1, max_size=5))
    primes = [Prime(f"p{i}", q) for i, q in enumerate(qs)]
    return primes, [Ideal.of({p: draw(st.integers(0, 7)) for p in primes}) for _ in range(count)]


def _assert_canonical(n: Ideal):
    # an ideal built without Ideal.of equals and hashes like its Ideal.of twin
    twin = Ideal.of(n.as_dict())
    assert n == twin and hash(n) == hash(twin)


# up to 2^15 divisors, each checked for its canonical form: past the default deadline
@settings(deadline=None)
@given(monoid_ideals(2), st.integers(0, 3))
def test_ideal_round_trips(drawn, k):
    primes, (i, j) = drawn
    assert Ideal.of(i.as_dict()) == i
    assert parse_ideal(str(i), {p.id: p for p in primes}) == i
    assert (i * j).divide(j) == i
    for built in (i * j, (i * j).divide(j), i.divide(i), i.pow(k), *square_decompose(i), *i.divisors()):
        _assert_canonical(built)


@given(monoid_ideals(1), st.integers(1, 4))
def test_product_with_a_new_place(drawn, e):
    primes, (i,) = drawn
    extra = Ideal.of({Prime("x", 3): e})
    _assert_canonical(i * extra)
    _assert_canonical(extra * i)
    assert (i * extra).divide(extra) == i
    with pytest.raises(ValueError):
        i.divide(extra)
    clash = Ideal.of({Prime(primes[0].id, primes[0].q + 1): 1})   # same id, another q
    with pytest.raises(ValueError):
        i * Ideal.of({primes[0]: 1}) * clash
