"""The newform-extraction transform of arithmetic functions on ideal monoids.

Two mutually inverse operations drive everything here: a forward sum over
square divisors with omega/iota weights, and an alternating inclusion-
exclusion over the squarefull support that undoes it.  Both are exact in
rational arithmetic; the closed forms for norm powers and for log-norm are
checked against the defining sums elsewhere.

The oracles stay the defining sums: B is evaluated at every ideal m of the
sum, never replaced by an Euler product.  Only the weights are factored.  A
term's weight omega * iota(m)/iota(n) is a product over places of a factor
that depends on q_v, ord_v(n) and the exponent removed at v alone, so each
place gets a short table of integers over one per-place denominator.  A
term's weight is the product of its table entries, the sum is kept as an
integer numerator over a running denominator (one per FormalLog symbol), and
one Fraction is built per symbol at the end.

Several summands share one enumeration: n_transforms(Bs, n) builds the terms
and each ideal m once, then sums every B over them in turn, each B meeting the
ideals in the order of its one-item call n_transform(B, n), so the batch
equals the one-item calls made in sequence.  No summand value is memoised.

The closed forms are products over the places of n.  Each is one integer
numerator and one integer denominator, multiplied place by place, with one
Fraction built per ideal.  closed_log takes the scale closed_power(n, 0) as
that unreduced pair; each place's log coefficient has a denominator dividing
the scale's numerator, so each symbol's coefficient is one integer sum over the
scale's denominator, and one Fraction is built per symbol.  closed_power and
closed_log keep an int t an int, so every exponent, t and each -2(1+t), is an
int and _power_pair returns integer powers with no Fraction arithmetic; a
fractional t takes exact integer roots.  The summands are built the same way: norm^t at an integer t is an integer power,
and log norm is sum_v e_v log q_v, read from m's exponents, with each q's
factorisation read from a cache keyed by q (one entry per residue
cardinality seen).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from typing import Callable, Sequence

from .errors import NonRationalPower
from .formal import FormalLog, _factor_small
from .ideals import Ideal, Prime

Value = Fraction | FormalLog

# One place's options: the exponent entry it contributes to m (empty when the
# whole prime power is removed) and the option's integer weight.
Choice = tuple[tuple[tuple[Prime, int], ...], int]


# An arithmetic function on the ideals of a monoid.
ArithFn = Callable[[Ideal], Value]


def _subset_choices(n: Ideal, sign: int) -> tuple[list[list[Choice]], int]:
    """Per place of n: keep p^e, or (when e >= 2) remove p^2 with weight
    sign * omega_v(p, n0) * iota ratio.  That weight is
    sign * (q+1)/(q-1) * 1/((1+q)q) = sign/(q(q-1)) at e == 2 and sign/q^2 at
    e >= 3; over the place's denominator d it is (keep: d, remove: sign)."""
    choices, denom = [], 1
    for p, e in n:
        opts = [(((p, e),), 1)]
        if e >= 2:
            d = p.q * (p.q - 1) if e == 2 else p.q ** 2
            opts = [(((p, e),), d), (((p, e - 2),) if e > 2 else (), sign)]
            denom *= d
        choices.append(opts)
    return choices, denom


def _divisor_choices(n: Ideal) -> tuple[list[list[Choice]], int]:
    """Per place of n: remove p^2k for 0 <= k <= e//2, with weight
    omega_v * iota ratio = q^-2k while 2k < e and
    (q+1)/(q-1) * 1/((1+q) q^(e-1)) = 1/((q-1) q^(e-1)) at 2k == e; over the
    place's denominator d = q^(e-1), times q-1 at even e, it is d/q^2k or 1."""
    choices, denom = [], 1
    for p, e in n:
        q = p.q
        d = q ** (e - 1) * (q - 1 if e % 2 == 0 else 1)
        choices.append([(((p, e - 2 * k),), d // q ** (2 * k)) if 2 * k < e else ((), 1)
                        for k in range(e // 2 + 1)])
        denom *= d
    return choices, denom


def _weighted_sum(fns: Sequence[ArithFn], choices: list[list[Choice]], denom: int,
                  first_fastest: bool) -> list[Value]:
    """For each fn of fns, the sum over one option per place of
    (product of the weights) * fn(m) / denom.

    The terms and their ideals m are built once and shared by every fn.  They
    run with the first place's option varying fastest (the subset masks of
    n_transform) or the last (the divisor order of convolve_omega), and each
    fn is summed over all of them before the next fn starts, so a fn with side
    effects, such as a lazily drawn random function, meets the ideals in the
    same fixed order whatever else is in fns.
    """
    terms: list[tuple[tuple, int]] = [((), 1)]
    for opts in choices:
        if first_fastest:
            terms = [(exps + entry, w * c) for entry, c in opts for exps, w in terms]
        else:
            terms = [(exps + entry, w * c) for exps, w in terms for entry, c in opts]
    # each exps keeps n's sorted order and drops zero exponents
    terms = [(Ideal(exps), w) for exps, w in terms]
    return [_sum_terms(fn, terms, denom) for fn in fns]


def _sum_terms(fn: ArithFn, terms: list[tuple[Ideal, int]], denom: int) -> Value:
    """sum of w * fn(m) / denom over the (m, w) terms.  A FormalLog is
    returned whenever any fn(m) is one, even if every coefficient cancels;
    otherwise a Fraction."""
    num, den = 0, 1   # the constant, as _accumulate keeps a symbol's pair
    sums: dict[str, list[int]] = {}   # symbol -> [numerator, denominator]
    formal = False
    for m, w in terms:
        v = fn(m)
        if isinstance(v, FormalLog):
            formal = True
            for sym, c in v.coeffs.items():
                _accumulate(sums, sym, w, c)
            v = v.const
        d = v.denominator
        if d == den:
            num += w * v.numerator
        else:
            g = gcd(den, d)
            num = num * (d // g) + w * v.numerator * (den // g)
            den = den // g * d
    const = Fraction(num, den * denom)
    if not formal:
        return const
    return FormalLog._trusted(const, {sym: Fraction(a, b * denom) for sym, (a, b) in sums.items() if a})


def _accumulate(sums: dict[str, list[int]], sym: str, w: int, c: Fraction | int) -> None:
    """sums[sym] += w * c, as an integer numerator over the lcm of the denominators seen."""
    pair = sums.get(sym)
    if pair is None:
        sums[sym] = [w * c.numerator, c.denominator]
        return
    den = c.denominator
    if pair[1] == den:
        pair[0] += w * c.numerator
    else:
        g = gcd(pair[1], den)
        pair[0] = pair[0] * (den // g) + w * c.numerator * (pair[1] // g)
        pair[1] = pair[1] // g * den


def n_transform(B: ArithFn, n: Ideal) -> Value:
    """Alternating inclusion-exclusion extracting the new part of B at n:

        sum_{I subset S(n1)} (-1)^|I| prod_{v in I cap S1(n1)} omega_v(n0)
                             * iota(m)/iota(n) * B(m),   m = n prod_{v in I} p_v^-2.
    """
    return _weighted_sum((B,), *_subset_choices(n, -1), first_fastest=True)[0]


def n_transforms(Bs: Sequence[ArithFn], n: Ideal) -> list[Value]:
    """[n_transform(B, n) for B in Bs], over one enumeration of the subsets."""
    return _weighted_sum(Bs, *_subset_choices(n, -1), first_fastest=True)


def n_plus(B: ArithFn, n: Ideal) -> Value:
    """All-positive-signs majorant of the transform."""
    return _weighted_sum((B,), *_subset_choices(n, 1), first_fastest=True)[0]


def convolve_omega(A: ArithFn, n: Ideal) -> Value:
    """Forward sum over square divisors, with the index weights folded in:

        B(n) = sum_{b | n1} omega(n, b^2) * iota(n b^-2)/iota(n) * A(n b^-2).

    n_transform inverts this map exactly (and vice versa).
    """
    return _weighted_sum((A,), *_divisor_choices(n), first_fastest=False)[0]


# ---------------------------------------------------------------------------
# closed forms


def _iroot(x: int, k: int) -> int:
    """The largest r >= 0 with r^k <= x, by integer Newton steps."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)   # 2^ceil(bits/k) > x^(1/k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _power_pair(x: int, t: Fraction | int, label: object) -> tuple[int, int]:
    """x^t for an integer x >= 1 as a coprime pair (numerator, denominator);
    `label` names x as norm(label) in the error raised when x^t is irrational."""
    a, d = t.numerator, t.denominator
    num, den = (x ** a, 1) if a >= 0 else (1, x ** -a)
    if d == 1:
        return num, den
    # need an exact rational root; norms may exceed the float range
    rn = _iroot(num, d)
    rd = _iroot(den, d)
    if rn ** d == num and rd ** d == den:
        return rn, rd
    raise NonRationalPower(f"norm({label})^{t} is irrational")


def _norm_power_exact(n: Ideal, t: Fraction) -> Fraction:
    return Fraction(*_power_pair(n.norm, t, n))


def _closed_pair(n: Ideal, t: Fraction | int, sign: int) -> tuple[int, int]:
    """norm(n)^t * prod_{v: ord_v n >= 2} (1 + sign * c_v q^-2(1+t)),
    with c_v = (1-1/q)^-1 at ord_v n == 2 and c_v = 1 above, as one integer
    numerator over one integer denominator.  The pair is not reduced: each
    place's factor (qd + sign * qn) divides the numerator."""
    num, den = _power_pair(n.norm, t, n)
    s = -2 * (1 + t)
    for p, e in n:
        if e >= 2:
            q = p.q
            qn, qd = _power_pair(q, s, p.id)
            if e == 2:   # 1 + sign * q/(q-1) * qn/qd
                qd *= q - 1
                qn *= q
            num *= qd + sign * qn
            den *= qd
    return num, den


def _closed_product(n: Ideal, t: Fraction | int, sign: int, exact: bool) -> Fraction | float:
    """_closed_pair's product, as one Fraction, or in floats when not exact.
    t is an int or a Fraction; any other number is read as its Fraction."""
    if type(t) is not int:
        t = Fraction(t)
    if exact:
        return Fraction(*_closed_pair(n, t, sign))
    out_f = float(n.norm) ** float(t)
    for p, e in n:
        if e >= 2:
            qpow = float(p.q) ** float(-2 * (1 + t))
            out_f *= 1 + sign * ((p.q / (p.q - 1)) * qpow if e == 2 else qpow)
    return out_f


def closed_power(n: Ideal, t: Fraction | int) -> Fraction:
    """Closed form of the transform of norm^t, exactly:

        norm(n)^t * prod_{S(n1)-S2(n)} (1 - q^-2(1+t))
                  * prod_{S2(n)}       (1 - (1-1/q)^-1 q^-2(1+t)).
    """
    return _closed_product(n, t, -1, True)


def closed_log(n: Ideal) -> FormalLog:
    """Closed form of the transform of log norm: the t-derivative of
    closed_power at t=0, as an exact FormalLog.  Each place adds
    (e + 2/(q^2-q-1) at e == 2, 2/(q^2-1) at e > 2) log q to a bracket that
    is scaled by closed_power(n, 0).  That place's factor of the scale's
    numerator is q(q^2-q-1) at e == 2 and q^2-1 above, so each coefficient
    times the scale is an integer over the scale's denominator."""
    num, den = _closed_pair(n, 0, -1)
    sums: dict[str, int] = {}
    for p, e in n:
        q = p.q
        d, extra = (1, 0) if e == 1 else (q * q - q - 1, 2) if e == 2 else (q * q - 1, 2)
        c = (e * d + extra) * (num // d)
        for r, f in _q_factors(q):
            sym = f"log@{r}"
            sums[sym] = sums.get(sym, 0) + c * f
    # every coefficient and the scale are positive, so none vanishes
    return FormalLog._trusted(Fraction(0), {sym: Fraction(c, den) for sym, c in sums.items()})


def n_plus_closed_power(n: Ideal, t: Fraction | int, exact: bool = True) -> Fraction | float:
    """Closed form of the all-positive majorant on norm^t."""
    return _closed_product(n, t, 1, exact)


def norm_power_fn(t: Fraction | int) -> ArithFn:
    """norm^t; an integer t needs no root, so norm^t is built directly."""
    t = Fraction(t)
    if t.denominator == 1:
        a = t.numerator
        return (lambda n: Fraction(n.norm ** a)) if a >= 0 else (lambda n: Fraction(1, n.norm ** -a))
    return lambda n: _norm_power_exact(n, t)


# q = prod r^f as the (r, f) pairs, cached by q: one entry per residue
# cardinality seen; callers only read the list
_q_factors = cache(_factor_small)


def log_norm_fn() -> ArithFn:
    """log norm(m) = sum_v e_v log q_v, with each q_v = r^f canonicalised to
    f log@r and the symbols in ascending order of r, as
    FormalLog.log_integer(norm(m)) gives them."""
    def log_norm(m: Ideal) -> FormalLog:
        exps: dict[int, int] = {}
        for p, e in m:
            for r, f in _q_factors(p.q):
                exps[r] = exps.get(r, 0) + e * f
        return FormalLog._trusted(Fraction(0), {f"log@{r}": Fraction(exps[r]) for r in sorted(exps)})
    return log_norm


def one_fn() -> ArithFn:
    return lambda n: Fraction(1)
