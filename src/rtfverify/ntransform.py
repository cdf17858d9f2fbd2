"""The newform-extraction transform of arithmetic functions on ideal monoids.

Two mutually inverse operations drive everything here: a forward sum over
square divisors with omega/iota weights, and an alternating inclusion-
exclusion over the squarefull support that undoes it.  Both are exact in
rational arithmetic; the closed forms for norm powers and for log-norm are
checked against the defining sums elsewhere.

The oracles stay the defining sums: B is evaluated at every ideal m of the
sum, never replaced by an Euler product.  Only the weights are factored: a
term's weight omega * iota(m)/iota(n) is a product of per-place integers over
one denominator.  Each value B(m), and each of its FormalLog coefficients, is
read once through as_integer_ratio() and added into an integer numerator over
a running denominator, one per symbol; one Fraction is built per symbol.

n_transform_box(summands, box) gives n_transform(B, n) of each summand B at
every ideal n of a box, whose exponents run in steps of 2 from 0 or 1 at each
place, so every m of every sum lies in it.  It lists the ideals and builds
each place's coefficients once for all the summands, evaluates each B once
per ideal and sums by Yates's algorithm (the fast Moebius transform), one
integer pass per place.  It returns those integer sums, one numerator per
ideal and symbol over a common denominator, and builds no Fraction; it
assumes nothing about B, so it stays the defining sum.

The closed forms are products over the places of n: one integer numerator
over one integer denominator.  _closed_pair and _closed_log_pair return them
unreduced, and rtf verify compares them with the box's numerators by
cross-multiplying; closed_power and closed_log build one Fraction (or one
FormalLog) from them per ideal.  Each place is one entry of the bounded table
_place, keyed by (q, e, t, sign), which holds q^(e|a|) at t = a/d and the
place's factor as an integer pair.  At d > 1 the d-th root is taken once, of
the product norm(n)^|a|, since per-place roots can be irrational where their
product is rational (sqrt 2 * sqrt 8 = 4).  An int t takes no root, and
t = 0 forms no norm.  _closed_log_pair scales by _closed_pair(n, 0, -1),
whose numerator each place's log denominator divides, so each symbol's
coefficient is one integer sum.  The summands are built the same way: norm^t
at an integer t is an integer power (norm^0 is one shared Fraction(1)), and
log norm is sum_v e_v log q_v, read from m's exponents and formal._log_terms,
the per-q cache that FormalLog.log_integer reads too.  A log_norm value
shares its constant 0 and its small integer coefficients with every other:
Fractions are immutable.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Callable, Sequence

from .errors import InputError, NonRationalPower
from .formal import FormalLog, _log_terms
from .ideals import Ideal, Prime

Value = Fraction | FormalLog

# One place's options: the exponent entry it contributes to m (empty when the
# whole prime power is removed) and the option's integer weight.
Choice = tuple[tuple[tuple[Prime, int], ...], int]


# An arithmetic function on the ideals of a monoid.
ArithFn = Callable[[Ideal], Value]


def _removal_denom(q: int, e: int) -> int:
    """d with omega_v(p, n0) * iota ratio = 1/d for removing p^2 from p^e,
    e >= 2: (q+1)/(q-1) * 1/((1+q)q) = 1/(q(q-1)) at e == 2, 1/q^2 above."""
    return q * (q - 1) if e == 2 else q * q


def _subset_choices(n: Ideal, sign: int) -> tuple[list[list[Choice]], int]:
    """Per place of n: keep p^e, or (when e >= 2) remove p^2 with weight
    sign/d; over the place's denominator d it is (keep: d, remove: sign)."""
    choices, denom = [], 1
    for p, e in n:
        opts = [(((p, e),), 1)]
        if e >= 2:
            d = _removal_denom(p.q, e)
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


def _weighted_sum(fn: ArithFn, choices: list[list[Choice]], denom: int, first_fastest: bool) -> Value:
    """The sum over one option per place of (product of the weights) * fn(m)
    / denom, the first place's option varying fastest or the last.  It is a
    FormalLog whenever any fn(m) is one, even if every coefficient cancels;
    the constant and each symbol keep an integer numerator over the lcm of
    the denominators seen."""
    terms: list[tuple[tuple, int]] = [((), 1)]
    for opts in choices:
        if first_fastest:
            terms = [(exps + entry, w * c) for entry, c in opts for exps, w in terms]
        else:
            terms = [(exps + entry, w * c) for exps, w in terms for entry, c in opts]
    num, den = 0, 1
    sums: dict[str, list[int]] = {}   # symbol -> [numerator, denominator]
    formal = False
    for exps, w in terms:
        v = fn(Ideal(exps))   # each exps keeps n's sorted order and drops zero exponents
        if isinstance(v, FormalLog):
            formal = True
            for sym, c in v.coeffs.items():
                cn, cd = c.as_integer_ratio()
                pair = sums.get(sym)
                if pair is None:
                    sums[sym] = [w * cn, cd]
                elif pair[1] == cd:
                    pair[0] += w * cn
                else:
                    g = gcd(pair[1], cd)
                    pair[0] = pair[0] * (cd // g) + w * cn * (pair[1] // g)
                    pair[1] = pair[1] // g * cd
            v = v.const
        vn, vd = v.as_integer_ratio()
        if vd == den:
            num += w * vn
        else:
            g = gcd(den, vd)
            num = num * (vd // g) + w * vn * (den // g)
            den = den // g * vd
    const = Fraction(num, den * denom)
    if not formal:
        return const
    return FormalLog._trusted(const, {sym: Fraction(a, b * denom) for sym, (a, b) in sums.items() if a})


def n_transform(B: ArithFn, n: Ideal) -> Value:
    """Alternating inclusion-exclusion extracting the new part of B at n:

        sum_{I subset S(n1)} (-1)^|I| prod_{v in I cap S1(n1)} omega_v(n0)
                             * iota(m)/iota(n) * B(m),   m = n prod_{v in I} p_v^-2.
    """
    return _weighted_sum(B, *_subset_choices(n, -1), first_fastest=True)


# n_transform_box's sums of one summand: {symbol (None: the constant):
# (one numerator per ideal, their common denominator)}, and per ideal
# whether the transform there is a FormalLog.
BoxSums = tuple[dict[str | None, tuple[list[int], int]], list[bool]]


def n_transform_box(summands: Sequence[ArithFn],
                    box: Sequence[tuple[Prime, range]]) -> tuple[list[Ideal], list[BoxSums]]:
    """n_transform(B, n) of each B of summands at every ideal n = prod p^e,
    e in es, of the box's distinct places (p, es), each es a non-empty range
    in steps of 2 from 0 or 1, as (the ideals, one BoxSums per summand):
    at ideals[i], the transform's constant and its coefficient of each
    symbol are vec[i] / den of that symbol's (vec, den), a FormalLog where
    the flag is set.  With L = q^2(q-1), each place makes one integer pass,
    V(e) <- L V(e) - (L/d) V(e-2) at e >= 2 and L V(e) below, over one
    numerator per ideal and symbol and one common denominator per symbol."""
    box = sorted(box, key=lambda place: place[0])
    if len({p.id for p, _ in box}) < len(box) or any(not es or es.step != 2 or es.start not in (0, 1) for _, es in box):
        raise InputError(f"a box has distinct places, each with exponents in steps of 2 from 0 or 1, got {box}")
    ideals: list = [()]
    for p, es in box:   # the last place varies fastest
        ideals = [m + ((p, e),) if e else m for m in ideals for e in es]
    ideals = [Ideal(m) for m in ideals]
    passes, stride = [], len(ideals)   # per place: (L, stride, the coefficient of each ideal's e)
    for p, es in box:
        q, stride = p.q, stride // len(es)
        L = q * q * (q - 1)
        block = [L // _removal_denom(q, e) if e >= 2 else 0 for e in es for _ in range(stride)]
        passes.append((L, stride, block * (len(ideals) // len(block))))
    out = []
    for B in summands:
        values = [B(m) for m in ideals]
        formal = [isinstance(v, FormalLog) for v in values]
        ratios = {None: [(v.const if f else v).as_integer_ratio() for v, f in zip(values, formal)]}
        for sym in dict.fromkeys(sym for v, f in zip(values, formal) if f for sym in v.coeffs):
            ratios[sym] = [v.coeffs.get(sym, _ZERO).as_integer_ratio() if f else (0, 1) for v, f in zip(values, formal)]
        sums = {}
        for sym, pairs in ratios.items():
            den = lcm(*[d for _, d in pairs])
            vec = [a * (den // d) for a, d in pairs]
            for L, stride, cs in passes:   # ([0] * stride + vec)[i] is vec[i - stride], at e - 2
                vec = [L * x - c * y for x, y, c in zip(vec, [0] * stride + vec, cs)] if any(vec) else vec
                den *= L
            sums[sym] = vec, den
        for _L, stride, cs in passes:
            formal = [f or (c != 0 and g) for f, g, c in zip(formal, [False] * stride + formal, cs)]
        out.append((sums, formal))
    return ideals, out


def n_plus(B: ArithFn, n: Ideal) -> Value:
    """All-positive-signs majorant of the transform."""
    return _weighted_sum(B, *_subset_choices(n, 1), first_fastest=True)


def convolve_omega(A: ArithFn, n: Ideal) -> Value:
    """Forward sum over square divisors, with the index weights folded in:

        B(n) = sum_{b | n1} omega(n, b^2) * iota(n b^-2)/iota(n) * A(n b^-2).

    n_transform inverts this map exactly (and vice versa).
    """
    return _weighted_sum(A, *_divisor_choices(n), first_fastest=False)


# ---------------------------------------------------------------------------
# closed forms


def _iroot(x: int, k: int) -> int:
    """The largest r >= 0 with r^k <= x, by integer Newton steps."""
    if x < 2:
        return x
    if k >= x.bit_length():   # x < 2^k, so r = 1: no Newton step forms r^(k-1)
        return 1
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


# rtf verify's ntransform suite meets 132 keys: 96 (q, e, t) of its grid and
# 36 of the majorant check; a query meets one per place of its ideal.
@lru_cache(maxsize=256)
def _place(q: int, e: int, t: Fraction | int, sign: int) -> tuple[int, int, int]:
    """One place's part of _closed_pair at t = a/d: q^(e|a|), and the place
    factor (qd + sign * qn, qd) with qn/qd = q^-2(1+t), times q/(q-1) at
    e == 2; (1, 1) at e < 2, and (0, 0) where q^-2(1+t) is irrational."""
    power = q ** (e * abs(t.numerator))
    if e < 2:
        return power, 1, 1
    try:
        qn, qd = _power_pair(q, -2 * (1 + t), q)
    except NonRationalPower:
        return power, 0, 0
    if e == 2:   # 1 + sign * q/(q-1) * qn/qd
        qn, qd = qn * q, qd * (q - 1)
    return power, qd + sign * qn, qd


def _closed_pair(n: Ideal, t: Fraction | int, sign: int) -> tuple[int, int]:
    """norm(n)^t * prod_{v: ord_v n >= 2} (1 + sign * c_v q^-2(1+t)),
    with c_v = (1-1/q)^-1 at ord_v n == 2 and c_v = 1 above, as one integer
    numerator over one integer denominator, from one _place entry per place.
    The norm's NonRationalPower comes before any place's.  The pair is not
    reduced: each place's factor divides the numerator."""
    power = num = den = 1
    for p, e in n:
        x, fn, fd = _place(p.q, e, t, sign)
        power, num, den = power * x, num * fn, den * fd
    d = t.denominator
    if d > 1:   # norm(n)^|a| = power: one root of the whole product
        root = _iroot(power, d)
        if root ** d != power:
            raise NonRationalPower(f"norm({n})^{t} is irrational")
        power = root
    if not den:
        p = next(p for p, e in n if not _place(p.q, e, t, sign)[2])
        raise NonRationalPower(f"norm({p.id})^{-2 * (1 + t)} is irrational")
    return (num * power, den) if t >= 0 else (num, den * power)


def closed_power(n: Ideal, t: Fraction | int) -> Fraction:
    """Closed form of the transform of norm^t, exactly:

        norm(n)^t * prod_{S(n1)-S2(n)} (1 - q^-2(1+t))
                  * prod_{S2(n)}       (1 - (1-1/q)^-1 q^-2(1+t)).
    """
    return Fraction(*_closed_pair(n, t, -1))


def _closed_log_pair(n: Ideal) -> tuple[dict[str, int], int]:
    """closed_log(n) as ({symbol: numerator}, one denominator), unreduced:
    each place adds (e + 2/(q^2-q-1) at e == 2, 2/(q^2-1) at e > 2) log q to
    a bracket that is scaled by _closed_pair(n, 0, -1).  That place's factor
    of the scale's numerator is q(q^2-q-1) at e == 2 and q^2-1 above, so
    each coefficient times the scale is an integer over the scale's
    denominator.  Every coefficient and the scale are positive, so no
    numerator is 0."""
    num, den = _closed_pair(n, 0, -1)
    sums: dict[str, int] = {}
    for p, e in n:
        q = p.q
        d, extra = (1, 0) if e == 1 else (q * q - q - 1, 2) if e == 2 else (q * q - 1, 2)
        c = (e * d + extra) * (num // d)
        for (_r, sym), f in _log_terms(q):
            sums[sym] = sums.get(sym, 0) + c * f
    return sums, den


def closed_log(n: Ideal) -> FormalLog:
    """Closed form of the transform of log norm: the t-derivative of
    closed_power at t=0, as an exact FormalLog (see _closed_log_pair)."""
    sums, den = _closed_log_pair(n)
    return FormalLog._trusted(_ZERO, {sym: Fraction(c, den) for sym, c in sums.items()})


def n_plus_closed_power(n: Ideal, t: Fraction | int, exact: bool = True) -> Fraction | float:
    """Closed form of the all-positive majorant on norm^t; in floats when not
    exact, which also takes a t at which norm^t is irrational."""
    if exact:
        return Fraction(*_closed_pair(n, t, 1))
    out_f = 1.0
    if t:
        try:
            norm_f = float(n.norm)
        except OverflowError:   # norm(n) is past the float range; norm^t may not be
            out_f = prod(float(p.q) ** (e * float(t)) for p, e in n)
        else:
            out_f = norm_f ** float(t)
    for p, e in n:
        if e >= 2:
            qpow = float(p.q) ** float(-2 * (1 + t))
            out_f *= 1 + ((p.q / (p.q - 1)) * qpow if e == 2 else qpow)
    return out_f


def norm_power_fn(t: Fraction | int) -> ArithFn:
    """norm^t; an integer t needs no root, so norm^t is built directly."""
    t = Fraction(t)
    if t.denominator == 1:
        a = t.numerator
        if a == 0:
            return lambda n: _ONE
        return (lambda n: Fraction(n.norm ** a)) if a > 0 else (lambda n: Fraction(1, n.norm ** -a))
    return lambda n: _norm_power_exact(n, t)


_ZERO, _ONE = Fraction(0), Fraction(1)
# Fraction(k) for the exponents a log norm meets most, one object each
_SMALL_INTS = tuple(Fraction(k) for k in range(64))


def log_norm(m: Ideal) -> FormalLog:
    """log norm(m) = sum_v e_v log q_v, read from m's exponents: each
    q_v = r^f is canonicalised to f log@r and the symbols run in ascending
    order of r, as FormalLog.log_integer(norm(m)) gives them, without
    factoring norm(m).  c * log_norm(m) is log_integer(norm(m), c)."""
    exps: dict[tuple[int, str], int] = {}
    for p, e in m:
        for key, f in _log_terms(p.q):
            exps[key] = exps.get(key, 0) + e * f
    return FormalLog._trusted(_ZERO, {sym: _SMALL_INTS[c] if c < 64 else Fraction(c)
                                      for (_r, sym), c in sorted(exps.items())})


def one_fn() -> ArithFn:
    return lambda n: Fraction(1)
