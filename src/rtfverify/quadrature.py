"""Globally adaptive Gauss-Kronrod quadrature (G10/K21) on numpy arrays.

The rule and its error estimate are QUADPACK's qk21.  One refinement loop,
the generator _adaptive, bisects the panels of one integral; it asks for
panels and is sent their values, so it never calls the integrand itself.
quad_many, the one driver, runs the loops of one or many finite integrals
together: each round it stacks the panels every unfinished integral asked
for and evaluates them in one integrand call on a (panels, 21) array, which
also gets `which`, the index of the integral each row belongs to.  Panel
sums are an elementwise product followed by a sum along the node axis (no
BLAS), so a result depends neither on threads, nor on the order in which
callers run, nor on the other integrals of its batch.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

# Kronrod abscissae on [0, 1) in decreasing order; the odd-indexed ones are
# the 10-point Gauss abscissae.  Standard QUADPACK qk21 constants.
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208745815571, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
])
# the full 21-node rule on [-1, 1]
NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
GAUSS = np.concatenate([_WG[:-1], _WG[::-1]])
# the same rule on [0, 1]: halving a weight is exact, so every sum below is
# bit for bit half the [-1, 1] sum
_U = 0.5 * (NODES + 1)
_KG = 0.5 * np.stack([KRONROD, GAUSS], axis=1)
_K = _KG[:, 0]
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _panels(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 value and qk21 error estimate of f on each panel [lo_i, hi_i]."""
    width = hi - lo
    fv = f(lo[:, None] + width[:, None] * _U)
    kg = (fv[:, :, None] * _KG).sum(axis=1)
    mean = kg[:, 0]
    resabs = (np.abs(fv) * _K).sum(axis=1)
    resasc = (np.abs(fv - mean[:, None]) * _K).sum(axis=1)
    # qk21: resasc min(1, (200 |K - G| / resasc)^1.5), floored at the roundoff
    # of the node sum; the ratio is formed below 1 so nothing overflows
    ratio = np.minimum(200 * np.abs(mean - kg[:, 1]), resasc) / np.maximum(resasc, _TINY)
    err = np.maximum(resasc * ratio ** 1.5, 50 * _EPS * resabs)
    return mean * width, err * np.abs(width)


def _adaptive(edges: np.ndarray, epsabs: float, epsrel: float, limit: int, span: str):
    """The refinement loop of one integral over the panels between edges.

    A generator: it yields the panels it needs as (lo, hi) arrays, is sent
    their (value, error) arrays from _panels, and returns (value, error) as
    Python scalars.  The panels with the largest errors are bisected until
    the summed estimate meets max(epsabs, epsrel |value|); past `limit`
    panels ConvergenceError is raised, naming span.
    """
    lo, hi = edges[:-1], edges[1:]
    val, err = yield lo, hi
    panels = len(lo)
    while True:
        # a bisected panel stays in the arrays with value and error 0
        value, error = val.sum(), float(err.sum())
        if not (math.isfinite(error) and math.isfinite(abs(value))):
            raise ConvergenceError(f"{span}: the integrand is not finite")
        target = max(epsabs, epsrel * abs(value))
        if error <= target:
            return value.item(), error
        if panels >= limit:
            raise ConvergenceError(f"{span}: error estimate {error:.2e} above tolerance "
                                   f"{target:.2e} with {limit} panels")
        # every panel above the mean share of the tolerance, the largest first
        refine = np.flatnonzero(err > target / panels)
        if len(refine) > limit - panels:
            refine = np.argsort(-err, kind="stable")[:limit - panels]
        left, right = lo[refine], hi[refine]
        mid = 0.5 * (left + right)
        new_lo, new_hi = np.concatenate([left, mid]), np.concatenate([mid, right])
        new_val, new_err = yield new_lo, new_hi
        val[refine] = 0.0
        err[refine] = 0.0
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        val, err = np.concatenate([val, new_val]), np.concatenate([err, new_err])
        panels += len(refine)


def quad_many(f, edges_list, *, epsabs: float, epsrel: float,
              limit: int) -> list[tuple[float | complex, float]]:
    """(value, error) of integral #i over edges_list[i] for each i: one
    _adaptive loop per integral, all driven together.

    Each edges_list[i] is a finite increasing sequence: the end points of
    integral #i and its break points.  Each round, the panels that every
    unfinished integral asks for are stacked and evaluated by one _panels
    call: f(x, which) gets the (rows, 21) array of nodes x and `which`, the
    (rows, 1) column of the integral each row belongs to, and must evaluate
    row r as the integrand of integral #which[r] alone.  A row's value then
    does not depend on the rows beside it, so each result has the bits that
    one loop driven alone gives it.  A ConvergenceError names the failing
    integral's index and interval, and carries the index as its `which`
    attribute.
    """
    loops = {i: _adaptive(np.array(edges, dtype=float), epsabs, epsrel, limit,
                          f"quad_many integral #{i} on [{edges[0]}, {edges[-1]}]")
             for i, edges in enumerate(edges_list)}
    requests = {i: next(loop) for i, loop in loops.items()}
    results = [None] * len(loops)
    while requests:
        order = list(requests)
        sizes = [len(requests[i][0]) for i in order]
        which = np.array(order).repeat(sizes)[:, None]
        val, err = _panels(lambda x: f(x, which),
                           np.concatenate([requests[i][0] for i in order]),
                           np.concatenate([requests[i][1] for i in order]))
        start = 0
        for i, size in zip(order, sizes):
            part = slice(start, start + size)
            start += size
            try:
                requests[i] = loops[i].send((val[part], err[part]))
            except StopIteration as done:
                results[i] = done.value
                del requests[i]
            except ConvergenceError as exc:
                exc.which = i
                raise
    return results
