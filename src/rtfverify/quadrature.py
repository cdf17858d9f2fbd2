"""Globally adaptive Gauss-Kronrod quadrature (G10/K21) on numpy arrays.

The rule and its error estimate are QUADPACK's qk21.  quad_many, the one
driver, refines a batch of finite integrals together, with one set of numpy
calls per round for the whole batch.  No step is a BLAS product and no sum
mixes two integrals, so a result depends neither on threads, nor on the
order in which callers run, nor on the other integrals of its batch.
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
_K = 0.5 * KRONROD
_G = 0.5 * GAUSS
_KC, _GC = _K.astype(complex), _G.astype(complex)
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
_ROUNDOFF = 50 * _EPS


def _panels(f, lo: np.ndarray, hi: np.ndarray, which: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K21 value and qk21 error estimate on each panel [lo_i, hi_i] of f(x, which)."""
    width = hi - lo
    fv = f(lo[:, None] + width[:, None] * _U, which)
    # a complex fv takes the weights already cast to complex, as numpy
    # would cast them for each product
    k, g = (_KC, _GC) if fv.dtype.kind == "c" else (_K, _G)
    mean = np.add.reduce(fv * k, 1)
    resabs = np.add.reduce(np.abs(fv) * _K, 1)
    resasc = np.add.reduce(np.abs(fv - mean[:, None]) * _K, 1)
    # qk21: resasc min(1, (200 |K - G| / resasc)^1.5), floored at the roundoff
    # of the node sum; the ratio is formed below 1 so nothing overflows
    ratio = np.minimum(200 * np.abs(mean - np.add.reduce(fv * g, 1)), resasc) / np.maximum(resasc, _TINY)
    err = np.maximum(resasc * ratio ** 1.5, _ROUNDOFF * resabs)
    return mean * width, err * width


def quad_many(f, edges_list, *, epsabs: float, epsrel: float,
              limit: int) -> list[tuple[float | complex, float]]:
    """(value, error) of integral #i over edges_list[i] for each i, all
    refined together.

    Each edges_list[i] is a finite increasing sequence: the end points of
    integral #i and its break points.  Each round evaluates the new panels
    of every open integral in one _panels call: f(x, which) gets the
    (rows, 21) array of nodes x and `which`, the (rows, 1) column of the
    integral each row belongs to, and must evaluate row r as the integrand
    of integral #which[r] alone.  An integral is finished once its summed
    error estimate meets max(epsabs, epsrel |value|); until then it
    bisects every panel above the mean share of that tolerance, keeping to
    `limit` panels by the largest errors.  A ConvergenceError names the
    failing integral's index and interval, and carries the index as its
    `which` attribute.

    The panels of the open integrals sit in flat arrays, each tagged with
    the row of its integral.  A bisected panel stays, with value and error
    0, and its halves are appended, so a row's panels are in the order a
    one-item call gives them.  Each panel's sums run along its node axis,
    and each row's one panel at a time in that order, so each result has
    the bits of its one-item call.  The rest of a round (targets, the
    panels to bisect, bisection, the limit) is one set of numpy calls for
    the whole batch.
    """
    sizes = [len(edges) - 1 for edges in edges_list]
    if not sizes:
        return []
    lo = np.array([x for edges in edges_list for x in edges[:-1]], dtype=float)
    hi = np.array([x for edges in edges_list for x in edges[1:]], dtype=float)
    row = np.arange(len(sizes)).repeat(sizes)
    ids = np.arange(len(sizes))      # the integral of each row
    count = np.array(sizes)          # the panels of each row, a bisected one counted once
    most = max(sizes)                # at least the largest count
    results = [None] * len(sizes)
    val, err = _panels(f, lo, hi, row[:, None])
    while True:
        # each row summed in position order (bincount adds its entries one at
        # a time), a complex one as its real and imaginary parts
        error = np.bincount(row, err, len(ids))
        re = np.bincount(row, val.real, len(ids))
        im = np.bincount(row, val.imag, len(ids)) if val.dtype.kind == "c" else None
        size = np.abs(re) if im is None else np.hypot(re, im)
        target = np.maximum(epsabs, epsrel * size)
        done = error <= target
        # a product of the two is finite unless one of them is not (or it
        # overflows, and the check below finds nothing)
        if not math.isfinite(np.dot(error, size)):
            for r, i in enumerate(ids):
                if not (math.isfinite(error[r]) and math.isfinite(size[r])):
                    raise _failure(edges_list, i, "the integrand is not finite")
                if not done[r] and count[r] >= limit:
                    raise _failure(edges_list, i, _over(error[r], target[r], limit))
        finished = np.count_nonzero(done)
        if finished:
            for r in done.nonzero()[0].tolist():
                results[ids[r]] = (re[r].item() if im is None else complex(re[r], im[r])), error[r].item()
            if finished == len(ids):
                return results
            # the open rows, renumbered, and their panels
            keep = ~done
            kept = keep[row]
            lo, hi, val, err = lo[kept], hi[kept], val[kept], err[kept]
            row = (np.cumsum(keep) - 1)[row[kept]]
            ids, count, error, target = ids[keep], count[keep], error[keep], target[keep]
        # every panel above the mean share of the tolerance
        refine = (err > (target / count)[row]).nonzero()[0]
        new_row = row[refine]
        more = np.bincount(new_row, minlength=len(ids))
        if most + len(refine) >= limit:
            # a row may pass the limit: an open row at it fails, and a row
            # with less room than candidates bisects its largest errors
            full = (count >= limit).nonzero()[0]
            if len(full):
                raise _failure(edges_list, ids[full[0]], _over(error[full[0]], target[full[0]], limit))
            if np.count_nonzero(more > limit - count):
                refine, new_row = _largest_errors(refine, new_row, err, limit - count)
                more = np.bincount(new_row, minlength=len(ids))
            count += more
            most = int(np.maximum.reduce(count))
        else:
            count += more
            most += len(refine)
        left, right = lo[refine], hi[refine]
        mid = 0.5 * (left + right)
        lo, hi = np.concatenate((lo, left, mid)), np.concatenate((hi, mid, right))
        row = np.concatenate((row, new_row, new_row))
        new_val, new_err = _panels(f, lo[len(val):], hi[len(val):], ids[row[len(val):], None])
        val[refine] = 0.0
        err[refine] = 0.0
        val, err = np.concatenate((val, new_val)), np.concatenate((err, new_err))


def _largest_errors(refine: np.ndarray, new_row: np.ndarray, err: np.ndarray,
                    room: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """refine and its rows less, in every row with more candidates than
    room, all but its room largest errors (the first of equal ones)."""
    keep = np.ones(len(refine), dtype=bool)
    for r in np.unique(new_row):
        mine = (new_row == r).nonzero()[0]
        keep[mine[np.argsort(-err[refine[mine]], kind="stable")[room[r]:]]] = False
    return refine[keep], new_row[keep]


def _over(error: float, target: float, limit: int) -> str:
    return f"error estimate {error:.2e} above tolerance {target:.2e} with {limit} panels"


def _failure(edges_list, i: int, cause: str) -> ConvergenceError:
    exc = ConvergenceError(f"quad_many integral #{i} on [{edges_list[i][0]}, {edges_list[i][-1]}]: {cause}")
    exc.which = int(i)
    return exc
