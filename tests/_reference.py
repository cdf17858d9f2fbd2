"""An mpmath reference that checks its own digits.

reference(expr, *args, rtol=...) evaluates expr(ctx, *args) on a private
mpmath context at 50, 100, 200, ... digits (or from the digits `start`
names), until two successive values agree to rtol relative.  Where the
terms of expr cancel past one precision, the next one shows it, so no fixed
precision has to be right for every input.  A value that comes out exactly
0 never counts as settled: two zeros agree whether or not the terms
cancelled to nothing.
"""
from __future__ import annotations

import functools

import mpmath as mp

START_DPS, MAX_DPS = 50, 1600


@functools.cache
def _context(dps: int) -> mp.MPContext:
    ctx = mp.MPContext()
    ctx.dps = dps
    return ctx


def reference(expr, *args, rtol: float, start: int = START_DPS):
    """expr(ctx, *args), an mpmath number, at the first precision from start
    on that agrees with the one before it to rtol relative.  Raises
    AssertionError, naming expr and args, when none does by MAX_DPS digits."""
    prev, dps = None, start
    while dps <= MAX_DPS:
        value = expr(_context(dps), *args)
        if prev is not None and value and abs(value - prev) <= rtol * abs(value):
            return value
        prev, dps = value, 2 * dps
    raise AssertionError(f"the mpmath reference {expr.__name__}{args} did not settle by {MAX_DPS} digits")
