"""SHA-256 digest of the exact path's results, for comparing two checkouts.

    python3 tools/exact_digest.py [SRC_DIR]

SRC_DIR (default: the src/ beside this file) is put first on sys.path.  The
script imports only formal, ideals, ntransform and spectral, which need no
third-party package, so it runs under any supported Python.  It prints one
line per section (result count and digest) and a total line; two checkouts
whose exact code agrees print identical lines.

Every result is recorded with its type.  A FormalLog is recorded as its
constant and its coefficients in dict order (the order `evaluate` sums them
in), and an error as its type and message.  Covered: n_transform, n_plus and
convolve_omega on the norm powers, log norm, one and seeded random Fraction,
FormalLog and mixed functions; closed_power; n_plus_closed_power, exact and
float; closed_log; FormalLog.log_integer; and r_z on both paths, partial_r,
partial_r_sum, q_poly_one and tau_jj.  The ideals are the exhaustive grid of
exponents 0..6 at q = 2, 3, 4, 9 (2401 ideals) and 1500 seeded monoids.

The spectral results are split in two sections.  spectral-exact holds every
Fraction result: r_z at a Fraction X on both paths, partial_r, partial_r_sum,
q_poly_one and tau_jj.  spectral-float holds r_z at float and complex X.

tools/exact_digest.expected holds the closed, transforms, log_integer and
spectral-exact lines, which agree under Python 3.10 to 3.12; CI diffs the
first four output lines against it.  The spectral-float line is left out: it
differs on 3.12, whose sum() of floats is compensated.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from rtfverify import ntransform as nt, spectral as sp  # noqa: E402
from rtfverify.errors import RTFError  # noqa: E402
from rtfverify.formal import FormalLog  # noqa: E402
from rtfverify.ideals import Ideal, Prime  # noqa: E402

TS = [Fraction(t) for t in ("-2", "-3/2", "-1", "0", "1/3", "1/2", "1", "2", "3")]


def record(value) -> str:
    if isinstance(value, FormalLog):
        items = ",".join(f"{s}:{c!r}" for s, c in value.coeffs.items())
        return f"FormalLog({value.const!r};{items})"
    return f"{type(value).__name__}({value!r})"


def attempt(fn, *args) -> str:
    try:
        return record(fn(*args))
    except RTFError as exc:
        return f"{type(exc).__name__}: {exc}"


class Section:
    def __init__(self, name: str):
        self.name, self.count, self.hash = name, 0, hashlib.sha256()

    def add(self, line: str) -> None:
        self.count += 1
        self.hash.update(line.encode() + b"\n")

    def line(self) -> str:
        return f"{self.name} {self.count} {self.hash.hexdigest()}"


def random_fn(rng: random.Random, kind: str) -> nt.ArithFn:
    cache: dict = {}

    def fn(m):
        if m not in cache:
            frac = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
            if kind == "fraction" or (kind == "mixed" and rng.random() < 0.5):
                cache[m] = frac
            else:
                cache[m] = FormalLog(frac, {"log@2": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                            "LpL": rng.randint(-3, 3)})
        return cache[m]

    return fn


def ideals() -> list[Ideal]:
    grid_primes = [Prime(f"g{i}", q) for i, q in enumerate((2, 3, 4, 9))]
    out = [Ideal.of(dict(zip(grid_primes, exps))) for exps in itertools.product(range(7), repeat=4)]
    rng = random.Random(6)
    for _ in range(1500):
        qs = rng.sample([2, 3, 4, 5, 7, 8, 9, 11, 13], k=rng.randint(1, 4))
        out.append(Ideal.of({Prime(f"p{i}", q): rng.randint(0, 7) for i, q in enumerate(qs)}))
    return out


def main() -> None:
    closed, sums, logs = Section("closed"), Section("transforms"), Section("log_integer")
    exact, floats = Section("spectral-exact"), Section("spectral-float")
    fns = [nt.norm_power_fn(-1), nt.norm_power_fn(2), nt.log_norm_fn(), nt.one_fn()]
    for i, n in enumerate(ideals()):
        for t in TS:
            closed.add(attempt(nt.closed_power, n, t))
            closed.add(attempt(nt.n_plus_closed_power, n, t))
            closed.add(attempt(nt.n_plus_closed_power, n, t, False))
        closed.add(record(nt.closed_log(n)))
        logs.add(record(FormalLog.log_integer(n.norm, Fraction(i % 7 - 3, i % 5 + 1))))
        rng = random.Random(i)
        for B in fns + [random_fn(rng, kind) for kind in ("fraction", "formal", "mixed")]:
            for op in (nt.n_transform, nt.n_plus, nt.convolve_omega):
                sums.add(record(op(B, n)))
    zero = lambda m: FormalLog.zero()
    for n in ideals()[:200]:
        for op in (nt.n_transform, nt.n_plus, nt.convolve_omega):
            sums.add(record(op(zero, n)))

    rng = random.Random(6)
    for c in (0, 1, 2, 3):
        for q in (2, 3, 5, 7):
            for k in range(1, 9):
                if c == 0:
                    reps = [sp.LocalRepData(q=q, c=0, Q=Q) for Q in (Fraction(rng.randint(-9, 9), 10), Fraction(1, 2))]
                elif c == 1:
                    reps = [sp.LocalRepData(q=q, c=1, chi=rng.choice((1, -1)))]
                else:
                    reps = [sp.LocalRepData(q=q, c=c)]
                for rep, eta in itertools.product(reps, (1, -1)):
                    exact.add(attempt(sp.partial_r, rep, eta, k))
                    exact.add(attempt(sp.partial_r_sum, rep, eta, k))
                    for j in range(k + 1):
                        exact.add(record(sp.q_poly_one(j, rep)))
                        exact.add(record(sp.tau_jj(j, rep)))
                    xs = [Fraction(rng.randint(-60, 60), rng.randint(1, 30)), float(q) ** -1e-6,
                          rng.uniform(-3, 3), complex(rng.uniform(-1, 1), rng.uniform(-1, 1))]
                    for X in xs:
                        if X != -1:
                            rz = exact if isinstance(X, Fraction) else floats
                            rz.add(attempt(sp.r_z, rep, eta, k, X, "sum"))
                            rz.add(attempt(sp.r_z, rep, eta, k, X, "closed"))

    sections = (closed, sums, logs, exact, floats)
    total = hashlib.sha256()
    for section in sections:
        print(section.line())
        total.update(section.line().encode())
    print(f"total {sum(s.count for s in sections)} {total.hexdigest()}")


if __name__ == "__main__":
    main()
