"""SHA-256 digest of the exact path's results, for comparing two checkouts.

    python3 tools/exact_digest.py [--no-verify] [SRC_DIR]

SRC_DIR (default: the src/ beside this file) is put first on sys.path.  It
prints one line per section (result count and digest) and a total line; two
checkouts whose results agree print identical lines.  --no-verify leaves out
the verify and cli sections, the only ones that need numpy.

Every result is recorded with its type.  A FormalLog is recorded as its
constant and its coefficients in dict order (the order `evaluate` sums them
in), and an error as its type and message.  Covered: n_transform, n_plus and
convolve_omega on the norm powers, log norm, one and seeded random Fraction,
FormalLog and mixed functions; closed_power; n_plus_closed_power, exact and
float; closed_log; FormalLog.log_integer; and, in the spectral-exact section,
r_z and r_z_sum, partial_r, partial_r_sum, q_poly_one and tau_jj.  The
ideals are the exhaustive grid of exponents 0..6 at q = 2, 3, 4, 9 (2401
ideals) and 1500 seeded monoids.  r_z takes a rational X only; its seeded X
leave out -1, and the draws of the float and complex X that older checkouts
also recorded are still made, so the spectral-exact line compares with theirs.

The verify section is the output of `rtf verify --suite S --seed N`, run in
process through cli.main, for every suite S (the exact ntransform, weights,
orbital and assembly, then the numeric unipotent, arch and lattice) and
N = 0..4: the exit code and every stdout line, with each decimal number
("0.14s", "2.866", "1.75e-10") masked as <f>.  What is left is the check
names, statuses, integer counts and exact values; a float error size's last
digits follow the numpy build, and an elapsed time the host.  A time-gated
check's status and the exit code still follow its wall-clock gate (5 or 10 s,
several times the check's run time).

The cli section is the output of the 800 `rtf` argvs of the benchmark's
queries workload at seeds 0 and 1 (perfbench/workloads.py's build_ops,
imported read-only), run in process through cli.main: the argv, exit code,
stdout and stderr of each, with the config directory masked as <dir> and
each decimal number as <f>.

tools/exact_digest.expected holds the closed, transforms, log_integer,
spectral-exact, verify and cli lines, the first six of the output.  The first
four agree under Python 3.10 to 3.12, and CI diffs them on every Python; the
verify and cli lines are made and diffed on the 3.11 job only.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import random
import re
import sys
import tempfile
from fractions import Fraction

parser = argparse.ArgumentParser(description="Digest of the exact path's results.")
parser.add_argument("src_dir", nargs="?", default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
parser.add_argument("--no-verify", action="store_true", help="leave out the verify and cli sections")
ARGS = parser.parse_args()
sys.path.insert(0, ARGS.src_dir)

from rtfverify import ntransform as nt, spectral as sp  # noqa: E402
from rtfverify.errors import RTFError  # noqa: E402
from rtfverify.formal import FormalLog  # noqa: E402
from rtfverify.ideals import Ideal, Prime  # noqa: E402

TS = [Fraction(t) for t in ("-2", "-3/2", "-1", "0", "1/3", "1/2", "1", "2", "3")]
VERIFY_SUITES = ("ntransform", "weights", "orbital", "assembly", "unipotent", "arch", "lattice")
VERIFY_SEEDS = range(5)
CLI_SEEDS = (0, 1)
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
DECIMAL = re.compile(r"\d+\.\d+(?:e[-+]\d+)?|\d+e[-+]\d+")


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


def verify_section() -> Section:
    from rtfverify import cli   # imports numpy
    checks = Section("verify")
    for suite, seed in itertools.product(VERIFY_SUITES, VERIFY_SEEDS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", "--suite", suite, "--seed", str(seed)])
        checks.add(f"{suite} {seed} rc={rc}")
        for line in out.getvalue().splitlines():
            checks.add(DECIMAL.sub("<f>", line))
    return checks


def cli_section() -> Section:
    from rtfverify import cli
    sys.path.insert(0, PERFBENCH)
    import workloads
    runs = Section("cli")
    with tempfile.TemporaryDirectory() as workdir:
        for seed in CLI_SEEDS:
            for op in workloads.build_ops("queries", seed, workdir):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(op.argv)
                text = f"{' '.join(op.argv)}\nrc={rc}\n{out.getvalue()}\nstderr={err.getvalue()}"
                runs.add(DECIMAL.sub("<f>", text.replace(workdir, "<dir>")))
    return runs


def main() -> None:
    closed, sums, logs = Section("closed"), Section("transforms"), Section("log_integer")
    exact = Section("spectral-exact")
    fns = [nt.norm_power_fn(-1), nt.norm_power_fn(2), nt.log_norm, nt.one_fn()]
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
                    X = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
                    for _ in range(3):   # the float and complex X's draws
                        rng.random()
                    if X != -1:
                        exact.add(attempt(sp.r_z_sum, rep, eta, k, X))
                        exact.add(attempt(sp.r_z, rep, eta, k, X))

    sections = [closed, sums, logs, exact]
    if not ARGS.no_verify:
        sections += [verify_section(), cli_section()]
    total = hashlib.sha256()
    for section in sections:
        print(section.line())
        total.update(section.line().encode())
    print(f"total {sum(s.count for s in sections)} {total.hexdigest()}")


if __name__ == "__main__":
    main()
