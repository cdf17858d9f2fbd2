"""Seeded inputs for the three workloads and the checker for their outputs.

A workload is a fixed list of operations, each an argv for ``rtf`` that runs
in-process through ``rtfverify.cli.main``.  ``build_ops`` draws the list from
the seed (and writes the config files the queries name); ``check_pass``
classifies every output as ok, failed (it raised or exited nonzero) or wrong
(it ran but disagrees with its oracle).  A verify check that found no wrong
value but ran over its own wall-clock gate is neither: it is listed as slow.
The checker reads only the captured outputs, so a tampered output can be fed
to it directly.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("verify-exact", "verify-numeric", "queries")

VERIFY_SUITES = {
    "verify-exact": ("ntransform", "weights", "orbital", "assembly"),
    "verify-numeric": ("unipotent", "arch", "lattice"),
}

# Every check the suites record today.  A missing or failing name makes the
# run wrong, except a check that failed only its own wall-clock gate, which
# is listed as slow: that gate measures the host, so it would make the count
# of failed operations differ between runs of the same code.  A name not
# listed here is reported as an extra check.
EXPECTED_CHECKS = {
    "ntransform": ("ntransform.inversion-roundtrip-200", "ntransform.closed-forms-exhaustive",
                   "ntransform.n-plus-closed-and-bounded"),
    "weights": ("weights.rz-closed-vs-sum", "weights.partial-r-exact-and-fd",
                "weights.w-dw-vs-product-rule", "weights.delw-slope-pattern",
                "weights.adl-plus-epsilon-derivative"),
    "orbital": ("orbital.w-unramified-exact", "orbital.w-level-exact", "orbital.w-ramified-bound",
                "orbital.tilde-I-plus-vs-shell-oracle", "orbital.support-indicators"),
    "assembly": ("assembly.headline-identity-50", "assembly.degenerate-terms",
                 "assembly.sign-class-guard", "assembly.relabel-symmetry",
                 "assembly.prefactor-cancellation", "assembly.henkei-wiring-exact"),
    "unipotent": ("unipotent.closed-vs-contour", "unipotent.kernel-identity-exact",
                  "unipotent.sigma-independence", "unipotent.linearity-via-decomposition",
                  "unipotent.measure-moments"),
    "arch": ("arch.w-plus-closed-vs-quadrature", "arch.j-functional-equation",
             "arch.j-legendre-value", "arch.j-decay-envelope"),
    "lattice": ("lattice.theta-Z-weight-4", "lattice.theta-2Z-scaling",
                "lattice.sphere-I-closed-vs-quad", "lattice.theta-estimate-bounded",
                "lattice.minkowski-sandwich", "lattice.containment-audits", "lattice.fI-slope",
                "lattice.w-hyp-arch-slope", "lattice.phi-mellin-slope"),
}

# The verify checks that also gate their own elapsed time, and the gate.
TIME_GATES = {"ntransform.inversion-roundtrip-200": 5.0, "ntransform.closed-forms-exhaustive": 10.0,
              "assembly.headline-identity-50": 10.0}

# Tolerances the queries are held to: the verify suites' own.
ARCH_REL_TOL = 1e-6      # suite_arch: relative error of W_+ closed vs quadrature
ARCH_ABS_FLOOR = 1e-12   # suite_arch: differences at or below this count as zero
MOMENTS_ABS_TOL = 1e-9   # suite_unipotent: closed vs contour

# The queries pass: how many of each kind.  Sorted by latency the kinds form
# blocks (main-terms, local-weights, local-tables < ntransform < arch, lattice
# < moments), and the counts put the 50th and 90th percentiles inside the
# ntransform and the arch/lattice blocks, away from the edges between kinds.
QUERY_MIX = {
    "ntransform": 160,  # 80 pairs: the defining sum and the closed form
    "main-terms": 80,
    "local-weights": 40,
    "local-tables": 40,
    "arch": 56,
    "lattice": 12,
    "moments": 12,
}

Q_CHOICES = (2, 3, 4, 5, 7, 8, 9, 11, 13)


@dataclass
class Op:
    kind: str
    argv: list[str]
    pair: int | None = None          # ntransform: index of the oracle/closed pair
    expect_checks: tuple[str, ...] = ()


@dataclass
class Outcome:
    """What one operation printed, or how it ended if it did not finish."""
    rc: int | None
    stdout: str
    error: str = ""                  # "ExcType: message" when cli.main raised


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    extra_checks: list[str] = field(default_factory=list)
    slow: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.wrong


def _digest_text(op: Op, out: Outcome) -> str:
    if op.kind != "verify":
        return f"rc={out.rc}\n{out.stdout}\nerror={out.error}\n"
    # A verify line is compared by name and detail.  The timed checks end
    # their detail with the elapsed time, and their status and the exit code
    # follow it through the wall-clock gate, so those are left out; the
    # checker judges the status.
    lines = [re.sub(r"\d+\.\d+s$", "<elapsed>s", line.split("] ", 1)[1])
             for line in out.stdout.splitlines() if line.startswith(("[PASS] ", "[FAIL] "))]
    return "\n".join(lines) + f"\nerror={out.error}\n"


def pass_digest(ops: list[Op], outcomes: list[Outcome]) -> str:
    """One hash of everything a pass printed, for the byte-identity check."""
    h = hashlib.sha256()
    for op, out in zip(ops, outcomes):
        h.update(_digest_text(op, out).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# inputs


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    if workload in VERIFY_SUITES:
        return [Op("verify", ["verify", "--suite", s, "--seed", str(seed)],
                   expect_checks=EXPECTED_CHECKS[s]) for s in VERIFY_SUITES[workload]]
    if workload == "queries":
        return _query_ops(random.Random(seed), workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _query_ops(rng: random.Random, workdir: str) -> list[Op]:
    kinds = [k for k, n in QUERY_MIX.items() for _ in range(n if k != "ntransform" else n // 2)]
    rng.shuffle(kinds)
    ops: list[Op] = []
    for i, kind in enumerate(kinds):
        if kind == "ntransform":
            cfg = _write_config(workdir, f"q{i}", _monoid_config(rng))
            ideal, fn = _ntransform_input(rng, cfg)
            base = ["ntransform", "--config", cfg["path"], "--fn", fn, "--ideal", ideal]
            pair = len(ops)
            ops.append(Op(kind, base, pair=pair))
            ops.append(Op(kind, base + ["--closed"], pair=pair))
        elif kind == "main-terms":
            cfg, n, a = _minus_class_config(rng)
            cfg = _write_config(workdir, f"q{i}", cfg)
            ops.append(Op(kind, ["main-terms", "--config", cfg["path"], "--n", n, "--a", a]))
        else:
            ops.append(Op(kind, _GENERATORS[kind](rng)))
    return ops


def _monoid(rng: random.Random) -> list[dict]:
    return [{"id": f"p{j}", "q": rng.choice(Q_CHOICES)} for j in range(rng.randint(3, 6))]


def _monoid_config(rng: random.Random) -> dict:
    primes = _monoid(rng)
    return {"schema": 1, "primes": primes,
            "eta": {"eps": 0, "arch_signs": [1], "unram": {p["id"]: -1 for p in primes}}}


def _write_config(workdir: str, name: str, cfg: dict) -> dict:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return {**cfg, "path": path}


def _ideal_text(exps: dict[str, int]) -> str:
    parts = [pid if e == 1 else f"{pid}^{e}" for pid, e in exps.items() if e]
    return "*".join(parts) or "O"


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def _ntransform_input(rng: random.Random, cfg: dict) -> tuple[str, str]:
    primes = cfg["primes"]
    choice = rng.choice(("one", "lognorm", "norm-int", "norm-half"))

    def draw() -> dict[str, int]:
        return {p["id"]: rng.randint(0, 8) for p in primes}

    exps = draw()
    if choice == "norm-half":
        # norm^(a/2) is rational exactly when the norm is a square; draw until
        # it is, with no cap on its size.
        while not _is_square(math.prod(p["q"] ** exps[p["id"]] for p in primes)):
            exps = draw()
        fn = f"norm^{rng.choice((-3, -1, 1, 3, 5))}/2"
    elif choice == "norm-int":
        fn = f"norm^{rng.randint(-2, 3)}"
    else:
        fn = choice
    return _ideal_text(exps), fn


def _minus_class_config(rng: random.Random) -> tuple[dict, str, str]:
    """A config with n in the minus class of eta and a prime to n."""
    primes = _monoid(rng)
    ids = [p["id"] for p in primes]
    rng.shuffle(ids)
    k_n = rng.randint(1, 3)
    n_ids = ids[:k_n]
    a_ids = ids[k_n:k_n + rng.randint(0, min(3, len(ids) - k_n))]
    rest = ids[k_n + len(a_ids):]
    unram = {pid: -1 for pid in n_ids}
    unram.update({pid: rng.choice((1, -1)) for pid in a_ids})
    ram = {}
    for pid in rest:
        if rng.random() < 0.5:
            ram[pid] = rng.randint(1, 2)
        else:
            unram[pid] = rng.choice((1, -1))
    eps = rng.randint(0, 2)
    arch = [-1] * eps + [1] * max(1, 3 - eps)
    n_exps = {pid: rng.randint(1, 5) for pid in n_ids}
    # (-1)^eps * prod over n of (-1)^e must be -1; fix it at the first prime
    if (-1) ** (eps + sum(n_exps.values())) != -1:
        n_exps[n_ids[0]] += 1
    a_exps = {pid: rng.randint(1, 4) for pid in a_ids}
    cfg = {
        "schema": 1, "primes": primes,
        "eta": {"eps": eps, "arch_signs": arch, "ram": ram, "unram": unram},
        "consts": {"D_F": round(rng.uniform(1, 30), 6), "L1_eta": round(rng.uniform(0.1, 3), 6),
                   "Lp_over_L": round(rng.uniform(-2, 2), 6)},
        "weights": [rng.choice((6, 8, 10)) for _ in arch],
    }
    return cfg, _ideal_text(n_exps), _ideal_text(a_exps)


def _local_weights(rng: random.Random) -> list[str]:
    c = rng.choice((0, 0, 1, 2, 3))
    rep: dict = {"c": c}
    if c == 0:
        rep["Q"] = str(Fraction(rng.randint(-90, 90), 100))
    elif c == 1:
        rep["chi"] = rng.choice((1, -1))
    return ["local-weights", "--rep", json.dumps(rep), "--q", str(rng.choice(Q_CHOICES)),
            "--eta", str(rng.choice((1, -1))), "--k", str(rng.randint(1, 12))]


def _local_tables(rng: random.Random) -> list[str]:
    lo = rng.randint(-6, 0)
    hi = rng.randint(0, 12)
    return ["local-tables", "--place", json.dumps({"q": rng.choice(Q_CHOICES)}),
            "--eta", str(rng.choice((1, -1))), f"--ordb={lo}..{hi}",
            "--ordb1", str(rng.randint(0, 4)), "--ordn", str(rng.randint(1, 6)),
            "--f", str(rng.randint(1, 3))]


def _moments(rng: random.Random) -> list[str]:
    lo = rng.randint(0, 4)
    return ["moments", "--q", str(rng.choice(Q_CHOICES)), "--eta", str(rng.choice((1, -1))),
            "--n", f"{lo}..{lo + rng.randint(2, 6)}"]


def _arch(rng: random.Random) -> list[str]:
    while True:
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 120), rng.randint(1, 12))
        if b not in (0, -1):
            break
    # a negative b must be glued to its flag: argparse reads "-1/3" as an option
    return ["arch", "--l", str(rng.choice((6, 8, 10, 12))), f"--b={b}",
            "--eps", rng.choice(("one", "sgn"))]


def _lattice(rng: random.Random) -> list[str]:
    # the tail bound needs every weight above twice the degree
    if rng.random() < 0.25:
        field_, ideal, l = "Q", rng.choice(("O", "2", "3", "5")), str(rng.choice((4, 6, 8)))
    else:
        field_ = f"Q(sqrt{rng.choice((2, 3, 5, 6, 7))})"
        ideal = rng.choice(("O", "2", "3"))
        l = f"{rng.choice((6, 8, 10))},{rng.choice((6, 8, 10))}"
    return ["lattice", "--field", field_, "--ideal", ideal, "--l", l, "--R", str(rng.randint(20, 80))]


_GENERATORS = {"local-weights": _local_weights, "local-tables": _local_tables,
               "moments": _moments, "arch": _arch, "lattice": _lattice}


# ---------------------------------------------------------------------------
# checker


def check_pass(ops: list[Op], outcomes: list[Outcome]) -> Verdict:
    """Classify every output of one pass; see the module docstring."""
    v = Verdict()
    closed_pairs: dict[int, Outcome] = {}
    for i, (op, out) in enumerate(zip(ops, outcomes)):
        if op.kind == "verify":
            _check_verify(op, out, v)
            continue
        v.attempted += 1
        label = f"#{i} {' '.join(op.argv)}"
        if out.rc != 0:
            v.failed += 1
            v.failures.append(f"{label}: {out.error or f'exit {out.rc}'}")
            continue
        try:
            ok = _QUERY_CHECKS[op.kind](out.stdout)
            if ok and op.pair is not None:
                other = closed_pairs.setdefault(op.pair, out)
                ok = other is out or other.rc != 0 or \
                    json.loads(other.stdout)["result"] == json.loads(out.stdout)["result"]
        except (ValueError, KeyError, TypeError) as exc:
            ok = False
            label += f" (unreadable output: {exc})"
        if not ok:
            v.failed += 1
            v.wrong.append(label)
    return v


def _check_verify(op: Op, out: Outcome, v: Verdict) -> None:
    seen: dict[str, str] = {}
    for line in out.stdout.splitlines():
        m = re.match(r"\[(PASS|FAIL)\] ([^:]+)(?:: (.*))?$", line)
        if m:
            seen[m.group(2)] = "PASS" if m.group(1) == "PASS" else _fail_kind(m.group(2), m.group(3) or "")
    extra = [n for n in seen if n not in op.expect_checks]
    v.extra_checks += extra
    v.attempted += len(op.expect_checks) + len(extra)
    for name in list(op.expect_checks) + extra:
        state = seen.get(name, "missing")
        if state == "PASS":
            continue
        if state == "SLOW":
            v.slow.append(f"{name}: over its own wall-clock gate ({TIME_GATES[name]:g} s)")
            continue
        v.failed += 1
        v.wrong.append(f"{name}: {state}")
    if out.rc != 0 and all(state == "PASS" for state in seen.values()):
        v.wrong.append(f"{' '.join(op.argv)}: exit {out.rc} {out.error}")


def _fail_kind(name: str, detail: str) -> str:
    """SLOW when a timed check found no wrong value and failed only its
    wall-clock gate, which measures the host; FAIL otherwise."""
    m = re.search(r"(?:^|, )0 (?:exact )?failures, .*?(\d+\.\d+)s$", detail)
    if name in TIME_GATES and m and float(m.group(1)) >= TIME_GATES[name]:
        return "SLOW"
    return "FAIL"


def _ok_ntransform(text: str) -> bool:
    return "const" in json.loads(text)["result"]


def _ok_main_terms(text: str) -> bool:
    obj = json.loads(text)
    return obj["geom_equals_main"] is True and obj["sign_class"] == "-"


def _ok_local_weights(text: str) -> bool:
    rows = json.loads(text)["table"]
    return bool(rows) and all(r["partial_r"] == r["partial_r_sum"] for r in rows)


def _csv_rows(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty table")
    return rows


def _ok_local_tables(text: str) -> bool:
    return all(float(r["W_unram_oracle_delta"]) == 0 and float(r["W_level_oracle_delta"]) == 0
               for r in _csv_rows(text))


def _ok_moments(text: str) -> bool:
    return all(float(r["U_abs_err"]) <= MOMENTS_ABS_TOL and float(r["dU_abs_err"]) <= MOMENTS_ABS_TOL
               for r in _csv_rows(text))


def _ok_arch(text: str) -> bool:
    obj = json.loads(text)
    delta = obj["oracle_delta"]
    return delta <= ARCH_ABS_FLOOR or delta <= ARCH_REL_TOL * abs(complex(*obj["W_plus"]))


def _ok_lattice(text: str) -> bool:
    audits = json.loads(text)["audits"]
    return (audits["covering_ok"] is True and audits["submultiplicative_ok"] is True
            and audits["minkowski_ok"] is True)


_QUERY_CHECKS = {"ntransform": _ok_ntransform, "main-terms": _ok_main_terms,
                 "local-weights": _ok_local_weights, "local-tables": _ok_local_tables,
                 "moments": _ok_moments, "arch": _ok_arch, "lattice": _ok_lattice}
