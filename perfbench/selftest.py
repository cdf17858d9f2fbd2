"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A short run of each kind (--trace 0 and --trace 1) at a small seed must
   emit every metric BENCHMARK.json names, each with its declared unit.
2. The checker must accept real outputs of every query kind and of a verify
   suite, and reject each of them once tampered.  The tampered text is fed to
   the checker, never to the program.

Exits nonzero on the first failure.
"""
from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, Outcome  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def short_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify-numeric",
                               "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        check(proc.returncode == 0, f"short run --trace {trace} exits 0 (stderr: {proc.stderr[-300:]!r})")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"] is True,
              f"--trace {trace}: result has the four keys and is correct")
        want = {m["name"]: m["unit"] for m in bench[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        check(got == want, f"--trace {trace}: every {key} metric is emitted with its unit ({len(want)})")


def _edit_json(text: str, edit) -> str:
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj, indent=2) + "\n"


def _edit_csv(text: str, column: str, value: str) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[0][column] = value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


TAMPER = {
    "main-terms": lambda t: _edit_json(t, lambda o: o.update(geom_equals_main=False)),
    "local-weights": lambda t: _edit_json(t, lambda o: o["table"][0].update(partial_r_sum="12345/7")),
    "local-tables": lambda t: _edit_csv(t, "W_level_oracle_delta", "1.000e-03"),
    "moments": lambda t: _edit_csv(t, "dU_abs_err", "2.000e-06"),
    "arch": lambda t: _edit_json(t, lambda o: o.update(oracle_delta=abs(complex(*o["W_plus"])) * 1e-3 + 1e-9)),
    "lattice": lambda t: _edit_json(t, lambda o: o["audits"].update(covering_ok=False)),
    "ntransform": lambda t: _edit_json(t, lambda o: o["result"].update(const=str(o["result"]["const"]) + "1")),
}


def tampered_outputs() -> None:
    cli, _ = child.import_package()
    os.makedirs(child.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=child.OUT_DIR)
    try:
        ops = workloads.build_ops("queries", 1, workdir)
        picked: list[Op] = []
        outcomes: list[Outcome] = []
        for kind in workloads.QUERY_MIX:
            # the first query of each kind that runs clean; ntransform as its oracle/closed pair
            for i, op in enumerate(ops):
                if op.kind != kind or op.pair not in (None, i):
                    continue
                group = ops[i:i + 2] if op.pair == i else [op]
                outs, _ = child.run_ops(cli, group)
                if all(o.rc == 0 for o in outs):
                    picked += group
                    outcomes += outs
                    break
        verdict = workloads.check_pass(picked, outcomes)
        check(verdict.correct and verdict.failed == 0, f"checker accepts real outputs of {len(picked)} queries")
        digest = workloads.pass_digest(picked, outcomes)
        for i, op in enumerate(picked):
            if op.kind == "ntransform" and "--closed" not in op.argv:
                continue  # tamper the closed half of each pair
            bad = list(outcomes)
            bad[i] = Outcome(0, TAMPER[op.kind](outcomes[i].stdout))
            v = workloads.check_pass(picked, bad)
            check(not v.correct and v.failed == 1, f"checker rejects a tampered {op.kind} output")
            check(workloads.pass_digest(picked, bad) != digest, f"digest changes with a tampered {op.kind} output")

        vop = workloads.build_ops("verify-exact", 1, workdir)[2]   # the orbital suite, the quickest
        (vout,), _ = child.run_ops(cli, [vop])
        check(workloads.check_pass([vop], [vout]).correct, "checker accepts a real verify output")
        name = vop.expect_checks[0]
        flipped = vout.stdout.replace(f"[PASS] {name}", f"[FAIL] {name}")
        check(not workloads.check_pass([vop], [Outcome(1, flipped)]).correct, "checker rejects a flipped [PASS]")
        dropped = "\n".join(l for l in vout.stdout.splitlines() if name not in l)
        check(not workloads.check_pass([vop], [Outcome(0, dropped)]).correct, "checker rejects a missing check")

        gate = Op("verify", [], expect_checks=("ntransform.closed-forms-exhaustive",))
        slow = Outcome(1, "[FAIL] ntransform.closed-forms-exhaustive: 2401 ideals x 5 functions, 0 failures, 10.42s\n")
        v = workloads.check_pass([gate], [slow])
        check(v.correct and v.failed == 0 and len(v.slow) == 1,
              "a check over only its own wall-clock gate is listed as slow, not failed")
        wrong = Outcome(1, slow.stdout.replace(" 0 failures", " 2 failures"))
        check(not workloads.check_pass([gate], [wrong]).correct, "a timed check with wrong values is wrong")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    tampered_outputs()
    short_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
