"""rtfverify benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-exact|verify-numeric|queries \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
Each pass of the workload's fixed work runs in a fresh interpreter
(perfbench/child.py), one at a time, so no pass inherits another's caches.
Passes repeat until --seconds is spent, at least two of them; their outputs
must match byte for byte.  Set-up time is sampled on every pass and on extra
set-up-only launches.  Every time is scaled to a reference host pace (see
child.HostPace); raw pass times are printed beside the scaled ones.

With --trace 0 the result carries every end-to-end metric of BENCHMARK.json;
with --trace 1 untraced and traced passes alternate and it carries every
per-layer metric.  The last line of stdout is the result object; the line
before it is the run's provenance.  Exit status 1 means the correctness gate
failed, 2 that the run could not be made.  ``--workload all`` runs every
workload in turn, each with its own block of output.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import re
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "_out")
SETUP_SAMPLES = 5        # set-up launches per run, pass children included
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0      # a run must end within 180 s


class RunError(Exception):
    pass


def run_child(workload: str, seed: int, traced: bool, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start one child; return (launch-to-ready seconds, its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if setup_only:
        cmd.append("--setup-only")
    child_deadline = min(time.monotonic() + CHILD_TIMEOUT_S, deadline)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        out, setup_s = b"", None
        while setup_s is None:  # the child prints @@ready once its inputs exist
            left = child_deadline - time.monotonic()
            if left <= 0:
                raise RunError(f"{workload} child not ready in time")
            if select.select([proc.stdout], [], [], left)[0]:
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                out += chunk
                ready = re.search(rb"^@@ready (\S+)\n", out, re.MULTILINE)
                if ready:
                    setup_s = (time.perf_counter() - t0) * float(ready.group(1))
        rest, _ = proc.communicate(timeout=max(0.1, child_deadline - time.monotonic()))
        out += rest
    except subprocess.TimeoutExpired:
        raise RunError(f"pass of {workload} did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.decode(errors="replace").splitlines()
    result = None
    for line in lines:
        if line.startswith("@@result "):
            result = json.loads(line[len("@@result "):])
    if setup_s is None or proc.returncode != 0 or (result is None and not setup_only):
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        raise RunError(f"child for {workload} exited {proc.returncode} without a result")
    return setup_s, result


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def git_commit() -> str | None:
    """HEAD of the checkout from .git/ itself (a checkout may have none)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, passes: list[dict], query_samples: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath", "sympy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": bool(args.trace),
        "passes": len(passes),
        "queries_per_pass": len(passes[0]["latencies_s"]),
        "query_samples": query_samples,
    }


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def measure(args, deadline: float) -> tuple[list[dict], list[dict], list[float]]:
    """Run passes until --seconds is spent; return (untraced, traced, set-up samples)."""
    untraced, traced, setups = [], [], []
    t_start = time.monotonic()
    k = 0
    while True:
        trace_this = bool(args.trace) and k % 2 == 1
        setup_s, res = run_child(args.workload, args.seed, trace_this, False, deadline)
        setups.append(setup_s)
        (traced if trace_this else untraced).append(res)
        k += 1
        elapsed = time.monotonic() - t_start
        enough = k >= 2 and (elapsed + elapsed / k > args.seconds)
        if enough or time.monotonic() + elapsed / k > deadline - 20:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES and time.monotonic() < deadline - 10:
        setups.append(run_child(args.workload, args.seed, False, True, deadline)[0])
    return untraced, traced, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in [w["name"] for w in load_benchmark()["workloads"]]:
        print(f"== {name}")
        status = max(status, run_workload(argparse.Namespace(**{**vars(args), "workload": name})))
    return status


def run_workload(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        bench = load_benchmark()
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise RunError(f"unknown workload {args.workload!r}")
        if not os.path.isfile(os.path.join(ROOT, "src", "rtfverify", "cli.py")):
            raise RunError(f"no rtfverify sources under {os.path.join(ROOT, 'src')}")
        os.makedirs(OUT_DIR, exist_ok=True)
        untraced, traced, setups = measure(args, deadline)
    except (RunError, OSError, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    passes = untraced + traced
    digests = {p["digest"] for p in passes}
    wrong = sorted({w for p in passes for w in p["wrong"]})
    if len(digests) > 1:
        wrong.append(f"passes disagree: {len(digests)} distinct output digests over {len(passes)} passes")
    # Every pass repeats the same operations and must print the same outputs,
    # so an operation is counted once, however many passes the run made; an
    # operation that failed in any pass counts as failed.
    attempted = max(p["attempted"] for p in passes)
    failed = max(p["failed"] for p in passes)
    slow = sorted({line for p in passes for line in p["slow"]})

    latencies = [x for p in untraced for x in p["latencies_s"]]
    if args.trace:
        specs = bench["per_layer"]
        values = {}
        for spec in specs:
            name = spec["name"]
            if name == "trace_overhead_ratio":
                values[name] = (statistics.median(p["wall_s"] for p in traced)
                                / statistics.median(p["wall_s"] for p in untraced))
            else:
                values[name] = statistics.median_low(p["layers"].get(name, 0) for p in traced)
    else:
        specs = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "query_p50_ms": 1000 * nearest_rank(latencies, 50),
            "query_p90_ms": 1000 * nearest_rank(latencies, 90),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
        }
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}

    for line in sorted({line for p in passes for line in p["failures"]}):
        print(f"failed operation: {line}")
    for line in slow:
        print(f"wall-clock gate missed (host speed, not counted as failed): {line}")
    for name in sorted({name for p in passes for name in p["extra_checks"]}):
        print(f"extra check (not in the expected list): {name}")
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g} "
          f"(operations of one pass, repeated by {len(passes)} passes); "
          f"query samples = {len(latencies)}, setup samples = {len(setups)}, "
          f"pass walls = {[round(p['wall_s'], 3) for p in passes]} "
          f"(raw {[round(p['raw_wall_s'], 3) for p in passes]})")
    print(json.dumps({"provenance": {**provenance(args, passes, len(latencies)), "wall_clock_gate_misses": len(slow)}}))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
