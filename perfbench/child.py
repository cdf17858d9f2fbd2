"""One pass of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 [--setup-only]

Imports ``rtfverify`` from ``src/`` of the checkout, draws the workload's
inputs, prints ``@@ready <host pace factor>`` (the parent times set-up up to
that line), then runs every operation through ``rtfverify.cli.main`` with
stdout captured and prints one ``@@result <json>`` line.  Every time it
reports is scaled by the host pace measured while it ran (see HostPace).
A traced pass also writes its spans to _out/spans-<workload>.csv.
``run.py`` starts it; it is not a benchmark on its own.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")


class HostPace:
    """Samples the host's speed while a pass runs.

    Every PERIOD_S of wall time a SIGALRM handler times a fixed pure-Python
    snippet: big-rational arithmetic, small dicts and tuples, and strided
    reads over 2 MB, so that it slows down as the exact kernel does when
    other tenants share the host's cores and caches.  The host's speed drifts
    by up to 1.5x within seconds, so a time spent under the sampler is
    reported scaled by ``factor``, the mean of REFERENCE_S / snippet time:
    the time the work would take on a host that runs the snippet in
    REFERENCE_S.  The raw wall time is reported beside it.
    """

    PERIOD_S = 0.05
    REFERENCE_S = 2e-3       # about the snippet's time on the tuning host, so factors stay near 1
    _SPAN = os.urandom(1 << 21)

    def __init__(self):
        self.samples: list[float] = []

    @classmethod
    def snippet(cls) -> None:
        acc, table = Fraction(1), {}
        for i in range(1, 150):
            acc = acc * Fraction(i + 1, i) + Fraction(1, i * i)
            table[i, i % 5] = tuple(sorted((i % 7, i % 3, i % 11)))
        total = 0
        for j in range(0, len(cls._SPAN), 509):
            total += cls._SPAN[j]

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.snippet()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:     # an interval shorter than one period
            self._tick(None, None)

    @property
    def factor(self) -> float:
        return sum(self.REFERENCE_S / c for c in self.samples) / len(self.samples)


def import_package():
    """Import rtfverify.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import rtfverify.cli as cli
    import_s = time.perf_counter() - t0
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"rtfverify imported from {where}, not from {SRC}")
    return cli, import_s


def run_ops(cli, ops):
    """Run each op through cli.main; return its outcomes and latencies."""
    outcomes, latencies = [], []
    for op in ops:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(op.argv))
            out = workloads.Outcome(rc, buf.getvalue())
        except SystemExit as exc:
            out = workloads.Outcome(exc.code if isinstance(exc.code, int) else 1, buf.getvalue(), f"SystemExit: {exc.code}")
        except Exception as exc:  # a raising query is a failed operation, not a crash of the pass
            out = workloads.Outcome(None, buf.getvalue(), f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        outcomes.append(out)
    return outcomes, latencies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR)
    try:
        with HostPace() as setup_pace:
            cli, import_s = import_package()
            ops = workloads.build_ops(args.workload, args.seed, workdir)
        # the parent times set-up up to this line and scales it by the factor
        print(f"@@ready {setup_pace.factor!r}", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer.install()
        with HostPace() as pace:
            t0 = time.perf_counter()
            outcomes, latencies = run_ops(cli, ops)
            raw_wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        verdict = workloads.check_pass(ops, outcomes)
        # name the per-pass input directory alike in every pass, so the lines match
        verdict.failures = [line.replace(workdir, "<inputs>") for line in verdict.failures]
        verdict.wrong = [line.replace(workdir, "<inputs>") for line in verdict.wrong]
        result = {
            "wall_s": raw_wall_s * pace.factor,
            "raw_wall_s": raw_wall_s,
            "pace_factor": pace.factor,
            "pace_samples": len(pace.samples),
            # a verify workload answers one query per pass: the run of its suites
            "latencies_s": [x * pace.factor for x in latencies] if ops[0].kind != "verify"
            else [raw_wall_s * pace.factor],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "digest": workloads.pass_digest(ops, outcomes),
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "wrong": verdict.wrong,
            "failures": verdict.failures,
            "extra_checks": verdict.extra_checks,
            "slow": verdict.slow,
        }
        if tracer is not None:
            layers = tracer.summary()
            layers = {k: v * pace.factor if k.endswith("_s") else v for k, v in layers.items()}
            result["layers"] = {**layers, "cli.import_s": import_s * setup_pace.factor}
            tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.csv"))
        print("@@result " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
