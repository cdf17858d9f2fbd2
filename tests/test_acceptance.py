"""Acceptance gate: every check of every `rtf verify` suite at seed 0.

Each check's seeds, grid and tolerance live in `rtfverify.verify`; run
`pytest -s tests/test_acceptance.py` (or `rtf verify`) to watch one line per
check.  Each suite runs once; the criterion tests name the checks that carry
criteria 1-10.  The benchmark's list of expected checks and the role of every
public definition are asserted here too.
"""
import ast
import functools
import re
from pathlib import Path

import pytest

from rtfverify import verify

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def _records(suite: str) -> dict[str, verify.CheckResult]:
    return {res.name: res for res in verify.SUITES[suite](seed=0)}


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite(suite):
    results = _records(suite).values()
    for res in results:
        print(res.line())
    failed = [res.line() for res in results if not res.ok]
    assert not failed, "\n".join(failed)


def _assert_checks(*names: str):
    results = [_records(name.split(".")[0])[name] for name in names]
    failed = [res.line() for res in results if not res.ok]
    assert not failed, "\n".join(failed)


def test_criterion_1_inversion_roundtrip():
    _assert_checks("ntransform.inversion-roundtrip-200")


def test_criterion_2_closed_forms_exhaustive():
    _assert_checks("ntransform.closed-forms-exhaustive")


def test_criterion_3_rz_and_derivative():
    _assert_checks("weights.rz-closed-vs-sum", "weights.partial-r-exact-and-fd")


def test_criterion_4_unipotent_contour():
    _assert_checks("unipotent.closed-vs-contour", "unipotent.kernel-identity-exact")


def test_criterion_5_measure_moments():
    _assert_checks("unipotent.measure-moments")


def test_criterion_6_local_orbital_exact():
    _assert_checks("orbital.w-unramified-exact", "orbital.w-level-exact", "orbital.w-ramified-bound")


def test_criterion_7_archimedean():
    _assert_checks("arch.w-plus-closed-vs-quadrature", "arch.j-functional-equation", "arch.j-legendre-value")


def test_arch_reports_the_measured_error():
    # the relative error where W_+ != 0 is printed as measured, not floored to 0;
    # the vanishing point b = -1/2 is reported apart, as an absolute error
    detail = _records("arch")["arch.w-plus-closed-vs-quadrature"].detail
    rel = float(re.search(r"max rel err (\S+) where W_\+ != 0", detail).group(1))
    assert 0 < rel <= 1e-6
    assert re.search(r"abs err \S+ at b = -1/2$", detail)


def test_criterion_8_lattice():
    _assert_checks("lattice.theta-Z-weight-4", "lattice.sphere-I-closed-vs-quad",
                   "lattice.theta-estimate-bounded", "lattice.minkowski-sandwich")


def test_criterion_9_assembly_identity():
    _assert_checks("assembly.headline-identity-50", "assembly.degenerate-terms")


def test_criterion_10_fI_slope():
    _assert_checks("lattice.fI-slope")


@functools.cache
def _benchmark_expected_checks() -> dict[str, tuple[str, ...]]:
    # the literal from perfbench/workloads.py, read without running the benchmark
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "EXPECTED_CHECKS" for t in node.targets))


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite_records_every_benchmarked_check(suite):
    # a subset, so that a suite may gain checks before the benchmark lists them
    missing = set(_benchmark_expected_checks()[suite]) - set(_records(suite))
    assert not missing, sorted(missing)


# Public definitions that no command reaches: each is the reference a unit
# test compares a reached closed form against.
TEST_ORACLES = {
    "orbital_arch.j_plus_quad",         # j_plus_parts
    "orbital_arch.f21_series_oracle",   # gauss_2f1
    "testfns.laurent_alpha_pn",         # decompose_alpha
    "testfns.laurent_decomposition",    # decompose_alpha
}


def test_every_public_definition_has_a_role():
    """Reachability from `rtf` (cli.main) and from every verify suite, by name:
    a reached definition reaches each module-level def, class or assignment
    of any module that is named by an identifier or attribute in its source.
    Every public def or class that stays unreached must be a test oracle."""
    nodes = {}
    for path in sorted((ROOT / "src" / "rtfverify").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes.setdefault(node.name, []).append((path.stem, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            nodes.setdefault(name.id, []).append((path.stem, node))
    todo = [node for name, defs in nodes.items() for mod, node in defs
            if (mod, name) == ("cli", "main") or (mod == "verify" and name.startswith("suite_"))]
    reached = set()
    while todo:
        node = todo.pop()
        if id(node) in reached:
            continue
        reached.add(id(node))
        for sub in ast.walk(node):
            name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
            todo.extend(found for _mod, found in nodes.get(name, ()))
    unreached = {f"{mod}.{node.name}" for defs in nodes.values() for mod, node in defs
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                 and id(node) not in reached}
    assert unreached == TEST_ORACLES, (f"in no role: {sorted(unreached - TEST_ORACLES)}; "
                                       f"reached, so not a test oracle: {sorted(TEST_ORACLES - unreached)}")
