"""Acceptance gate: every check of every `rtf verify` suite at seed 0.

Each check's seeds, grid and tolerance live in `rtfverify.verify`; run
`pytest -s tests/test_acceptance.py` (or `rtf verify`) to watch one line per
check.  Each suite runs once; the criterion tests name the checks that carry
criteria 1-10.  The benchmark's list of expected checks and the role of every
public definition are asserted here too.
"""
import ast
import csv
import functools
import io
import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

from rtfverify import cli, lattice, ntransform, orbital_arch, spectral, testfns, verify
from rtfverify.formal import FormalLog

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


def _scaled_pair(original):
    """original with the (numerator, denominator) pair it returns scaled by 1 + 1e-4."""
    def mutant(*args):
        num, den = original(*args)
        return num * 10001, den * 10000
    return mutant


def _scaled_log_pair(original):
    def mutant(n):
        nums, den = original(n)
        return {sym: c * 10001 for sym, c in nums.items()}, den * 10000
    return mutant


def _scaled_at_t2(original):
    scaled = _scaled_pair(original)
    return lambda n, t, sign: scaled(n, t, sign) if t == 2 else original(n, t, sign)


# Each a mutant of what closed-forms-exhaustive reads: the closed-log integer
# form, the summand as verify imports it, the t = 2 power pair (each x(1 + 1e-4)),
# and the box's weight at e = 2, read at the e > 2 denominator q^2 in place of q(q - 1).
EXHAUSTIVE_MUTANTS = {
    "closed_log": (ntransform, "_closed_log_pair", _scaled_log_pair),
    "verify.log_norm": (verify, "log_norm", lambda original: lambda n: original(n) * Fraction(10001, 10000)),
    "closed_pair-t2": (ntransform, "_closed_pair", _scaled_at_t2),
    "box-removal_denom-e2": (ntransform, "_removal_denom",
                             lambda original: lambda q, e: q * q if e == 2 else original(q, e)),
}


@pytest.mark.parametrize("owner, name, mutant", EXHAUSTIVE_MUTANTS.values(), ids=list(EXHAUSTIVE_MUTANTS))
def test_closed_forms_exhaustive_catches_a_scaled_log(owner, name, mutant, monkeypatch):
    """Each mutant of EXHAUSTIVE_MUTANTS fails the check: its closed forms and
    its table of summand values are read through the patched names."""
    monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
    res = {r.name: r for r in verify.suite_ntransform(seed=0)}["ntransform.closed-forms-exhaustive"]
    assert not res.ok and int(re.search(r"(\d+) failures", res.detail).group(1)) > 0, res.line()


def test_criterion_3_rz_and_derivative():
    _assert_checks("weights.rz-closed-vs-sum", "weights.partial-r-exact-and-fd")


@pytest.mark.parametrize("name", ["_r_z_pair", "_r_z_sum_pair"])
def test_rz_check_catches_a_scaled_pair(name, monkeypatch):
    """A x(1 + 1e-4) mutant of either integer pair the check compares fails it."""
    monkeypatch.setattr(spectral, name, _scaled_pair(getattr(spectral, name)))
    res = {r.name: r for r in verify.suite_weights(seed=0)}["weights.rz-closed-vs-sum"]
    assert not res.ok and int(re.search(r"(\d+) failures", res.detail).group(1)) > 0, res.line()


def test_criterion_4_unipotent_contour():
    _assert_checks("unipotent.closed-vs-contour", "unipotent.kernel-identity-exact")


def test_kernel_identity_catches_a_scaled_upsilon(monkeypatch):
    """A x(1 + 1e-4) mutant of the one Upsilon form, which the contour
    integrates, fails the exact identity: both sides are the forms that run."""
    original = testfns._upsilon_y
    monkeypatch.setattr(testfns, "_upsilon_y", lambda eta_val, Y: original(eta_val, Y) * (
        Fraction(10001, 10000) if isinstance(Y, Fraction) else 1 + 1e-4))
    res = {r.name: r for r in verify.suite_unipotent(seed=0)}["unipotent.kernel-identity-exact"]
    assert not res.ok, res.line()


def test_kernel_identity_names_its_first_failing_point(monkeypatch):
    """A dU kernel mutant at Y = 19/5 alone fails the exact identity at both
    characters; the detail counts the comparisons and names the first."""
    original = testfns._dunip_y
    monkeypatch.setattr(testfns, "_dunip_y",
                        lambda c, eta_val, Y: original(c, eta_val, Y) + (Y == Fraction(19, 5)))
    res = {r.name: r for r in verify.suite_unipotent(seed=0)}["unipotent.kernel-identity-exact"]
    assert not res.ok and res.detail == "26 exact comparisons, 2 failures, first at eta=-1, Y=19/5", res.line()


def test_closed_u_moment_is_the_one_that_runs(monkeypatch, capsys):
    """A x(1 + 1e-4) mutant of testfns.unip_u fails the contour check and
    moves the U_closed that `rtf moments` prints."""
    argv = ["moments", "--q", "3", "--eta", "-1", "--n", "0..2"]
    assert cli.main(argv) == 0
    before = [row["U_closed"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
    original = testfns.unip_u
    monkeypatch.setattr(testfns, "unip_u", lambda q, eta_val, n: original(q, eta_val, n) * (1 + 1e-4))
    res = {r.name: r for r in verify.suite_unipotent(seed=0)}["unipotent.closed-vs-contour"]
    assert not res.ok, res.line()
    assert cli.main(argv) == 0
    after = [row["U_closed"] for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
    assert after == [f"{original(3, -1, n) * (1 + 1e-4):.12g}" for n in range(3)] != before


def test_unipotent_suite_integrates_each_contour_value_once(monkeypatch):
    """Every (q, sigma, kernel, eta, alpha) that suite_unipotent puts on the
    contour is integrated once: linearity reads closed-vs-contour's rows."""
    original = testfns.period_integrals
    keys = []

    def recorded(kernels, q, alphas, sigma=0.7):
        keys.extend((q, sigma, kernel.__name__, eta_val, alpha.__name__)
                    for kernel, eta_val in kernels for alpha in alphas)
        return original(kernels, q, alphas, sigma=sigma)

    monkeypatch.setattr(testfns, "period_integrals", recorded)
    assert all(res.ok for res in verify.suite_unipotent(seed=0))
    twice = [key for key in set(keys) if keys.count(key) > 1]
    assert len(keys) == len(set(keys)) == 174, twice


# At n = 0 the U-moments are U(alpha_[p^0]) = -1 and U(alpha^(0)) = -2, so
# dropping the one m leaves a gap of |-1 - 1| = 2, and dropping the constant
# one of |-1 - (-2)| = 1.
@pytest.mark.parametrize("mutant, gap", [
    (lambda ms, const: (ms[:-1], const), 2.0),    # the last m dropped
    (lambda ms, const: (ms, 0), 1.0),             # the constant -delta(n even) dropped
], ids=["drop-last-m", "drop-constant"])
def test_linearity_catches_a_wrong_decomposition(monkeypatch, mutant, gap):
    """A decompose_alpha that loses a term fails the linearity check; the
    constant term shows in the U rows alone, since dU of alpha^(0) is 0."""
    original = testfns.decompose_alpha
    monkeypatch.setattr(testfns, "decompose_alpha", lambda n: mutant(*original(n)))
    res = {r.name: r for r in verify.suite_unipotent(seed=0)}["unipotent.linearity-via-decomposition"]
    got = float(re.search(r"max gap (\S+) \(at q=\d+, eta=-?1, n=0 \(U\)\)$", res.detail).group(1))
    assert not res.ok and got == pytest.approx(gap, abs=1e-9), res.line()


def test_criterion_5_measure_moments():
    _assert_checks("unipotent.measure-moments")


def test_criterion_6_local_orbital_exact():
    _assert_checks("orbital.w-unramified-exact", "orbital.w-level-exact", "orbital.w-ramified-bound")


def test_criterion_7_archimedean():
    _assert_checks("arch.w-plus-closed-vs-quadrature", "arch.j-functional-equation", "arch.j-legendre-value",
                   "arch.j-closed-vs-quadrature")


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


def _shifted_every_other_call(original):
    calls = itertools.count()
    return lambda self, bindings=None: original(self, bindings) + next(calls) % 2


@pytest.mark.parametrize("mutant", [lambda original: lambda self, bindings=None: math.nan,
                                    _shifted_every_other_call], ids=["nan", "shifted"])
def test_headline_identity_gates_its_float_gap(mutant, monkeypatch):
    """A FormalLog.evaluate that returns NaN, or that adds 1 to every other
    value (so one side of each config), fails the check, which names the
    config it was worst at."""
    monkeypatch.setattr(FormalLog, "evaluate", mutant(FormalLog.evaluate))
    res = verify.suite_assembly(seed=0)[0]
    assert res.name == "assembly.headline-identity-50"
    assert not res.ok and re.search(r"float gap (nan|1\.0e\+00) \(at config \d+\)", res.detail), res.line()


def test_criterion_10_fI_slope():
    _assert_checks("lattice.fI-slope")


@pytest.mark.parametrize("rows, index", [
    ([(math.nan, "a"), (2.0, "b"), (1.0, "c")], 0),
    ([(1.0, "a"), (math.nan, "b"), (2.0, "c")], 1),
    ([(1.0, "a"), (2.0, "b"), (math.nan, "c")], 2),
    ([(math.inf, "a"), (math.nan, "b"), (math.nan, "c")], 1),
    ([(2.0, "a"), (1.0, "b"), (2.0, "c")], 0),
], ids=["nan-first", "nan-middle", "nan-last", "first-nan-above-inf", "first-of-equal"])
def test_worst_ranks_nan_above_every_number(rows, index):
    assert verify._worst(iter(rows)) is rows[index]


def test_worst_of_no_rows():
    assert verify._worst([]) == (0.0, None)


@pytest.mark.parametrize("scale", [1.0, 1e3, math.nan], ids=["holds", "fails", "nan"])
def test_a_gate_names_its_input_only_on_failure(monkeypatch, scale):
    """A `<=` gate through _gate, and the strict gate of arch.j-decay-envelope,
    print their worst error alone where it holds; a larger error, or a NaN,
    fails and is followed by the input it was worst at."""
    fails = not scale <= 1
    ok, text = verify._gate(1.0, [(0.5, "a"), (0.5 * scale, "b")], ".3f")
    assert (ok, text) == (not fails, f"{0.5 * scale:.3f}" + (" (at b)" if fails else ""))
    original = orbital_arch.j_arch_bound_envelope
    monkeypatch.setattr(orbital_arch, "j_arch_bound_envelope", lambda *args: original(*args) / scale)
    res = {r.name: r for r in verify.suite_arch(seed=0)}["arch.j-decay-envelope"]
    at = r" \(at k=\d+, b=\S+, eps=\S+\)" if fails else ""
    assert res.ok is not fails and re.fullmatch(r"fitted constant (nan|\d+\.\d\d)" + at, res.detail), res.line()


def _times(value, factor):
    """value with every number times factor, in the same nesting of lists and tuples."""
    if isinstance(value, (list, tuple)):
        return type(value)(_times(item, factor) for item in value)
    return value * factor


NAN_ORACLES = [
    (orbital_arch, "w_plus_quads", "arch.w-plus-closed-vs-quadrature"),
    (orbital_arch, "j_arch_quads", "arch.j-functional-equation"),
    (orbital_arch, "j_arch_quads", "arch.j-closed-vs-quadrature"),
    (lattice, "sphere_I_quad", "lattice.sphere-I-closed-vs-quad"),
    (testfns, "period_integrals", "unipotent.closed-vs-contour"),
    (testfns, "st_moments", "unipotent.measure-moments"),
]


@pytest.mark.parametrize("owner, oracle, check", NAN_ORACLES, ids=[check for *_, check in NAN_ORACLES])
def test_a_nan_oracle_fails_its_check(monkeypatch, owner, oracle, check):
    """An oracle that returns NaN in place of every value fails its check,
    which prints nan and the input it was worst at: each fold ranks a NaN
    error above every number."""
    original = getattr(owner, oracle)
    monkeypatch.setattr(owner, oracle, lambda *args, **kwargs: _times(original(*args, **kwargs), math.nan))
    res = {r.name: r for r in verify.SUITES[check.split(".")[0]](seed=0)}[check]
    assert not res.ok and re.search(r"\bnan \(at \w+", res.detail), res.line()


# each value times 0, or times inf, and the detail its check then prints
ZERO_OR_INF = [
    (lattice, "sphere_I", 0.0, "lattice.sphere-I-closed-vs-quad", r"max rel err inf \(at lambda=\(.+\)\)"),
    (lattice, "theta_envelope", math.inf, "lattice.theta-estimate-bounded",
     r"NZ slope nan \(at N=1\), sqrt2-chain slope nan \(at \(sqrt 2\)\^0\)"),
    (lattice, "fI_rational", 0.0, "lattice.fI-slope", r"fitted exponent nan <= -1\.9"),
    (lattice, "w_hyp_arch_audit", 0.0, "lattice.w-hyp-arch-slope", r"fitted exponent nan <= -1\.9"),
    (lattice, "phi_spheres", 0.0, "lattice.phi-mellin-slope", r"slope nan vs -4\.000"),
    (orbital_arch, "w_plus_quads", 0.0, "arch.w-plus-closed-vs-quadrature",
     r"18 pairs, max rel err inf \(at l=\d+, b=\S+\) where W_\+ != 0, abs err \S+ at b = -1/2"),
    (orbital_arch, "j_arch_bound_envelope", 0.0, "arch.j-decay-envelope",
     r"fitted constant inf \(at k=\d+, b=\S+, eps=\S+\)"),
]


@pytest.mark.parametrize("owner, name, factor, check, detail", ZERO_OR_INF,
                         ids=[f"{name}-{factor}" for _owner, name, factor, *_ in ZERO_OR_INF])
def test_a_zero_or_inf_fails_its_check(monkeypatch, owner, name, factor, check, detail):
    """A function that returns 0 or inf in place of every value fails its
    check with a line, where a quotient or a log of it once ended the suite
    in a traceback: each gate quotient goes through verify._ratio and each
    fitted log through verify._log."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: _times(original(*args, **kwargs), factor))
    res = {r.name: r for r in verify.SUITES[check.split(".")[0]](seed=0)}[check]
    assert not res.ok and re.fullmatch(detail, res.detail), res.line()


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


SRC = ROOT / "src" / "rtfverify"


@functools.cache
def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _methods(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    return [node for node in cls.body if isinstance(node, ast.FunctionDef)]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


# Public definitions that no command reaches: each is the reference a unit
# test compares a reached closed form against.
TEST_ORACLES = {
    "orbital_arch.j_plus_quad",         # j_plus_parts
    "testfns.laurent_alpha_pn",         # decompose_alpha
    "testfns.laurent_decomposition",    # decompose_alpha
    "testfns.upsilon_over_unip_kernel", # dunip_kernel
    "orbital_local.tilde_delta_oracle", # tilde_delta; the tilde-I oracle sums its integer core
}
# Public methods that no command reaches, each kept for one unit test.
TEST_REFERENCE_METHODS = {
    "ideals.Ideal.divisors",            # _reference_convolve in test_ntransform
    "ideals.Ideal.pow",                 # _reference_convolve in test_ntransform
    "formal.FormalLog.from_json",       # the to_json round trip
}
# Public helpers that no command reaches, each kept for one test reference
# and named by the counted primitives of perfbench/tracer.py, whose install
# fails on a missing name.
TEST_REFERENCE_HELPERS = {
    "ideals.stratum",                   # _reference_subset_sum in test_ntransform
}


@functools.cache
def _definitions() -> dict[str, list[tuple[str, ast.AST]]]:
    """Name -> the (owner, node) pairs that define it: each module-level def,
    class or assignment, and each method that is not a dunder (its owner is
    module.Class)."""
    nodes: dict = {}
    for mod, tree in _modules().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes.setdefault(node.name, []).append((mod, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            nodes.setdefault(name.id, []).append((mod, node))
            if isinstance(node, ast.ClassDef):
                for method in _methods(node):
                    if not _is_dunder(method.name):
                        nodes.setdefault(method.name, []).append((f"{mod}.{node.name}", method))
    return nodes


def _reached(roots: list[ast.AST]) -> set[int]:
    """The ids of the definition nodes that roots reach, roots included, by
    name: a reached definition reaches every definition of each identifier
    or attribute in its source.  A reached class brings its class body and
    its dunder methods, which Python calls for it."""
    nodes = _definitions()
    todo = list(roots)
    reached = set()
    while todo:
        node = todo.pop()
        if id(node) in reached:
            continue
        reached.add(id(node))
        own = set()
        if isinstance(node, ast.ClassDef):   # its methods are reached by name, not with the class
            own = {id(m) for m in _methods(node) if not _is_dunder(m.name)}
        stack = [node]
        while stack:
            sub = stack.pop()
            stack.extend(child for child in ast.iter_child_nodes(sub) if id(child) not in own)
            name = sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else None
            todo.extend(found for _mod, found in nodes.get(name, ()))
    return reached


def test_every_public_definition_has_a_role():
    """Reachability (see _reached) from `rtf` (cli.main) and from every
    verify suite.  Every public def, class or method that stays unreached
    must be a test reference."""
    nodes = _definitions()
    reached = _reached([node for name, defs in nodes.items() for mod, node in defs
                        if (mod, name) == ("cli", "main") or (mod == "verify" and name.startswith("suite_"))])
    unreached = {f"{mod}.{node.name}" for defs in nodes.values() for mod, node in defs
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                 and id(node) not in reached}
    kept = TEST_ORACLES | TEST_REFERENCE_METHODS | TEST_REFERENCE_HELPERS
    assert unreached == kept, (f"in no role: {sorted(unreached - kept)}; "
                               f"reached, so not a test reference: {sorted(kept - unreached)}")


# Each (closed form, oracle) pair of a check, with the module-level defs and
# classes, outside `errors`, that both reach: input guards, the data classes
# they share (FormalLog, Ideal, LocalPoint, ...) and the defining sums of the
# transform pair.  Every q is checked by ideals.residue_cardinality, which
# Prime and LocalRepData call too.
_LOCAL_LOG = {"formal.FormalLog", "formal._factor_small", "formal._log_terms", "formal._promote",
              "ideals.residue_cardinality", "orbital_local.LocalPoint"}
INDEPENDENT_PAIRS = {
    ("lattice.sphere_I", "lattice.sphere_I_quad"): {"lattice._check_lambda"},
    ("orbital_arch.w_plus", "orbital_arch.w_plus_quads"): {"orbital_arch._check_b", "orbital_arch._check_weight"},
    ("orbital_arch.j_arch", "orbital_arch.j_arch_quads"): {"orbital_arch._check_b", "orbital_arch._check_weight"},
    ("orbital_arch.j_plus_parts", "orbital_arch.j_plus_quad"): {"orbital_arch._check_b"},
    ("orbital_local.w_unramified", "orbital_local.w_unramified_oracle"): _LOCAL_LOG,
    ("orbital_local.w_level", "orbital_local.w_level_oracle"): _LOCAL_LOG | {"orbital_local._check_ordn"},
    ("orbital_local.tilde_I_plus_scaled", "orbital_local.tilde_I_plus_oracle_scaled"): {
        "orbital_local.LocalPoint", "orbital_local.eta_at"},
    ("orbital_local.tilde_delta", "orbital_local.tilde_delta_oracle"): {"orbital_local.LocalPoint",
                                                                      "orbital_local.eta_at"},
    ("ntransform.closed_power", "ntransform.n_transform"): {"ideals.Ideal", "ideals.Prime",
                                                            "ideals.residue_cardinality"},
    ("ntransform.closed_log", "ntransform.n_transform"): {"formal.FormalLog", "formal._promote", "ideals.Ideal",
                                                          "ideals.Prime", "ideals.residue_cardinality"},
    ("ntransform.n_plus_closed_power", "ntransform.n_plus"): {"ideals.Ideal", "ideals.Prime",
                                                              "ideals.residue_cardinality"},
    ("ntransform.convolve_omega", "ntransform.n_transform"): {"formal.FormalLog", "formal._promote", "ideals.Ideal",
                                                              "ideals.Prime", "ideals.residue_cardinality",
                                                              "ntransform._weighted_sum"},
    ("ntransform.closed_power", "ntransform.n_transform_box"): {"ideals.Ideal", "ideals.Prime",
                                                                "ideals.residue_cardinality"},
    ("ntransform.closed_log", "ntransform.n_transform_box"): {"formal.FormalLog", "formal._promote", "ideals.Ideal",
                                                              "ideals.Prime", "ideals.residue_cardinality"},
    ("ntransform._closed_pair", "ntransform.n_transform_box"): {"ideals.Ideal", "ideals.Prime",
                                                                "ideals.residue_cardinality"},
    ("ntransform._closed_log_pair", "ntransform.n_transform_box"): {"ideals.Ideal", "ideals.Prime",
                                                                    "ideals.residue_cardinality"},
    ("spectral.r_z", "spectral.r_z_sum"): {"ideals.residue_cardinality", "spectral.LocalRepData",
                                           "spectral._check_k", "spectral._check_r_z_args"},
    ("spectral._r_z_pair", "spectral._r_z_sum_pair"): {"ideals.residue_cardinality", "spectral.LocalRepData",
                                                       "spectral._check_k", "spectral._check_r_z_args"},
    ("spectral.partial_r", "spectral.partial_r_sum"): {"ideals.residue_cardinality", "spectral.LocalRepData",
                                                       "spectral._check_k"},
    ("spectral.w_and_dw", "spectral.w_and_dw_oracle"): {"formal.FormalLog", "formal._factor_small",
                                                        "formal._log_terms", "formal._promote", "ideals.Ideal",
                                                        "ideals.Prime", "ideals.QuadCharData",
                                                        "ideals.residue_cardinality", "spectral.LocalRepData",
                                                        "spectral._check_inert"},
    ("testfns.unip_u_scaled", "testfns.period_integrals"): set(),
    ("testfns.unip_du_scaled", "testfns.period_integrals"): set(),
    ("testfns.unip_u", "testfns.period_integrals"): set(),
    ("testfns.unip_du", "testfns.period_integrals"): set(),
    ("testfns.kernel_identity_lhs", "testfns.kernel_identity_rhs"): set(),
    ("testfns.dunip", "testfns.period_integrals"): set(),
    ("testfns.st_moment_expected", "testfns.st_moments"): set(),
    ("testfns.decompose_alpha", "testfns.laurent_alpha_pn"): set(),
    # both read log norm(f_eta) from its exponents (ntransform.log_norm) and
    # log q from the per-q symbol cache formal._log_terms, and both sum
    # their terms by FormalLog._sum: symbols and the summing, not a main term
    ("assembly.main_ADL_bracket", "assembly.geom_kernel_bracket"): {
        "assembly._require_class", "formal.FormalLog", "formal._factor_small", "formal._log_terms",
        "formal._promote", "ideals.Ideal", "ideals.Prime", "ideals.QuadCharData", "ideals.residue_cardinality",
        "ideals.sign_class", "ntransform.log_norm"},
}


@pytest.mark.parametrize("closed, oracle", list(INDEPENDENT_PAIRS))
def test_closed_form_and_oracle_are_independent(closed, oracle):
    """Neither definition of a pair reaches the other (see _reached), and
    the helpers they share are the listed ones."""
    top = {f"{mod}.{name}": node for name, defs in _definitions().items() for mod, node in defs
           if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and "." not in mod and mod != "errors"}
    from_closed, from_oracle = _reached([top[closed]]), _reached([top[oracle]])
    assert id(top[oracle]) not in from_closed and id(top[closed]) not in from_oracle
    both = from_closed & from_oracle
    shared = {qual for qual, node in top.items() if id(node) in both}
    assert shared == INDEPENDENT_PAIRS[closed, oracle]


# The one default that no call in src/ sets: the argv of the entry point,
# which the console script leaves to sys.argv.
UNSET_DEFAULTS = {("cli.main", "argv")}


def _signatures() -> dict[str, list[tuple[str, list[str], set[str]]]]:
    """Callee name -> (qualified name, positional parameters, defaulted ones).
    A class is called by its name: a dataclass with its fields, any other
    with its __init__ less self.  A method is called as an attribute, so its
    first parameter (self or cls) is bound unless it is a staticmethod."""
    def params(fn: ast.FunctionDef, bound: bool) -> tuple[list[str], set[str]]:
        pos = [a.arg for a in fn.args.posonlyargs + fn.args.args][bound:]
        dflt = set(pos[len(pos) - len(fn.args.defaults):]) if fn.args.defaults else set()
        dflt |= {a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None}
        return pos, dflt

    def decorated(node, name: str) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id == name
                   for d in node.decorator_list for sub in ast.walk(d))

    sigs: dict = {}
    for mod, tree in _modules().items():
        methods = set()
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            if decorated(cls, "dataclass"):
                fields = [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                sigs.setdefault(cls.name, []).append(
                    (f"{mod}.{cls.name}", [f.target.id for f in fields],
                     {f.target.id for f in fields if f.value is not None}))
            for fn in _methods(cls):
                methods.add(id(fn))
                sigs.setdefault(cls.name if fn.name == "__init__" else fn.name, []).append(
                    (f"{mod}.{cls.name}.{fn.name}", *params(fn, not decorated(fn, "staticmethod"))))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and id(fn) not in methods:
                sigs.setdefault(fn.name, []).append((f"{mod}.{fn.name}", *params(fn, False)))
    return sigs


def test_every_default_is_set_by_a_caller():
    """Each defaulted parameter of a def, method or dataclass field in
    src/rtfverify is passed, by position or keyword, by some call in
    src/rtfverify; a default that every caller leaves alone is a constant.
    Calls are matched to callees by name; `cls(...)` inside a class calls
    that class; a call with *args or **kwargs passes every parameter; and
    `SUITES[name](seed)` calls every suite_*."""
    sigs = _signatures()
    passed = set()
    for tree in _modules().values():
        owner = {id(sub): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for sub in ast.walk(cls)}
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            if isinstance(func, ast.Name):
                names = [owner.get(id(call), "cls") if func.id == "cls" else func.id]
            elif isinstance(func, ast.Attribute):
                names = [func.attr]
            elif isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name) and func.value.id == "SUITES":
                names = [name for name in sigs if name.startswith("suite_")]
            else:
                continue
            star = (any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg is None for k in call.keywords))
            for name in names:
                for qual, pos, dflt in sigs.get(name, ()):
                    passed.update((qual, p) for p in (dflt if star else pos[:len(call.args)]))
                    passed.update((qual, k.arg) for k in call.keywords if k.arg)
    unset = {(qual, p) for defs in sigs.values() for qual, _pos, dflt in defs for p in dflt} - passed
    assert unset == UNSET_DEFAULTS, (f"defaults no caller sets: {sorted(unset - UNSET_DEFAULTS)}; "
                                     f"set after all: {sorted(UNSET_DEFAULTS - unset)}")
