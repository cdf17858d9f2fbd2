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
    "orbital_arch.f21_series_oracle",   # gauss_2f1
    "testfns.laurent_alpha_pn",         # decompose_alpha
    "testfns.laurent_decomposition",    # decompose_alpha
    "testfns.upsilon_over_unip_kernel", # dunip_kernel
}
# Public methods that no command reaches, each kept for one unit test.
TEST_REFERENCE_METHODS = {
    "ideals.Ideal.divisors",            # _reference_convolve in test_ntransform
    "ideals.Ideal.pow",                 # _reference_convolve in test_ntransform
    "formal.FormalLog.from_json",       # the to_json round trip
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
    kept = TEST_ORACLES | TEST_REFERENCE_METHODS
    assert unreached == kept, (f"in no role: {sorted(unreached - kept)}; "
                               f"reached, so not a test reference: {sorted(kept - unreached)}")


# Each (closed form, oracle) pair of a check, with the module-level defs and
# classes, outside `errors`, that both reach: input guards, the data classes
# they share (FormalLog, Ideal, LocalPoint, ...) and the defining sums of the
# transform pair.  Every q is checked by ideals.residue_cardinality, which
# Prime and LocalRepData call too.  spectral.r_z is the one closed form whose
# oracle is not a definition of its own: r_z(..., path="sum") evaluates the
# defining sum, and perfbench/tracer.py names r_z's spans by that argument,
# so splitting it waits for a change to perfbench/.
_LOCAL_LOG = {"formal.FormalLog", "formal._factor_small", "formal._promote", "ideals.residue_cardinality",
              "orbital_local.LocalPoint"}
INDEPENDENT_PAIRS = {
    ("lattice.sphere_I", "lattice.sphere_I_quad"): {"lattice._check_lambda"},
    ("orbital_arch.w_plus", "orbital_arch.w_plus_quads"): {"orbital_arch._check_b", "orbital_arch._check_weight"},
    ("orbital_arch.j_arch", "orbital_arch.j_arch_quad"): {"orbital_arch._check_b", "orbital_arch._check_eps",
                                                          "orbital_arch._check_weight"},
    ("orbital_arch.j_plus_parts", "orbital_arch.j_plus_quad"): {"orbital_arch._check_b"},
    ("orbital_arch.gauss_2f1", "orbital_arch.f21_series_oracle"): set(),
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
                                                              "ntransform._accumulate", "ntransform._sum_terms",
                                                              "ntransform._weighted_sum"},
    ("spectral.partial_r", "spectral.partial_r_sum"): {"ideals.residue_cardinality", "spectral.LocalRepData",
                                                       "spectral._check_k"},
    ("spectral.w_and_dw", "spectral.w_and_dw_oracle"): {"formal.FormalLog", "formal._factor_small", "formal._promote",
                                                        "ideals.Ideal", "ideals.Prime", "ideals.QuadCharData",
                                                        "ideals.residue_cardinality", "spectral.LocalRepData",
                                                        "spectral._check_inert"},
    ("testfns.unip_u_scaled", "testfns.period_integrals"): set(),
    ("testfns.unip_du_scaled", "testfns.period_integrals"): set(),
    ("testfns.dunip", "testfns.period_integrals"): set(),
    ("testfns.st_moment_expected", "testfns.st_moments"): set(),
    ("testfns.decompose_alpha", "testfns.laurent_alpha_pn"): set(),
    ("assembly.main_ADL_bracket", "assembly.geom_kernel_bracket"): {
        "assembly._require_class", "formal.FormalLog", "formal._factor_small", "formal._promote", "ideals.Ideal",
        "ideals.Prime", "ideals.QuadCharData", "ideals.residue_cardinality", "ideals.sign_class"},
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
