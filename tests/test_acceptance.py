"""Acceptance gate: every check of every `rtf verify` suite at seed 0.

Each check's seeds, grid and tolerance live in `rtfverify.verify`; run
`pytest -s tests/test_acceptance.py` (or `rtf verify`) to watch one line per
check.  Each suite runs once; the criterion tests name the checks that carry
criteria 1-10.
"""
import functools
import re

import pytest

from rtfverify import verify


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
