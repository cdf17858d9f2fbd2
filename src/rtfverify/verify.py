"""Invariant suites: every closed form against its strongest oracle.

Each suite returns CheckResult rows; the CLI prints one line per row and the
acceptance tests assert them.  Randomised sweeps draw from a seeded Random so
`--seed` reproduces failures exactly.
"""
from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import assembly, lattice, ntransform, orbital_arch, orbital_local, spectral, testfns
from .errors import SignClassError
from .formal import FormalLog
from .ideals import Ideal, Prime, QuadCharData, sign_class
from .ntransform import ArithFn, log_norm, norm_power_fn, one_fn


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}" + (f": {self.detail}" if self.detail else "")


def _worst(rows):
    """The (error, input) row with the largest error, the first of equal ones.
    A NaN error ranks above every number, so it fails every `<= tol` and is
    the error its check prints.  (0.0, None) for no rows."""
    return max(rows, key=lambda row: (math.isnan(row[0]), row[0]), default=(0.0, None))


def _at(ok: bool, at) -> str:
    """What a fold adds to its check's detail: nothing where it holds, else its worst input."""
    return "" if ok else f" (at {at})"


def _gate(tol: float, rows, fmt: str) -> tuple[bool, str]:
    """Whether the worst (error, input) row holds error <= tol, which a NaN
    never does, and that error formatted by fmt, its input after it only
    where it fails."""
    worst, at = _worst(rows)
    ok = worst <= tol
    return ok, format(worst, fmt) + _at(ok, at)


def _ratio(num: float, den: float) -> float:
    """num / den as a gate's error; over 0, a 0 ranks as 0 and anything else as inf."""
    return num / den if den else (0.0 if num == 0 else math.inf)


def _log(x: float) -> float:
    """ln x, and NaN where x is not positive and finite, so that a slope
    fitted through it is NaN and fails its gate."""
    return math.log(x) if 0 < x < math.inf else math.nan


QS = (2, 3, 5)


def _random_monoid(rng: random.Random, nmax: int = 5) -> list[Prime]:
    qs = rng.sample([2, 3, 4, 5, 7, 8, 9, 11, 13], k=rng.randint(1, nmax))
    return [Prime(f"p{i}", q) for i, q in enumerate(qs)]


def _random_ideal(rng: random.Random, primes: list[Prime]) -> Ideal:
    return Ideal.of({p: rng.randint(0, 6) for p in primes})


def _cached_random_fn(rng: random.Random) -> ArithFn:
    cache: dict[Ideal, Fraction] = {}

    def fn(m: Ideal) -> Fraction:
        v = cache.get(m)
        if v is None:
            v = cache[m] = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        return v

    return fn


# ---------------------------------------------------------------------------
# suite: ntransform


def _box_equals(sums, i: int, closed: dict, den: int) -> bool:
    """Whether the transform at the i-th ideal of n_transform_box's sums
    equals closed/den, closed a {symbol (None: the constant): numerator} map,
    as FormalLog's == holds it: a/b == c/d as a*d == c*b, a symbol the box
    lacks at 0, and closed naming no symbol the box lacks."""
    for sym, (vec, sden) in sums.items():
        if vec[i] * den != closed.get(sym, 0) * sden:
            return False
    return closed.keys() <= sums.keys()


def suite_ntransform(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    t0 = time.monotonic()
    bad = 0
    for trial in range(200):
        primes = _random_monoid(rng)
        n = _random_ideal(rng, primes)
        if trial % 2 == 0:
            A = _cached_random_fn(rng)
            B = lambda m, A=A: ntransform.convolve_omega(A, m)
            ok = ntransform.n_transform(B, n) == A(n)
        else:
            B = _cached_random_fn(rng)
            A = lambda m, B=B: ntransform.n_transform(B, m)
            ok = ntransform.convolve_omega(A, n) == B(n)
        bad += not ok
    dt = time.monotonic() - t0
    out.append(CheckResult("ntransform.inversion-roundtrip-200",
                           bad == 0 and dt < 5.0,
                           f"{bad} failures, {dt:.3f}s"))

    t0 = time.monotonic()
    primes = [Prime("p", 2), Prime("q", 3), Prime("r", 5), Prime("s", 7)]
    ts = (-1, 0, 1, 2)
    summands = [norm_power_fn(t) for t in ts] + [log_norm]
    bad = 0
    checked = 0
    # The ideals p^a q^b r^c s^d, 0 <= a, b, c, d <= 6, one parity class of
    # (a, b, c, d) at a time: a box, which holds every m of every sum over its
    # ideals.  The closed forms are evaluated per ideal as integer pairs and
    # held to the box's integer sums by cross-multiplying.
    for parities in product((0, 1), repeat=4):
        box = [(p, range(par, 7, 2)) for p, par in zip(primes, parities)]
        ideals, transforms = ntransform.n_transform_box(summands, box)
        for i, n in enumerate(ideals):
            closed = [({None: num}, den) for num, den in (ntransform._closed_pair(n, t, -1) for t in ts)]
            closed.append(ntransform._closed_log_pair(n))
            bad += sum(not _box_equals(sums, i, *pair) for (sums, _formal), pair in zip(transforms, closed))
            checked += 1
    dt = time.monotonic() - t0
    out.append(CheckResult("ntransform.closed-forms-exhaustive",
                           bad == 0 and dt < 10.0,
                           f"{checked} ideals x 5 functions, {bad} failures, {dt:.3f}s"))

    # all-positive majorant: closed form and the monotone-growth audit
    bad = 0
    for q, k in product(QS, range(0, 13)):
        n = Ideal.of({Prime("p", q): 2 * k}) if k else Ideal.unit()
        bad += ntransform.n_plus(one_fn(), n) != ntransform.n_plus_closed_power(n, 0)
    ratios = []
    eps = Fraction(1, 20)
    for q, c_exp, k in product(QS, (Fraction(1, 2), Fraction(1), Fraction(2)), range(1, 13)):
        n = Ideal.of({Prime("p", q): 2 * k})
        val = ntransform.n_plus_closed_power(n, -c_exp + eps, exact=False)
        ratios.append((val / n.norm ** float(-min(c_exp, Fraction(1)) + eps), f"q={q}, c={c_exp}, n=p^{2 * k}"))
    ratio, at = _worst(ratios)
    ok = ratio < 4.0
    out.append(CheckResult("ntransform.n-plus-closed-and-bounded", bad == 0 and ok,
                           f"max majorant ratio {ratio:.3f}" + _at(ok, at)))
    return out


# ---------------------------------------------------------------------------
# suite: weights


def _random_rep(rng: random.Random, c: int, q: int) -> spectral.LocalRepData:
    if c == 0:
        Q = Fraction(rng.randint(-90, 90), 100)
        return spectral.LocalRepData(q=q, c=0, Q=Q)
    if c == 1:
        return spectral.LocalRepData(q=q, c=1, chi=rng.choice((1, -1)))
    return spectral.LocalRepData(q=q, c=c)


def suite_weights(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    bad = 0
    combos = 0
    for c, q, eta_val, k in product((0, 1, 2, 3), QS, (-1, 1), range(1, 9)):
        rep = _random_rep(rng, c, q)
        for _ in range(20):
            X = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
            combos += 1
            rn, rd = spectral._r_z_pair(rep, eta_val, k, X)
            sn, sd = spectral._r_z_sum_pair(rep, eta_val, k, X)
            bad += rn * sd != sn * rd
    out.append(CheckResult("weights.rz-closed-vs-sum", bad == 0, f"{combos} exact comparisons, {bad} failures"))

    bad_exact = 0
    errs = []
    for c, q, eta_val, k in product((0, 1, 2, 3), QS, (-1, 1), range(1, 9)):
        rep = _random_rep(rng, c, q)
        if spectral.partial_r(rep, eta_val, k) != spectral.partial_r_sum(rep, eta_val, k):
            bad_exact += 1
        # the sum at the two float sample points, read exactly, so
        # the difference of the two r values is exact too
        h = 1e-6
        rp = spectral.r_z_sum(rep, eta_val, k, Fraction(float(q) ** -h))
        rm = spectral.r_z_sum(rep, eta_val, k, Fraction(float(q) ** h))
        fd = float(rp - rm) / (2 * h) * (-1 / math.log(q))
        target = float(spectral.partial_r(rep, eta_val, k))
        errs.append((abs(fd - target) / max(1.0, abs(target)), f"c={c}, q={q}, eta={eta_val}, k={k}"))
    ok, worst = _gate(1e-7, errs, ".2e")
    out.append(CheckResult("weights.partial-r-exact-and-fd", bad_exact == 0 and ok, f"fd rel err {worst}"))

    bad = 0
    for _ in range(60):
        primes = _random_monoid(rng, nmax=3)
        eta = QuadCharData.build(0, [1], unram={p: -1 for p in primes})
        reps = {}
        n_exps = {}
        for p in primes:
            c = rng.choice((0, 0, 1, 2, 3))
            reps[p] = _random_rep(rng, c, p.q)
            n_exps[p] = c + rng.randint(0, 4)
        n = Ideal.of(n_exps)
        direct = spectral.w_and_dw(reps, n, eta)
        oracle = spectral.w_and_dw_oracle(reps, n, eta)
        if direct[0] != oracle[0] or direct[1] != oracle[1]:
            bad += 1
    out.append(CheckResult("weights.w-dw-vs-product-rule", bad == 0, f"{bad} failures over 60 random configs"))

    bad = 0
    for q, k in product(QS, (2, 4, 6, 8)):
        rep = _random_rep(rng, 0, q)
        lhs = spectral.partial_r(rep, -1, k)
        rhs = spectral.r_z(rep, -1, k, 1) * Fraction(k, 2)
        if lhs != rhs:
            bad += 1
    out.append(CheckResult("weights.delw-slope-pattern", bad == 0))

    errs = []
    for _ in range(20):
        primes = _random_monoid(rng, nmax=2)
        eps = rng.randint(0, 1)
        ram = {primes[0]: rng.randint(1, 3)} if rng.random() < 0.5 else {}
        eta = QuadCharData.build(eps, [-1] * eps + [1] * (2 - eps), ram=ram)
        f_pi = Ideal.of({p: rng.randint(0, 3) for p in primes if p not in eta.ram_primes})
        D = rng.uniform(1.0, 9.0)
        fl = spectral.adl_plus_factor(f_pi, eta)
        direct = fl.evaluate({"logDF": math.log(D)})
        # oracle: d/ds at 1/2 of log eps(s) for eps(s) = eps(1/2) X^(1/2-s),
        # halved: -(1/2) log X with X = norm(f_pi) norm(f_eta)^2 D^2
        h = 1e-6
        X = f_pi.norm * eta.conductor.norm ** 2 * D ** 2
        eps_of = lambda s: X ** (0.5 - s)
        expected = (math.log(eps_of(0.5 + h)) - math.log(eps_of(0.5 - h))) / (2 * h) / 2
        errs.append((abs(direct - expected), f"N(f_pi)={f_pi.norm}, N(f_eta)={eta.conductor.norm}, D={D}"))
    worst, at = _worst(errs)
    ok = worst < 1e-6
    out.append(CheckResult("weights.adl-plus-epsilon-derivative", ok, f"max |err| {worst:.1e}" + _at(ok, at)))
    return out


# ---------------------------------------------------------------------------
# suite: unipotent (period integrals + measures)


def suite_unipotent(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    errs = []
    ns = range(0, 7)
    contour = {}    # (q, eta) -> its U and dU rows
    for q in QS:
        # alpha_[p^n] for each n, then the basis alpha^(n), on one grid for U and dU at both characters
        rows = testfns.period_integrals([(kern, eta_val) for eta_val in (-1, 1)
                                         for kern in (testfns.upsilon_kernel, testfns.dunip_kernel)], q,
                                        [testfns.alpha_pn_at(n) for n in ns] + [testfns.alpha_basis_at(n) for n in ns])
        for eta_val, u, du in zip((-1, 1), rows[::2], rows[1::2]):
            contour[q, eta_val] = u, du
            u_pn, du_pn, du_basis = u[:len(ns)], du[:len(ns)], du[len(ns):]
            for n in ns:
                errs += [(abs(u_pn[n] - testfns.unip_u(q, eta_val, n)), f"q={q}, eta={eta_val}, U of alpha_[p^{n}]"),
                         (abs(du_pn[n] - testfns.unip_du(q, eta_val, n)), f"q={q}, eta={eta_val}, dU of alpha_[p^{n}]"),
                         (abs(du_basis[n] - testfns.dunip(q, eta_val, n)), f"q={q}, eta={eta_val}, dU of alpha^({n})")]
    ok, worst = _gate(1e-9, errs, ".2e")
    out.append(CheckResult("unipotent.closed-vs-contour", ok, f"max |err| {worst}"))

    # Upsilon/(1 - eta Y) = dU kernel / log q, each side the form the contour integrates
    points = [(rng.choice((-1, 1)), Fraction(rng.randint(2, 400), rng.randint(1, 40))) for _ in range(20)]
    points += product((-1, 1), (Fraction(5, 2), Fraction(-7, 3), Fraction(19, 5)))
    compared = [(eta_val, Y) for eta_val, Y in points if Y not in (0, 1, -1, eta_val)]
    bad = [pt for pt in compared if testfns.kernel_identity_lhs(*pt) != testfns.kernel_identity_rhs(*pt)]
    detail = f"{len(compared)} exact comparisons, {len(bad)} failures"
    if bad:
        detail += f", first at eta={bad[0][0]}, Y={bad[0][1]}"
    out.append(CheckResult("unipotent.kernel-identity-exact", not bad, detail))

    gaps = []
    for q, eta_val, n in ((2, -1, 3), (3, 1, 4), (5, -1, 2)):
        ((a,),) = testfns.period_integrals([(testfns.upsilon_kernel, eta_val)], q, [testfns.alpha_pn_at(n)], sigma=0.3)
        ((b,),) = testfns.period_integrals([(testfns.upsilon_kernel, eta_val)], q, [testfns.alpha_pn_at(n)], sigma=1.7)
        gaps.append((abs(a - b), f"q={q}, eta={eta_val}, n={n}"))
    ok, gap = _gate(1e-9, gaps, ".2e")
    out.append(CheckResult("unipotent.sigma-independence", ok,
                           f"{len(gaps)} values at sigma 0.3 and 1.7, max gap {gap}"))

    # alpha_[p^n] against alpha^(m) over decompose_alpha's m plus its constant,
    # q in (2, 3), n <= 5, read from closed-vs-contour's rows: period_integrals
    # gives each batched value the bits of its one-item call, so each is the
    # value a call of its own would integrate.  U sees the constant term; dU
    # does not, since the dU-moment of alpha^(0) is 0.
    gaps = []
    for q, eta_val in product((2, 3), (-1, 1)):
        for kernel, row in zip(("U", "dU"), contour[q, eta_val]):
            direct, basis = row[:len(ns)], row[len(ns):]
            for n in range(0, 6):
                ms, const = testfns.decompose_alpha(n)
                parts = sum(basis[m] for m in ms)
                parts += const * 0.5 * basis[0]
                gaps.append((abs(direct[n] - parts), f"q={q}, eta={eta_val}, n={n} ({kernel})"))
    ok, gap = _gate(1e-9, gaps, ".2e")
    out.append(CheckResult("unipotent.linearity-via-decomposition", ok, f"{len(gaps)} values, max gap {gap}"))

    errs, errs0 = [], []
    pairs = list(product(QS, (-1, 1)))
    for (q, eta_val), moments in zip(pairs, testfns.st_moments(pairs, range(0, 9))):
        errs0.append((abs(moments[0] - 1.0), f"q={q}, eta={eta_val}"))
        errs += [(abs(got - testfns.st_moment_expected(q, eta_val, n)), f"q={q}, eta={eta_val}, n={n}")
                 for n, got in enumerate(moments)]
    (ok, worst), (ok0, worst0) = _gate(1e-8, errs, ".2e"), _gate(1e-10, errs0, ".2e")
    out.append(CheckResult("unipotent.measure-moments", ok and ok0, f"max |err| {worst}, at n=0 {worst0}"))
    return out


# ---------------------------------------------------------------------------
# suite: orbital (non-archimedean)


def suite_orbital(seed: int = 0) -> list[CheckResult]:
    out = []
    pts = orbital_local.enumerate_points(12)

    bad = sum(orbital_local.w_unramified(pt, q, eta_val) != orbital_local.w_unramified_oracle(pt, q, eta_val)
              for q, eta_val, pt in product(QS, (-1, 1), pts))
    out.append(CheckResult("orbital.w-unramified-exact", bad == 0, f"{bad} failures"))

    bad = sum(orbital_local.w_level(pt, ordn, q, eta_val) != orbital_local.w_level_oracle(pt, ordn, q, eta_val)
              for q, eta_val, ordn, pt in product(QS, (-1, 1), range(1, 7), pts))
    out.append(CheckResult("orbital.w-level-exact", bad == 0, f"{bad} failures"))

    ratios = []
    for q, f, d_v, em1, ebb, pt in product(QS, (1, 2, 3), (0, 1), (-1, 1), (-1, 1), orbital_local.enumerate_points(8)):
        w = abs(orbital_local.w_ramified(pt, f, q, em1, ebb, d_v))
        bnd = orbital_local.w_ramified_bound(pt, f, q)
        ratios.append((_ratio(w, bnd), f"q={q}, f={f}, d_v={d_v}, eta(-1)={em1}, eta(b(b+1))={ebb}, {pt}"))
    ok, worst = _gate(1.0, ratios, ".3f")
    out.append(CheckResult("orbital.w-ramified-bound", ok, f"max |W|/bound {worst} (constant 6 included)"))

    bad = sum(orbital_local.tilde_I_plus_scaled(m, pt, q, eta_val)
              != orbital_local.tilde_I_plus_oracle_scaled(m, pt, q, eta_val)
              for q, eta_val, m, pt in product(QS, (-1, 1), range(1, 7), pts))
    out.append(CheckResult("orbital.tilde-I-plus-vs-shell-oracle", bad == 0, f"{bad} failures"))

    # neither indicator depends on q
    bad = sum(n >= 1 and pt.ordb <= -n and orbital_local.tilde_delta(n, pt, eta_val) != 0
              for eta_val, n, pt in product((-1, 1), range(0, 4), pts))
    bad += sum(pt.ordb < 0 and orbital_local.lambda_v(pt) != 0 for pt in pts)
    out.append(CheckResult("orbital.support-indicators", bad == 0))
    return out


# ---------------------------------------------------------------------------
# suite: arch


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num) as a list with its bits: i * step + start, and stop last."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [float(stop)]


def suite_arch(seed: int = 0) -> list[CheckResult]:
    out = []
    ls = (6, 8, 10)
    bs = (Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 2), Fraction(-3), Fraction(2), Fraction(10))
    pairs = [(l, b) for l in ls for b in bs]
    quads = [quad for l in ls for quad in orbital_arch.w_plus_quads(l, [float(b) for b in bs])]
    rel_errs, abs_errs = [], []
    for (l, b), quad in zip(pairs, quads):
        diff = abs(orbital_arch.w_plus(l, b) - quad)
        if b == Fraction(-1, 2):
            # W_+(-1/2) vanishes identically (t -> 1/t symmetry); the oracle
            # returns float noise there, so that point alone is compared absolutely
            abs_errs.append((diff, f"l={l}"))
        else:
            rel_errs.append((_ratio(diff, abs(quad)), f"l={l}, b={b}"))
    (rel_ok, rel), (abs_ok, absolute) = _gate(1e-6, rel_errs, ".2e"), _gate(1e-12, abs_errs, ".2e")
    out.append(CheckResult("arch.w-plus-closed-vs-quadrature", rel_ok and abs_ok,
                           f"{len(pairs)} pairs, max rel err {rel} where W_+ != 0, abs err {absolute} at b = -1/2"))

    # J(b) = (-1)^(k/2) J(-b-1), b < -1 against its mirror b > 0.  j_arch
    # computes both sides at the same |2b+1|, so the mirror comes from the
    # defining integral, one j_arch_quads batch per k.
    errs = []
    bs = (-1.5, -2.0, -3.0, -7.5, -40.0, -12.0)
    for k in (4, 6, 8):
        for b, (mirror, _sgn) in zip(bs, orbital_arch.j_arch_quads(k, [-b - 1 for b in bs])):
            lhs, _sgn = orbital_arch.j_arch(k, b)
            rhs = (-1) ** (k // 2) * mirror
            errs.append((abs(lhs - rhs) / max(1.0, abs(rhs)), f"k={k}, b={b}"))
    ok, worst = _gate(1e-10, errs, ".2e")
    out.append(CheckResult("arch.j-functional-equation", ok, f"max rel err {worst}"))

    val, _sgn = orbital_arch.j_arch(4, -0.5)
    out.append(CheckResult("arch.j-legendre-value", val == -4.0, f"J(4; -1/2) = {val}"))

    consts = []
    grid = _linspace(-1000, -1.01, 40) + _linspace(-0.99, -0.01, 30) + _linspace(0.01, 1000, 40)
    for k in (6, 8):
        for b in grid:
            j = abs(orbital_arch.j_arch(k, b)[0])
            for eps in (0.05, 0.25):
                env = orbital_arch.j_arch_bound_envelope(k, b, eps)
                consts.append((_ratio(abs(b * (b + 1)) ** eps * j, env), f"k={k}, b={b}, eps={eps}"))
    worst, at = _worst(consts)
    ok = worst < 50.0
    out.append(CheckResult("arch.j-decay-envelope", ok, f"fitted constant {worst:.2f}" + _at(ok, at)))

    # J^eps against the quadrature of its defining integral, on the cut
    # -1 < b < 0 and on both sides of it.  At k = 26, the largest l that
    # rtf arch takes, the points 1e-3 and 1e-6 from each singular point, on
    # either side, hold j_arch's Q_0 and its choice of the recurrence's
    # direction next to 0 and -1.
    # Off the cut (b(b+1) > 0) J^sgn is 0 by the contour shift onto the
    # ray, not integrated; b = -1/2, on the cut, is an integrated zero of J^sgn
    # at k = 4, 8 and of J^one at k = 6, 10.  Where a closed J is 0, the quadrature
    # without its prefactor i^(k/2) (1+b)^(-k/2) is compared with 0 absolutely.
    # j_arch_quads runs every b of one k in one batch per side of the cut.
    rel_errs, abs_errs = [], []
    grid = {k: (-0.7, -0.5, -0.1, 0.2, 1.0, 4.0, -1.2, -2.0, -10.0) for k in (4, 6, 8, 10)}
    grid[26] = (0.4141701729754739, -1.4141701729754739, 1e-3, -1e-3, 1e-6, -1e-6,
                -1 + 1e-3, -1 - 1e-3, -1 + 1e-6, -1 - 1e-6)
    for k, bs in grid.items():
        for b, quads in zip(bs, orbital_arch.j_arch_quads(k, bs)):
            for eps, closed, quad in zip(("one", "sgn"), orbital_arch.j_arch(k, b), quads):
                if closed == 0:
                    abs_errs.append((abs(quad) * abs(1 + b) ** (k // 2), f"k={k}, b={b}, J^{eps}"))
                else:
                    rel_errs.append((abs(closed - quad) / abs(closed), f"k={k}, b={b}, J^{eps}"))
    (rel_ok, rel), (abs_ok, absolute) = _gate(1e-9, rel_errs, ".2e"), _gate(1e-9, abs_errs, ".2e")
    out.append(CheckResult("arch.j-closed-vs-quadrature", rel_ok and abs_ok,
                           f"{sum(map(len, grid.values()))} (k, b) pairs, both eps, max rel err {rel} where J != 0, "
                           f"abs err {absolute} of the unscaled integral where J = 0"))
    return out


# ---------------------------------------------------------------------------
# suite: lattice


def suite_lattice(seed: int = 0) -> list[CheckResult]:
    out = []
    zeta2 = math.pi ** 2 / 6

    # each lattice built once: Z, 2Z and the chain (sqrt 2)^k O_Q(sqrt 2), k = 0..6
    z, z2 = lattice.embed_ideal("Q", 1), lattice.embed_ideal("Q", 2)
    chain = [lattice.embed_ideal("real_quadratic", _sqrt2_power(k), m=2) for k in range(0, 7)]
    o2 = chain[0]     # k = 0: O_Q(sqrt 2) itself
    th = lattice.theta(z, [4], 1e4)
    exact = 2 * (zeta2 - 1)
    ok1 = abs(th["value"] - exact) <= th["tail_bound"]
    ok2 = abs(th["value"] + th["tail_estimate"] - exact) <= 1e-6
    out.append(CheckResult("lattice.theta-Z-weight-4", ok1 and ok2,
                           f"value {th['value']:.9f} (+tail est) vs {exact:.9f}, bound {th['tail_bound']:.1e}"))

    th2 = lattice.theta(z2, [4], 1e4)
    exact2 = math.pi ** 2 / 4 - 2
    out.append(CheckResult("lattice.theta-2Z-scaling",
                           abs(th2["value"] + th2["tail_estimate"] - exact2) <= 1e-6,
                           f"value {th2['value']:.9f} vs {exact2:.9f}"))

    errs = []
    for lam in ((0.5, 0.0), (0.3, 0.2), (0.0, 0.0), (-0.5, 0.75), (0.25, -0.25)):
        a = lattice.sphere_I(lam)
        errs.append((_ratio(abs(a - lattice.sphere_I_quad(lam)), abs(a)), f"lambda={lam}"))
    ok, worst = _gate(1e-6, errs, ".2e")
    out.append(CheckResult("lattice.sphere-I-closed-vs-quad", ok, f"max rel err {worst}"))

    # theta-estimate boundedness over N*Z and over an ideal chain in Q(sqrt 2)
    ns = [1, 3, 10, 31, 100, 316, 1000, 3162, 10000]
    ratios = [_ratio(th["value"], lattice.theta_envelope(z, z, [4]))]
    for N in ns[1:]:
        latn = lattice.embed_ideal("Q", N)
        t = lattice.theta(latn, [4], max(1e4, 50 * N))["value"]
        ratios.append(_ratio(t, lattice.theta_envelope(latn, z, [4])))
    slope = _loglog_slope(ns, ratios)
    top, at = _worst(zip(ratios, (f"N={N}" for N in ns)))
    ok_q = top <= ratios[0] * 1.01 and slope <= 0.05
    chain_ratios = []
    for k, ideal_k in enumerate(chain):
        t = lattice.theta(ideal_k, [6, 6], 60.0 * 2 ** (k / 2))["value"]
        chain_ratios.append(_ratio(t, lattice.theta_envelope(ideal_k, o2, [6, 6])))
    slope2 = statistics.linear_regression(range(len(chain_ratios)), [_log(r) for r in chain_ratios]).slope
    top, chain_at = _worst((r, f"(sqrt 2)^{k}") for k, r in enumerate(chain_ratios))
    ok_chain = top <= max(1.05 * chain_ratios[0], chain_ratios[0] + 1e-9) and slope2 <= 0.05
    out.append(CheckResult("lattice.theta-estimate-bounded", ok_q and ok_chain,
                           f"NZ slope {slope:.3f}{_at(ok_q, at)}, "
                           f"sqrt2-chain slope {slope2:.3f}{_at(ok_chain, chain_at)}"))

    lats = chain + [z, z2] + [lattice.embed_ideal("Q", N) for N in (5, 17)]
    out.append(CheckResult("lattice.minkowski-sandwich", all(map(lattice.minkowski_sandwich_ok, lats))))

    ideal_3 = lattice.embed_ideal("real_quadratic", 3, m=2)
    audits = lattice.bound_audits(ideal_3, o2, [6, 6], lattice.theta(ideal_3, [6, 6], 200.0)["value"])
    out.append(CheckResult("lattice.containment-audits",
                           audits["covering_ok"] and audits["submultiplicative_ok"] and audits["minkowski_ok"]))

    # the hyperbolic sums, plain and log-weighted, decay like N^(-l/2 + 1) up to epsilon
    l = 6
    target = -(l / 2 - 1) + 0.1
    ns = [10, 31, 100, 316, 1000, 3162, 10000]
    slope = _loglog_slope(ns, [lattice.fI_rational(l, N, 200) for N in ns])
    out.append(CheckResult("lattice.fI-slope", slope <= target, f"fitted exponent {slope:.3f} <= {target:.1f}"))
    ns = (10, 100, 1000, 10000)
    slope = _loglog_slope(ns, lattice.w_hyp_arch_audit(l, ns, 40))
    out.append(CheckResult("lattice.w-hyp-arch-slope", slope <= target, f"fitted exponent {slope:.3f} <= {target:.1f}"))

    # phi(t) decays like t^-(d - 1 + min(l)/2)
    weights, ts = [6.0, 6.0], [31.6, 100.0, 316.0, 1000.0, 3162.0, 10000.0]
    slope, target = _loglog_slope(ts, lattice.phi_spheres(weights, ts)), -(len(weights) - 1 + min(weights) / 2)
    exact1 = lattice.phi_spheres([6.0], [3.0]) == [2 * 4.0 ** -3]
    rel = abs(slope - target) / abs(target)
    out.append(CheckResult("lattice.phi-mellin-slope", rel <= 0.05 and exact1, f"slope {slope:.3f} vs {target:.3f}"))
    return out


def _loglog_slope(xs, ys) -> float:
    """The least-squares slope of log y on log x."""
    return statistics.linear_regression([_log(x) for x in xs], [_log(y) for y in ys]).slope


def _sqrt2_power(k: int):
    # (sqrt 2)^k as x + y*sqrt(2)
    if k % 2 == 0:
        return (2 ** (k // 2), 0)
    return (0, 2 ** ((k - 1) // 2))


# ---------------------------------------------------------------------------
# suite: assembly


def random_minus_config(rng: random.Random):
    """A random (primes, eta, n, a) with n in the minus class for eta."""
    all_primes = _random_monoid(rng, nmax=5)
    rng.shuffle(all_primes)
    k_n = rng.randint(1, min(3, len(all_primes)))
    n_primes = all_primes[:k_n]
    a_primes = all_primes[k_n:k_n + rng.randint(0, min(3, len(all_primes) - k_n))]
    unram = {p: -1 for p in n_primes}
    unram.update({p: rng.choice((1, -1)) for p in a_primes})
    eps = rng.randint(0, 2)
    eta = QuadCharData.build(eps, [-1] * eps + [1] * max(1, 3 - eps), unram=unram)
    n_exps = {p: rng.randint(1, 5) for p in n_primes}
    n = Ideal.of(n_exps)
    # force the minus class: (-1)^eps tilde_eta(n) = -1
    if sign_class(n, eta) != -1:
        p0 = n_primes[0]
        n_exps[p0] += 1
        n = Ideal.of(n_exps)
    a = Ideal.of({p: rng.randint(1, 4) for p in a_primes})
    return eta, n, a


def suite_assembly(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    t0 = time.monotonic()
    bad_exact = 0
    gaps = []
    for i in range(50):
        eta, n, a = random_minus_config(rng)
        lhs = assembly.geom_kernel_bracket(n, a, eta)
        rhs = assembly.main_ADL_bracket(n, a, eta)
        if lhs != rhs:
            bad_exact += 1
        w = assembly.WeightData(tuple(rng.choice((6, 8, 10)) for _ in eta.arch_signs))
        consts = assembly.AnalyticConsts(D_F=rng.uniform(1, 30), L1_eta=rng.uniform(0.1, 3),
                                         Lp_over_L=rng.uniform(-2, 2))
        bnd = consts.bindings(w, eta)
        gaps.append((abs(lhs.evaluate(bnd) - rhs.evaluate(bnd)), f"config {i}"))
    dt = time.monotonic() - t0
    # the worst gap over seeds 0-99 is 2^-43 = 1.14e-13 (first at seed 19,
    # config 27); the tolerance is about 90 times that
    gap_ok, gap = _gate(1e-11, gaps, ".1e")
    out.append(CheckResult("assembly.headline-identity-50",
                           bad_exact == 0 and gap_ok and dt < 10.0,
                           f"{bad_exact} exact failures, float gap {gap}, {dt:.3f}s"))

    bad = 0
    for _ in range(30):
        eta, n, _a = random_minus_config(rng)
        w = assembly.WeightData((6,))
        nd = assembly.degenerate_D(n, eta, w)
        # brute-force both transforms of the degenerate kernel
        delta_fn = lambda m: Fraction(1 if m.is_unit else 0)
        brute = ntransform.n_transform(delta_fn, n)
        expect = complex((-1) ** eta.eps * float(brute)) * (1j ** (w.l_tilde_default % 4))
        if abs(nd - expect) > 1e-12:
            bad += 1
        zero_fn = lambda m: FormalLog.zero()
        if not ntransform.n_transform(zero_fn, n).is_zero():
            bad += 1
    out.append(CheckResult("assembly.degenerate-terms", bad == 0, f"{bad} failures over 30 configs"))

    bad = 0
    for _ in range(20):
        eta, n, a = random_minus_config(rng)
        # push n into the plus class; the minus main term must then refuse
        p0 = n.support[0]
        n_plus_class = n * Ideal.of({p0: 1})
        try:
            assembly.main_ADL_bracket(n_plus_class, a, eta)
            bad += 1
        except SignClassError:
            pass
    out.append(CheckResult("assembly.sign-class-guard", bad == 0))

    p1, p2 = Prime("x", 3), Prime("y", 3)
    eta = QuadCharData.build(1, [-1], unram={p1: -1, p2: -1})
    n1 = Ideal.of({p1: 2})
    n2 = Ideal.of({p2: 2})
    a1 = Ideal.of({p2: 2})
    a2 = Ideal.of({p1: 2})
    sym_ok = assembly.main_ADL_bracket(n1, a1, eta) == assembly.main_ADL_bracket(n2, a2, eta)
    out.append(CheckResult("assembly.relabel-symmetry", sym_ok))

    pref = assembly.geom_prefactor(n_s=3, eps_eta=1)
    out.append(CheckResult("assembly.prefactor-cancellation",
                           pref.rational == -4 and pref.d_pow == Fraction(3, 2) and pref.g_pow == 0,
                           f"4(-1)^#S D^(3/2) G^0 == {pref}"))

    bad = 0
    for _ in range(25):
        primes = _random_monoid(rng, nmax=3)
        eps = rng.randint(0, 1)
        eta = QuadCharData.build(eps, [-1] * eps + [1] * (2 - eps), unram={p: -1 for p in primes})
        n = Ideal.of({p: rng.randint(1, 4) for p in primes})
        al_star = _cached_random_fn(rng)
        al_dw = _cached_random_fn(rng)
        adl_star = _cached_random_fn(rng)
        G = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        D = Fraction(rng.randint(1, 9))
        n_s = rng.randint(0, 3)
        pref = Fraction(2 * (-1) ** (n_s + eta.eps)) * D / G

        def w_geom_fn(m: Ideal):
            adl_w_minus = ntransform.convolve_omega(adl_star, m)
            adl_w_plus = ntransform.convolve_omega(assembly.adl_w_plus_weight(al_star, eta), m)
            al_w = ntransform.convolve_omega(al_star, m)
            al_dw_v = al_dw(m)
            tot = adl_w_minus + adl_w_plus + FormalLog.symbol("logDF", al_w) + al_dw_v
            return tot * (1 / pref)

        got = assembly.henkei_adl_star(n, w_geom_fn, al_star, al_dw, eta, G, D, n_s)
        if got != adl_star(n):
            bad += 1
    out.append(CheckResult("assembly.henkei-wiring-exact", bad == 0, f"{bad} failures over 25 mock configs"))
    return out


SUITES = {
    "ntransform": suite_ntransform,
    "weights": suite_weights,
    "unipotent": suite_unipotent,
    "orbital": suite_orbital,
    "arch": suite_arch,
    "lattice": suite_lattice,
    "assembly": suite_assembly,
}


def run_suites(names: list[str] | None = None, seed: int = 0) -> list[CheckResult]:
    names = names or list(SUITES)
    results: list[CheckResult] = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results
