"""Invariant suites: every closed form against its strongest oracle.

Each suite returns CheckResult rows; the CLI prints one line per row and the
acceptance tests assert them.  Randomised sweeps draw from a seeded Random so
`--seed` reproduces failures exactly.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import assembly, lattice, ntransform, orbital_arch, orbital_local, spectral, testfns
from .errors import SignClassError
from .formal import FormalLog
from .ideals import Ideal, Prime, QuadCharData
from .ntransform import ArithFn, log_norm_fn, norm_power_fn, one_fn


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}" + (f": {self.detail}" if self.detail else "")


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
                           f"{bad} failures, {dt:.2f}s"))

    t0 = time.monotonic()
    primes = [Prime("p", 2), Prime("q", 3), Prime("r", 5), Prime("s", 7)]
    ts = (-1, 0, 1, 2)
    summands = [norm_power_fn(t) for t in ts] + [log_norm_fn()]
    bad = 0
    checked = 0
    for exps in product(range(7), repeat=4):
        n = Ideal.of(dict(zip(primes, exps)))
        closed = [ntransform.closed_power(n, t) for t in ts] + [ntransform.closed_log(n)]
        bad += sum(got != want for got, want in zip(ntransform.n_transforms(summands, n), closed))
        checked += 1
    dt = time.monotonic() - t0
    out.append(CheckResult("ntransform.closed-forms-exhaustive",
                           bad == 0 and dt < 10.0,
                           f"{checked} ideals x 5 functions, {bad} failures, {dt:.2f}s"))

    # all-positive majorant: closed form and the monotone-growth audit
    bad = 0
    for q in QS:
        p = Prime("p", q)
        for k in range(0, 13):
            n = Ideal.of({p: 2 * k}) if k else Ideal.unit()
            if ntransform.n_plus(one_fn(), n) != ntransform.n_plus_closed_power(n, 0):
                bad += 1
    ratios = []
    eps = Fraction(1, 20)
    for q in QS:
        p = Prime("p", q)
        for c_exp in (Fraction(1, 2), Fraction(1), Fraction(2)):
            t = -c_exp + eps
            for k in range(1, 13):
                n = Ideal.of({p: 2 * k})
                val = ntransform.n_plus_closed_power(n, t, exact=False)
                ratios.append(val / n.norm ** float(-min(c_exp, Fraction(1)) + eps))
    out.append(CheckResult("ntransform.n-plus-closed-and-bounded",
                           bad == 0 and max(ratios) < 4.0,
                           f"max majorant ratio {max(ratios):.3f}"))
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
    for c in (0, 1, 2, 3):
        for q in QS:
            for eta_val in (-1, 1):
                for k in range(1, 9):
                    rep = _random_rep(rng, c, q)
                    for _ in range(20):
                        X = Fraction(rng.randint(-60, 60), rng.randint(1, 30))
                        if X == -1:
                            continue
                        combos += 1
                        if spectral.r_z(rep, eta_val, k, X, "closed") != spectral.r_z(rep, eta_val, k, X, "sum"):
                            bad += 1
    out.append(CheckResult("weights.rz-closed-vs-sum", bad == 0, f"{combos} exact comparisons, {bad} failures"))

    bad_exact = 0
    worst_fd = 0.0
    for c in (0, 1, 2, 3):
        for q in QS:
            for eta_val in (-1, 1):
                for k in range(1, 9):
                    rep = _random_rep(rng, c, q)
                    if spectral.partial_r(rep, eta_val, k) != spectral.partial_r_sum(rep, eta_val, k):
                        bad_exact += 1
                    h = 1e-6
                    rp = spectral.r_z(rep, eta_val, k, float(q) ** -h, "sum")
                    rm = spectral.r_z(rep, eta_val, k, float(q) ** h, "sum")
                    fd = (rp - rm) / (2 * h) * (-1 / math.log(q))
                    target = float(spectral.partial_r(rep, eta_val, k))
                    worst_fd = max(worst_fd, abs(fd - target) / max(1.0, abs(target)))
    out.append(CheckResult("weights.partial-r-exact-and-fd",
                           bad_exact == 0 and worst_fd <= 1e-7,
                           f"fd rel err {worst_fd:.2e}"))

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
    for q in QS:
        for k in (2, 4, 6, 8):
            rep = _random_rep(rng, 0, q)
            lhs = spectral.partial_r(rep, -1, k)
            rhs = spectral.r_at_center(rep, -1, k) * Fraction(k, 2)
            if lhs != rhs:
                bad += 1
    out.append(CheckResult("weights.delw-slope-pattern", bad == 0))

    worst = 0.0
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
        worst = max(worst, abs(direct - expected))
    out.append(CheckResult("weights.adl-plus-epsilon-derivative", worst < 1e-6, f"max |err| {worst:.1e}"))
    return out


# ---------------------------------------------------------------------------
# suite: unipotent (period integrals + measures)


def suite_unipotent(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []

    worst = 0.0
    ns = range(0, 7)
    for q in QS:
        for eta_val in (-1, 1):
            # alpha_[p^n] for each n, then the basis alpha^(n), on one grid for U and dU
            u, du = testfns.period_integrals([testfns.upsilon_kernel, testfns.dunip_kernel], q, eta_val,
                                             [testfns.alpha_pn_at(n) for n in ns]
                                             + [testfns.alpha_basis_at(n) for n in ns])
            u_pn, du_pn, du_basis = u[:len(ns)], du[:len(ns)], du[len(ns):]
            for n in ns:
                closed = float(testfns.unip_u_scaled(eta_val, n)) * q ** (-n / 2)
                worst = max(worst, abs(u_pn[n] - closed))
                closed = float(testfns.unip_du_scaled(eta_val, n)) * q ** (-n / 2) * math.log(q)
                worst = max(worst, abs(du_pn[n] - closed))
                closed = testfns.dunip(q, eta_val, n)
                worst = max(worst, abs(du_basis[n] - closed))
    out.append(CheckResult("unipotent.closed-vs-contour", worst <= 1e-9, f"max |err| {worst:.2e}"))

    bad = 0
    for _ in range(20):
        q = rng.choice(QS)
        eta_val = rng.choice((-1, 1))
        Y = Fraction(rng.randint(2, 400), rng.randint(1, 40))
        if Y in (0, 1, -1, eta_val):
            continue
        if testfns.kernel_identity_lhs(q, eta_val, Y) != testfns.kernel_identity_rhs(q, eta_val, Y):
            bad += 1
    for q, eta_val, Y in product((2, 3), (-1, 1), (Fraction(5, 2), Fraction(-7, 3), Fraction(19, 5))):
        if testfns.kernel_identity_lhs(q, eta_val, Y) != testfns.kernel_identity_rhs(q, eta_val, Y):
            bad += 1
    out.append(CheckResult("unipotent.kernel-identity-exact", bad == 0))

    worst = 0.0
    for q, eta_val, n in ((2, -1, 3), (3, 1, 4), (5, -1, 2)):
        ((a,),) = testfns.period_integrals([testfns.upsilon_kernel], q, eta_val, [testfns.alpha_pn_at(n)], sigma=0.3)
        ((b,),) = testfns.period_integrals([testfns.upsilon_kernel], q, eta_val, [testfns.alpha_pn_at(n)], sigma=1.7)
        worst = max(worst, abs(a - b))
    out.append(CheckResult("unipotent.sigma-independence", worst <= 1e-9, f"max gap {worst:.2e}"))

    worst = 0.0
    ns = range(0, 6)
    for q in (2, 3):
        for eta_val in (-1, 1):
            # alpha_[p^n] for each n, then the basis alpha^(m) for each m <= 5
            (du,) = testfns.period_integrals([testfns.dunip_kernel], q, eta_val,
                                             [testfns.alpha_pn_at(n) for n in ns]
                                             + [testfns.alpha_basis_at(m) for m in ns])
            direct, basis = du[:len(ns)], du[len(ns):]
            for n in ns:
                ms, const = testfns.decompose_alpha(n)
                parts = sum(basis[m] for m in ms)
                parts += const * 0.5 * basis[0]
                worst = max(worst, abs(direct[n] - parts))
    out.append(CheckResult("unipotent.linearity-via-decomposition", worst <= 1e-9, f"max gap {worst:.2e}"))

    worst = 0.0
    worst0 = 0.0
    for q in QS:
        for eta_val in (-1, 1):
            for n, got in enumerate(testfns.st_moments(q, eta_val, range(0, 9))):
                want = testfns.st_moment_expected(q, eta_val, n)
                worst = max(worst, abs(got - want))
                if n == 0:
                    worst0 = max(worst0, abs(got - 1.0))
    out.append(CheckResult("unipotent.measure-moments", worst <= 1e-8 and worst0 <= 1e-10,
                           f"max |err| {worst:.2e}, at n=0 {worst0:.2e}"))
    return out


# ---------------------------------------------------------------------------
# suite: orbital (non-archimedean)


def suite_orbital(seed: int = 0) -> list[CheckResult]:
    out = []
    pts = orbital_local.enumerate_points(12)

    bad = 0
    for q in QS:
        for eta_val in (-1, 1):
            for pt in pts:
                if orbital_local.w_unramified(pt, q, eta_val) != orbital_local.w_unramified_oracle(pt, q, eta_val):
                    bad += 1
    out.append(CheckResult("orbital.w-unramified-exact", bad == 0, f"{bad} failures"))

    bad = 0
    for q in QS:
        for eta_val in (-1, 1):
            for ordn in range(1, 7):
                for pt in pts:
                    if orbital_local.w_level(pt, ordn, q, eta_val) != orbital_local.w_level_oracle(pt, ordn, q, eta_val):
                        bad += 1
    out.append(CheckResult("orbital.w-level-exact", bad == 0, f"{bad} failures"))

    worst = 0.0
    for q in QS:
        for f in (1, 2, 3):
            for d_v in (0, 1):
                for em1 in (-1, 1):
                    for ebb in (-1, 1):
                        for pt in orbital_local.enumerate_points(8):
                            w = abs(orbital_local.w_ramified(pt, f, q, em1, ebb, d_v))
                            bnd = orbital_local.w_ramified_bound(pt, f, q)
                            if bnd == 0:
                                ok = w == 0
                                worst = max(worst, 0.0 if ok else math.inf)
                            else:
                                worst = max(worst, w / bnd)
    out.append(CheckResult("orbital.w-ramified-bound", worst <= 1.0, f"max |W|/bound {worst:.3f} (constant 6 included)"))

    bad = 0
    for q in QS:
        for eta_val in (-1, 1):
            for m in range(1, 7):
                for pt in pts:
                    a = orbital_local.tilde_I_plus_scaled(m, pt, q, eta_val)
                    b = orbital_local.tilde_I_plus_oracle_scaled(m, pt, q, eta_val)
                    if a != b:
                        bad += 1
    out.append(CheckResult("orbital.tilde-I-plus-vs-shell-oracle", bad == 0, f"{bad} failures"))

    bad = 0
    for q in QS:
        for eta_val in (-1, 1):
            for n in range(0, 4):
                for pt in pts:
                    if n >= 1 and pt.ordb <= -n and orbital_local.tilde_delta(n, pt, eta_val) != 0:
                        bad += 1
                    if pt.ordb < 0 and orbital_local.lambda_v(pt) != 0:
                        bad += 1
    out.append(CheckResult("orbital.support-indicators", bad == 0))
    return out


# ---------------------------------------------------------------------------
# suite: arch


def suite_arch(seed: int = 0) -> list[CheckResult]:
    out = []
    ls = (6, 8, 10)
    bs = (Fraction(1, 3), Fraction(-1, 3), Fraction(-1, 2), Fraction(-3), Fraction(2), Fraction(10))
    pairs = [(l, b) for l in ls for b in bs]
    quads = [quad for l in ls for quad in orbital_arch.w_plus_quads(l, [float(b) for b in bs])]
    worst_rel = worst_abs = 0.0
    for (l, b), quad in zip(pairs, quads):
        closed = orbital_arch.w_plus(l, b)
        diff = abs(closed - quad)
        if b == Fraction(-1, 2):
            # W_+(-1/2) vanishes identically (t -> 1/t symmetry); the oracle
            # returns float noise there, so that point alone is compared absolutely
            worst_abs = max(worst_abs, diff)
        else:
            worst_rel = max(worst_rel, diff / abs(quad))
    out.append(CheckResult("arch.w-plus-closed-vs-quadrature", worst_rel <= 1e-6 and worst_abs <= 1e-12,
                           f"{len(pairs)} pairs, max rel err {worst_rel:.2e} where W_+ != 0, "
                           f"abs err {worst_abs:.2e} at b = -1/2"))

    worst = 0.0
    for k in (4, 6, 8):
        for b in (-1.5, -2.0, -3.0, -7.5, -40.0, -12.0):
            lhs = orbital_arch.j_arch(k, b, "one", use_functional_equation=False)
            rhs = (-1) ** (k // 2) * orbital_arch.j_arch(k, -b - 1, "one")
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out.append(CheckResult("arch.j-functional-equation", worst <= 1e-10, f"max rel err {worst:.2e}"))

    val = orbital_arch.j_arch(4, -0.5, "one")
    out.append(CheckResult("arch.j-legendre-value", val == -4.0, f"J(4; -1/2) = {val}"))

    worst_c = 0.0
    for k in (6, 8):
        for eps in (0.05, 0.25):
            for b in np.concatenate([np.linspace(-1000, -1.01, 40), np.linspace(-0.99, -0.01, 30),
                                     np.linspace(0.01, 1000, 40)]):
                j = abs(orbital_arch.j_arch(k, float(b), "one"))
                env = orbital_arch.j_arch_bound_envelope(k, float(b), eps)
                worst_c = max(worst_c, abs(b * (b + 1)) ** eps * j / env)
    out.append(CheckResult("arch.j-decay-envelope", worst_c < 50.0, f"fitted constant {worst_c:.2f}"))

    # J^eps against the quadrature of its defining integral, over every branch
    # of j_arch: the log formula (-1 < b < 0); gauss_2f1's log expansion
    # (0 < b < 3/7) and series (b >= 3/7); and b < -1 both through the
    # functional equation and directly, by Pfaff (-1.2: log expansion, -2:
    # series) and by the series at x = 1/(b+1) in [-0.7, 0) (-10).  Where
    # J^sgn = 0 (b(b+1) > 0), the integral without its prefactor
    # i^(k/2) (1+b)^(-k/2) is compared with 0 absolutely.
    worst_rel = worst_abs = 0.0
    pairs = [(k, b) for k in (4, 6, 8, 10) for b in (-0.7, -0.1, 0.2, 1.0, 4.0, -1.2, -2.0, -10.0)]
    for k, b in pairs:
        for eps in ("one", "sgn"):
            quad = orbital_arch.j_arch_quad(k, b, eps)
            for fe in (True, False):   # read by j_arch only when b < -1
                closed = orbital_arch.j_arch(k, b, eps, use_functional_equation=fe)
                if closed == 0:
                    worst_abs = max(worst_abs, abs(quad) * abs(1 + b) ** (k // 2))
                else:
                    worst_rel = max(worst_rel, abs(closed - quad) / abs(closed))
    out.append(CheckResult("arch.j-closed-vs-quadrature", worst_rel <= 1e-9 and worst_abs <= 1e-9,
                           f"{len(pairs)} (k, b) pairs, both eps, max rel err {worst_rel:.2e} where J != 0, "
                           f"abs err {worst_abs:.2e} of the unscaled integral where J = 0"))
    return out


# ---------------------------------------------------------------------------
# suite: lattice


def suite_lattice(seed: int = 0) -> list[CheckResult]:
    out = []
    zeta2 = math.pi ** 2 / 6

    lat = lattice.embed_ideal("Q", 1)
    th = lattice.theta(lat, [4], 1e4)
    exact = 2 * (zeta2 - 1)
    ok1 = abs(th["value"] - exact) <= th["tail_bound"]
    ok2 = abs(th["value"] + th["tail_estimate"] - exact) <= 1e-6
    out.append(CheckResult("lattice.theta-Z-weight-4", ok1 and ok2,
                           f"value {th['value']:.9f} (+tail est) vs {exact:.9f}, bound {th['tail_bound']:.1e}"))

    lat2 = lattice.embed_ideal("Q", 2)
    th2 = lattice.theta(lat2, [4], 1e4)
    exact2 = math.pi ** 2 / 4 - 2
    out.append(CheckResult("lattice.theta-2Z-scaling",
                           abs(th2["value"] + th2["tail_estimate"] - exact2) <= 1e-6,
                           f"value {th2['value']:.9f} vs {exact2:.9f}"))

    worst = 0.0
    for lam in ((0.5, 0.0), (0.3, 0.2), (0.0, 0.0), (-0.5, 0.75), (0.25, -0.25)):
        a = lattice.sphere_I(lam)
        b = lattice.sphere_I_quad(lam)
        worst = max(worst, abs(a - b) / abs(a))
    out.append(CheckResult("lattice.sphere-I-closed-vs-quad", worst <= 1e-6, f"max rel err {worst:.2e}"))

    # theta-estimate boundedness over N*Z and over an ideal chain in Q(sqrt 2)
    ratios = []
    ns = [1, 3, 10, 31, 100, 316, 1000, 3162, 10000]
    lat0 = lattice.embed_ideal("Q", 1)
    r0 = lattice.min_vector_radius(lat0)
    for N in ns:
        latn = lattice.embed_ideal("Q", N)
        t = lattice.theta(latn, [4], max(1e4, 50 * N))["value"]
        env = (1 + r0) ** 2 * latn.covolume ** (1 - 2)
        ratios.append(t / env)
    slope = float(np.polyfit(np.log(ns), np.log(ratios), 1)[0])
    ok_q = max(ratios) <= ratios[0] * 1.01 and slope <= 0.05
    chain_ratios = []
    o2 = lattice.embed_ideal("real_quadratic", "O", m=2)
    r0 = lattice.min_vector_radius(o2)
    d0 = o2.covolume
    for k in range(0, 7):
        ideal_k = lattice.embed_ideal("real_quadratic", _sqrt2_power(k), m=2)
        t = lattice.theta(ideal_k, [6, 6], 60.0 * 2 ** (k / 2))["value"]
        env = (1 + r0) ** 6 / d0 * ideal_k.covolume ** ((1 - 3) / 2)
        chain_ratios.append(t / env)
    slope2 = float(np.polyfit(np.arange(len(chain_ratios)), np.log(chain_ratios), 1)[0])
    ok_chain = max(chain_ratios) <= max(1.05 * chain_ratios[0], chain_ratios[0] + 1e-9) and slope2 <= 0.05
    out.append(CheckResult("lattice.theta-estimate-bounded",
                           ok_q and ok_chain,
                           f"NZ slope {slope:.3f}, sqrt2-chain slope {slope2:.3f}"))

    ok = True
    for k in range(0, 7):
        ideal_k = lattice.embed_ideal("real_quadratic", _sqrt2_power(k), m=2)
        ok = ok and lattice.minkowski_sandwich_ok(ideal_k)
    for N in (1, 2, 5, 17):
        ok = ok and lattice.minkowski_sandwich_ok(lattice.embed_ideal("Q", N))
    out.append(CheckResult("lattice.minkowski-sandwich", ok))

    ideal_3 = lattice.embed_ideal("real_quadratic", 3, m=2)
    audits = lattice.bound_audits(ideal_3, lattice.embed_ideal("real_quadratic", "O", m=2), [6, 6],
                                  lattice.theta(ideal_3, [6, 6], 200.0)["value"])
    out.append(CheckResult("lattice.containment-audits",
                           audits["covering_ok"] and audits["submultiplicative_ok"] and audits["minkowski_ok"]))

    # hyperbolic lattice-sum slope (plain and log-weighted archimedean factor)
    ns = [10, 31, 100, 316, 1000, 3162, 10000]
    vals = [lattice.fI_rational(6, N, 1, 0.0, K=200) for N in ns]
    slope = float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    out.append(CheckResult("lattice.fI-slope", slope <= -1.9, f"fitted exponent {slope:.3f} <= -1.9"))

    wh = lattice.w_hyp_arch_audit(6, ns=(10, 100, 1000, 10000), K=40)
    out.append(CheckResult("lattice.w-hyp-arch-slope", wh["slope"] <= wh["target"],
                           f"fitted exponent {wh['slope']:.3f} <= {wh['target']:.1f}"))

    audit = lattice.phi_mellin_audit([6.0, 6.0], [31.6, 100.0, 316.0, 1000.0, 3162.0, 10000.0])
    rel = abs(audit["slope"] - audit["expected_slope"]) / abs(audit["expected_slope"])
    exact1 = lattice.phi_spheres([6.0], [3.0]) == [2 * 4.0 ** -3]
    out.append(CheckResult("lattice.phi-mellin-slope", rel <= 0.05 and exact1,
                           f"slope {audit['slope']:.3f} vs {audit['expected_slope']:.3f}"))
    return out


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
    if (-1) ** eta.eps * eta.tilde_eta_ideal(n) != -1:
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
    worst_float = 0.0
    for _ in range(50):
        eta, n, a = random_minus_config(rng)
        lhs = assembly.geom_kernel_bracket(n, a, eta)
        rhs = assembly.main_ADL_bracket(n, a, eta)
        if lhs != rhs:
            bad_exact += 1
        w = assembly.WeightData(tuple(rng.choice((6, 8, 10)) for _ in eta.arch_signs))
        consts = assembly.AnalyticConsts(D_F=rng.uniform(1, 30), L1_eta=rng.uniform(0.1, 3),
                                         Lp_over_L=rng.uniform(-2, 2))
        bnd = consts.bindings(w, eta)
        worst_float = max(worst_float, abs(lhs.evaluate(bnd) - rhs.evaluate(bnd)))
    dt = time.monotonic() - t0
    out.append(CheckResult("assembly.headline-identity-50",
                           bad_exact == 0 and dt < 10.0,
                           f"{bad_exact} exact failures, float gap {worst_float:.1e}, {dt:.2f}s"))

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
