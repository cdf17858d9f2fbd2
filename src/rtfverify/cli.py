"""Command-line surface: closed forms, oracle tables and the verify suites.

See docs/formats.md for the CSV column layouts.

`rtf` is main(argv), which may be called any number of times in one
process.  build_parser is the one definition of the grammar, built on the
first call and reused.  main gives argv[1:] straight to the parser of the
subcommand argv[0] names; the top-level parser serves only help, a missing
or unknown command, and arguments the subcommand leaves over.  Each command
writes its JSON output in one piece.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import assembly, lattice, ntransform, orbital_arch, orbital_local, spectral, testfns, verify
from .errors import InputError, RTFError, SignClassError
from .formal import FormalLog
from .ideals import Ideal, json_value, load_config, parse_ideal, residue_cardinality

# rtf moments: the largest n.  The contour oracle's cost grows as n^2, and no
# n above 64 passes its refinement check; docs/formats.md lists the first n
# that fails it at each q (63 at q = 2, 42/45 at q = 3, 21 at q = 13).
MOMENTS_MAX_N = 64
# rtf arch: the largest l.  Up to it w_plus_quads agrees with w_plus to
# 2.4e-15 relative over 1000 random (l, b), b = +-m/d, m <= 10^6, d <= 10^4,
# and past it to 2.5e-15 at l = 40 over 60 such b; a raise waits on a sweep
# of both oracles on both sides of the cut up to l = 170.
ARCH_MAX_L = 26
# rtf ntransform --fn norm^t: the largest result it prints.  to_json writes
# the result's numerator and denominator in decimal, and Python refuses to
# print an int of more than 4300 digits (sys.get_int_max_str_digits); an int
# below 2^14281 has at most 4300.  A t is refused when the bound of
# _norm_power_bits passes it, before any power is formed.
NTRANSFORM_MAX_BITS = 14281
# rtf lattice: the largest weight.  Raising it waits on a sweep of theta,
# its tail bound and the audits past it, as ARCH_MAX_L waits on one of the
# W_+ oracles.  The envelope is no bar: lattice.theta_envelope forms it from
# logs where a factor leaves the float range, 3.3e238 at l = 2000 on O_Q(sqrt2).
LATTICE_MAX_L = 1327


def _parsed(option: str, text: str, convert):
    """convert(text); text that convert cannot read ends in an InputError
    naming the option and the text."""
    try:
        return convert(text)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"{option} {text!r}: {exc}") from None


def _int_span(text: str) -> range:
    """"lo..hi", inclusive, lo <= hi."""
    if text.count("..") != 1:
        raise ValueError("lo..hi expected")
    lo, hi = map(int, text.split(".."))
    if lo > hi:
        raise ValueError("lo <= hi required")
    return range(lo, hi + 1)


def _finite_rational(text: str) -> Fraction:
    """A rational number no larger in size than the largest float."""
    value = Fraction(text)
    if abs(value) > sys.float_info.max:
        raise ValueError("past the float range")
    return value


def _weights(text: str) -> list[float]:
    """Comma-separated finite weights, none above LATTICE_MAX_L."""
    l = [float(x) for x in text.split(",")]
    if not all(math.isfinite(x) and x <= LATTICE_MAX_L for x in l):
        raise ValueError(f"finite weights <= {LATTICE_MAX_L} required")
    return l


def _json_object(text: str, key: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"a JSON object with the key {key!r} expected")
    return obj


def _quadratic_field(text: str) -> int:
    """m of "Q(sqrtm)"."""
    if not (text.startswith("Q(sqrt") and text.endswith(")")):
        raise ValueError('Q or "Q(sqrtm)" expected')
    return int(text[len("Q(sqrt"):-1])


def _norm_power_bits(n: Ideal, t: Fraction) -> Fraction:
    """A bound on the bits of the numerator and of the denominator of the
    transform of norm^t at n, from |t| and n's exponents.  With
    b_v = (q_v - 1).bit_length() >= log2 q_v, norm(n)^|t| is below
    2^(|t| sum_v e_v b_v), and the place factor 1 - c_v q_v^(-2(1+t)) of a
    place with e_v >= 2 has both parts below 2^((2|t| + 3) b_v + 1), at most
    2^((|t| + 2) e_v b_v + 1); their product is below
    2^((2|t| + 2) sum_v e_v b_v + #places)."""
    return (2 * abs(t) + 2) * sum(e * (p.q - 1).bit_length() for p, e in n) + len(n)


def cmd_ntransform(args) -> int:
    primes, _eta, _raw = load_config(args.config)
    n = parse_ideal(args.ideal, primes)
    if args.fn == "one":
        val = ntransform.closed_power(n, 0) if args.closed else ntransform.n_transform(ntransform.one_fn(), n)
        out = FormalLog(val)
    elif args.fn == "lognorm":
        out = ntransform.closed_log(n) if args.closed else ntransform.n_transform(ntransform.log_norm, n)
    elif args.fn.startswith("norm^"):
        t = _parsed("--fn", args.fn, lambda text: Fraction(text.split("^", 1)[1]))
        if _norm_power_bits(n, t) > NTRANSFORM_MAX_BITS:
            raise InputError(f"--fn {args.fn!r} at --ideal {args.ideal!r}: the result could have more "
                             f"than 4300 digits, past what Python prints")
        val = ntransform.closed_power(n, t) if args.closed else ntransform.n_transform(ntransform.norm_power_fn(t), n)
        out = FormalLog(val)
    else:
        raise InputError(f"--fn {args.fn!r}: one, norm^t or lognorm expected")
    print(json.dumps({"ideal": str(n), "fn": args.fn, "result": out.to_json()}, indent=2))
    return 0


def cmd_local_weights(args) -> int:
    def read_rep(text: str) -> tuple[dict, dict]:
        obj = _json_object(text, "c")
        kwargs = {"q": args.q, "c": json_value(obj["c"], (int,), "key 'c'")}
        if "Q" in obj:
            kwargs["Q"] = Fraction(json_value(obj["Q"], (str, int), "key 'Q'"))
        if "chi" in obj:
            kwargs["chi"] = json_value(obj["chi"], (int,), "key 'chi'")
        return obj, kwargs

    if not 1 <= args.k <= spectral.MAX_K:
        raise InputError(f"--k {args.k}: k must lie in [1, {spectral.MAX_K}]")
    rep_obj, kwargs = _parsed("--rep", args.rep, read_rep)
    rep = spectral.LocalRepData(**kwargs)
    rows = []
    for k in range(1, args.k + 1):
        rows.append({
            "k": k,
            "r_center": str(spectral.r_z(rep, args.eta, k, 1)),
            "partial_r": str(spectral.partial_r(rep, args.eta, k)),
            "partial_r_sum": str(spectral.partial_r_sum(rep, args.eta, k)),
        })
    print(json.dumps({"rep": rep_obj, "q": args.q, "eta": args.eta, "table": rows}, indent=2))
    return 0


def cmd_moments(args) -> int:
    ns = _parsed("--n", args.n, _int_span)
    if max(ns, default=0) > MOMENTS_MAX_N:
        raise InputError(f"--n {args.n!r}: n <= {MOMENTS_MAX_N} required")
    u_quads, du_quads = testfns.period_integrals([(testfns.upsilon_kernel, args.eta), (testfns.dunip_kernel, args.eta)],
                                                 args.q, [testfns.alpha_pn_at(n) for n in ns])
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "U_closed", "U_quad", "U_abs_err", "dU_closed", "dU_quad", "dU_abs_err"])
    for n, u_quad, du_quad in zip(ns, u_quads, du_quads):
        u_quad, du_quad = u_quad.real, du_quad.real
        u_closed = testfns.unip_u(args.q, args.eta, n)
        du_closed = testfns.unip_du(args.q, args.eta, n)
        writer.writerow([n, f"{u_closed:.12g}", f"{u_quad:.12g}", f"{abs(u_closed - u_quad):.3e}",
                         f"{du_closed:.12g}", f"{du_quad:.12g}", f"{abs(du_closed - du_quad):.3e}"])
    return 0


def cmd_local_tables(args) -> int:
    q = residue_cardinality(_parsed("--place", args.place, lambda text: _json_object(text, "q")["q"]), "--place")
    rows = []
    for ordb in _parsed("--ordb", args.ordb, _int_span):
        pt = orbital_local.LocalPoint(ordb, 0 if ordb > 0 else (ordb if ordb < 0 else args.ordb1))
        wu = orbital_local.w_unramified(pt, q, args.eta)
        wu_o = orbital_local.w_unramified_oracle(pt, q, args.eta)
        wl = orbital_local.w_level(pt, args.ordn, q, args.eta)
        wl_o = orbital_local.w_level_oracle(pt, args.ordn, q, args.eta)
        wr = orbital_local.w_ramified(pt, args.f, q, 1, 1)
        wr_b = orbital_local.w_ramified_bound(pt, args.f, q)
        delta_u = 0.0 if wu == wu_o else (wu - wu_o).evaluate()
        delta_l = 0.0 if wl == wl_o else (wl - wl_o).evaluate()
        rows.append([ordb, pt.ordb1,
                     f"{wu.evaluate():.10g}", f"{delta_u:.3e}",
                     f"{wl.evaluate():.10g}", f"{delta_l:.3e}",
                     f"{wr * math.log(q):.10g}", f"{wr_b * math.log(q):.10g}"])
    # written after the loop, so a refused input leaves stdout empty
    writer = csv.writer(sys.stdout)
    writer.writerow(["ordb", "ordb1", "W_unram", "W_unram_oracle_delta",
                     "W_level", "W_level_oracle_delta", "W_ram", "W_ram_bound"])
    writer.writerows(rows)
    return 0


def cmd_arch(args) -> int:
    if args.l > ARCH_MAX_L:
        raise InputError(f"--l {args.l}: l <= {ARCH_MAX_L} required")
    b = _parsed("--b", args.b, _finite_rational)
    bf = float(b)
    j_one, j_sgn = orbital_arch.j_arch(args.l, bf)
    wp = orbital_arch.w_plus(args.l, b)
    (wq,) = orbital_arch.w_plus_quads(args.l, [bf])
    eps_m1 = -1 if args.eps == "sgn" else 1
    print(json.dumps({
        "l": args.l, "b": bf,
        "J_one": [j_one.real, j_one.imag],
        "J_sgn": [j_sgn.real, j_sgn.imag],
        "W_plus": [wp.real, wp.imag],
        "W_eps": [(wp + eps_m1 * wp.conjugate()).real, (wp + eps_m1 * wp.conjugate()).imag],
        "oracle_delta": abs(wp - wq),
    }, indent=2))
    return 0


def cmd_lattice(args) -> int:
    if args.field == "Q":
        lat = lattice.embed_ideal("Q", args.ideal if args.ideal != "O" else 1)
        ambient = lattice.embed_ideal("Q", 1)
    else:
        m = _parsed("--field", args.field, _quadratic_field)
        desc = "O" if args.ideal == "O" else _parsed("--ideal", args.ideal, int)
        lat = lattice.embed_ideal("real_quadratic", desc, m=m)
        ambient = lattice.embed_ideal("real_quadratic", "O", m=m)
    # one weight 6 per coordinate unless given
    l = _parsed("--l", args.l, _weights) if args.l is not None else [6.0] * lat.d
    th = lattice.theta(lat, l, args.R)
    audits = lattice.bound_audits(lat, ambient, l, th["value"])
    print(json.dumps({
        "provenance": lat.provenance,
        "theta": th["value"],
        "tail_bound": th["tail_bound"],
        "tail_estimate": th["tail_estimate"],
        "points": th["count"],
        "r": lat.packing_radius,
        "covol": lat.covolume,
        "audits": audits,
    }, indent=2))
    return 0


def cmd_main_terms(args) -> int:
    primes, eta, raw = load_config(args.config)
    n = parse_ideal(args.n, primes)
    a = parse_ideal(args.a, primes)
    # both main terms scale by norm(a)^(-1/2), taken in floats
    if a.norm > sys.float_info.max:
        raise InputError(f"--a {args.a!r}: norm(a) is past the float range")
    cobj = json_value(raw.get("consts", {}), (dict,), "config 'consts'")

    def const(key: str) -> float:
        owner = f"config consts {key!r}"
        return _parsed(owner, json_value(cobj[key], (int, float), owner), float)

    consts = assembly.AnalyticConsts(**{key: const(key) for key in ("D_F", "L1_eta", "Lp_over_L") if key in cobj})
    w = assembly.WeightData(tuple(
        json_value(lv, (int,), "config 'weights' entry")
        for lv in json_value(raw.get("weights", [6] * len(eta.arch_signs)), (list,), "config 'weights'")))
    cls = None
    payload = {"n": str(n), "a": str(a), "nu": str(assembly.nu_of_n(n)),
               "X_n": assembly.x_of_n(n).to_json(), "C_l": assembly.c_l(w),
               "frak_C": assembly.frak_c(w, eta)}
    try:
        payload["AL_main"] = assembly.main_AL(n, a, eta, consts, w)
        cls = "+"
    except SignClassError:
        pass
    try:
        bracket = assembly.main_ADL_bracket(n, a, eta)
        geom = assembly.geom_kernel_bracket(n, a, eta)
        payload["ADL_bracket"] = bracket.to_json()
        payload["ADL_main"] = assembly.main_ADL_value(bracket, a, eta, consts, w)
        payload["geom_equals_main"] = bracket == geom
        cls = "-"
    except SignClassError:
        pass
    payload["sign_class"] = cls
    if args.out == "json":
        print(json.dumps(payload, indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(sorted(payload))
        writer.writerow([json.dumps(payload[k]) if isinstance(payload[k], dict) else payload[k]
                         for k in sorted(payload)])
    return 0


def cmd_verify(args) -> int:
    names = None if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, seed=args.seed)
    failures = 0
    for res in results:
        print(res.line())
        failures += not res.ok
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rtf parser, built on the first call and shared by every later
    main call in the process."""
    ap = argparse.ArgumentParser(prog="rtf", description="Command-line surface: closed forms, oracle tables and "
                                 "the verify suites. See docs/formats.md for the CSV column layouts.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ntransform", help="transform of a named arithmetic function")
    p.add_argument("--config", required=True)
    p.add_argument("--fn", default="one", help="one | norm^t | lognorm")
    p.add_argument("--ideal", required=True)
    p.add_argument("--closed", action="store_true", help="use the closed form instead of the defining sum")
    p.set_defaults(func=cmd_ntransform)

    p = sub.add_parser("local-weights", help="r, partial r table for a local datum")
    p.add_argument("--rep", required=True, help='e.g. {"c":0,"Q":"1/3"}')
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eta", type=int, choices=(1, -1), required=True)
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(func=cmd_local_weights)

    p = sub.add_parser("moments", help="unipotent moments: closed vs contour quadrature")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--eta", type=int, choices=(1, -1), required=True)
    p.add_argument("--n", default="0..8")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("local-tables", help="orbital integral tables with oracle deltas")
    p.add_argument("--place", required=True, help='e.g. {"q":3}')
    p.add_argument("--eta", type=int, choices=(1, -1), required=True)
    p.add_argument("--ordb", default="-3..6")
    p.add_argument("--ordb1", type=int, default=0)
    p.add_argument("--ordn", type=int, default=1)
    p.add_argument("--f", type=int, default=1)
    p.set_defaults(func=cmd_local_tables)

    p = sub.add_parser("arch", help="archimedean J and W values with the quadrature delta")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--eps", default="one", choices=("one", "sgn"))
    p.set_defaults(func=cmd_arch)

    p = sub.add_parser("lattice", help="theta sum of an embedded ideal")
    p.add_argument("--field", default="Q", help='Q or "Q(sqrt2)"')
    p.add_argument("--ideal", default="O")
    p.add_argument("--l", help="comma list of weights, one per coordinate (default 6 each)")
    p.add_argument("--R", type=float, default=50.0)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("main-terms", help="main terms of the two averages")
    p.add_argument("--config", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--a", default="O")
    p.add_argument("--out", default="json", choices=("json", "csv"))
    p.set_defaults(func=cmd_main_terms)

    p = sub.add_parser("verify", help="run invariant suites; nonzero exit on failure")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(verify.SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    ap.subcommands = sub.choices      # name -> subcommand parser, read by main
    return ap


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  argv[1:] goes straight to the parser of the
    subcommand argv[0] names; the top-level parser serves the rest (no
    arguments, -h, an unknown command, or arguments the subcommand leaves
    over), with the usage and errors a parse of all of argv gives.  A
    toolkit error (an RTFError, which names the input it refused) ends the
    command with one line on stderr and exit status 2.  A stdout whose
    reader is gone ends it with status 1 and nothing on stderr.  Any other
    exception is a bug and propagates with its traceback."""
    argv = sys.argv[1:] if argv is None else argv
    ap = build_parser()
    sub = ap.subcommands.get(argv[0]) if argv else None
    args, extra = sub.parse_known_args(argv[1:]) if sub else (None, None)
    if args is None or extra:
        args = ap.parse_args(argv)
    else:
        args.cmd = argv[0]
    try:
        rc = args.func(args)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return rc
    except RTFError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the recipe of the Python signal docs: stdout goes to devnull, so the
        # flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
