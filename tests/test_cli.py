import argparse
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from rtfverify import assembly, cli, orbital_arch, orbital_local, testfns
from rtfverify.formal import FormalLog

CFG = {
    "schema": 1,
    "primes": [{"id": "p", "q": 3}, {"id": "q", "q": 2}, {"id": "r", "q": 5}],
    "eta": {"eps": 1, "arch_signs": [-1], "ram": {"r": 1}, "unram": {"p": -1, "q": -1}},
    "consts": {"D_F": 5.0, "L1_eta": 0.8, "Lp_over_L": 0.3},
    "weights": [6],
}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG))
    return str(path)


def test_ntransform_command(cfg_path, capsys):
    rc = cli.main(["ntransform", "--config", cfg_path, "--fn", "lognorm", "--ideal", "p^2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["coeffs"] == {"log@3": "2"}
    rc = cli.main(["ntransform", "--config", cfg_path, "--fn", "norm^1", "--ideal", "p^2", "--closed"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["result"]["const"] == "53/6"


def test_local_weights_command(capsys):
    rc = cli.main(["local-weights", "--rep", '{"c":0,"Q":"1/3"}', "--q", "3", "--eta", "-1", "--k", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["table"][1]["r_center"] == "2"
    assert out["table"][1]["partial_r"] == out["table"][1]["partial_r_sum"]


def test_moments_command(capsys):
    rc = cli.main(["moments", "--q", "3", "--eta", "-1", "--n", "0..2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("n,U_closed")
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) < 1e-9 and float(cells[6]) < 1e-9


def test_moments_command_matches_row_by_row(capsys):
    rc = cli.main(["moments", "--q", "3", "--eta", "-1", "--n", "0..8"])
    assert rc == 0
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["n", "U_closed", "U_quad", "U_abs_err", "dU_closed", "dU_quad", "dU_abs_err"])
    for n in range(9):
        u_closed = float(testfns.unip_u_scaled(-1, n)) * 3 ** (-n / 2)
        du_closed = float(testfns.unip_du_scaled(-1, n)) * 3 ** (-n / 2) * math.log(3)
        # one-item calls, which have the bits of the command's batched ones
        ((u_quad,),) = testfns.period_integrals([(testfns.upsilon_kernel, -1)], 3, [testfns.alpha_pn_at(n)])
        ((du_quad,),) = testfns.period_integrals([(testfns.dunip_kernel, -1)], 3, [testfns.alpha_pn_at(n)])
        u_quad, du_quad = u_quad.real, du_quad.real
        writer.writerow([n, f"{u_closed:.12g}", f"{u_quad:.12g}", f"{abs(u_closed - u_quad):.3e}",
                         f"{du_closed:.12g}", f"{du_quad:.12g}", f"{abs(du_closed - du_quad):.3e}"])
    assert capsys.readouterr().out == want.getvalue()


def test_moments_failure_names_n(capsys):
    # past the contour oracle's frontier at q = 13: the message names the
    # failing n itself beside its position in the --n span
    rc = cli.main(["moments", "--q", "13", "--eta", "1", "--n", "15..25"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    match = re.fullmatch(r"ConvergenceError: period integral of kernel \w+ at q=13, eta=1, sigma=0\.7, steps=4096, "
                         r"alpha #(\d+) \(alpha_\[p\^(\d+)\]\): refinement gap \d\.\d{3}e-\d\d",
                         captured.err.rstrip("\n"))
    assert match, captured.err
    assert int(match[2]) == 15 + int(match[1])


def test_local_tables_command(capsys):
    rc = cli.main(["local-tables", "--place", '{"q":3}', "--eta", "-1", "--ordb=-2..3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) == 0.0 and float(cells[5]) == 0.0


@pytest.mark.parametrize("argv, line", [
    (["local-weights", "--rep", '{"c":2}', "--q", "3", "--eta", "1", "--k", "0"],
     "InputError: --k 0: k must lie in [1, 64]"),
    (["local-weights", "--rep", '{"c":2}', "--q", "3", "--eta", "1", "--k", "65"],
     "InputError: --k 65: k must lie in [1, 64]"),
    (["local-tables", "--place", '{"q":3}', "--eta", "1", "--ordb=5..2"],
     "InputError: --ordb '5..2': lo <= hi required"),
    (["moments", "--q", "3", "--eta", "1", "--n", "5..2"], "InputError: --n '5..2': lo <= hi required"),
])
def test_range_refusals_name_the_option(argv, line, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("oracle, column", [("w_unramified_oracle", 3), ("w_level_oracle", 5)])
def test_local_tables_delta_shows_an_oracle_off_by_1e_30(oracle, column, capsys, monkeypatch):
    """A delta is printed 0 where closed form and oracle are equal and is
    their exact difference elsewhere: an oracle moved by 10^-30 log q gives
    a nonzero delta in its column on every row, and the other column stays
    0."""
    argv = ["local-tables", "--place", '{"q":9}', "--eta", "-1", "--ordb=-2..6", "--ordb1", "2", "--ordn", "1"]
    assert cli.main(argv) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == 9 and all(row[3] == row[5] == "0.000e+00" for row in rows)
    exact = getattr(orbital_local, oracle)
    monkeypatch.setattr(orbital_local, oracle,
                        lambda *args: exact(*args) + FormalLog.log_integer(9, Fraction(1, 10 ** 30)))
    assert cli.main(argv) == 0
    for row in list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]:
        assert row[column] == f"{-2e-30 * math.log(3):.3e}" == "-2.197e-30", row
        assert row[8 - column] == "0.000e+00"


def test_arch_command(capsys):
    rc = cli.main(["arch", "--l", "6", "--b", "-0.5", "--eps", "sgn"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle_delta"] < 1e-9
    assert out["J_sgn"][1] == pytest.approx(-3.141592653589793)


@pytest.mark.parametrize("b", ["0.4141701729754739", "-1.4141701729754739"])
def test_arch_j_one_at_the_largest_l_meets_its_quadrature(capsys, b):
    # at l = 26, the largest l rtf arch takes, one point on each side of the cut
    assert cli.main(["arch", "--l", "26", "--b", b]) == 0
    j_one = complex(*json.loads(capsys.readouterr().out)["J_one"])
    ((quad, _sgn),) = orbital_arch.j_arch_quads(26, [float(b)])
    assert abs(j_one - quad) <= 1e-9 * abs(quad)


def test_lattice_command(capsys):
    rc = cli.main(["lattice", "--field", "Q(sqrt2)", "--ideal", "O", "--l", "6,6", "--R", "40"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["covol"] == pytest.approx(2 * 2 ** 0.5)
    assert out["theta"] > 0


def test_lattice_default_weights_fit_the_field(capsys):
    # --l defaults to one weight 6 per coordinate of the chosen field
    for argv, rank in ((["lattice"], 1), (["lattice", "--field", "Q(sqrt2)"], 2)):
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        want = cli.main(argv + ["--l", ",".join(["6"] * rank)])
        assert want == 0 and json.loads(capsys.readouterr().out) == out


def test_main_terms_command(cfg_path, capsys):
    rc = cli.main(["main-terms", "--config", cfg_path, "--n", "p^2", "--a", "O"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sign_class"] == "-"
    assert out["geom_equals_main"] is True
    assert out["nu"] == "5/6"
    rc = cli.main(["main-terms", "--config", cfg_path, "--n", "p^2", "--a", "q^2", "--out", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


@pytest.mark.parametrize("n, a", [("p^2", "O"), ("p^2", "q^2"), ("p^4", "q"), ("p^3*q", "O")])
def test_main_terms_builds_the_bracket_once(n, a, cfg_path, capsys, monkeypatch):
    built = []
    real = assembly.main_ADL_bracket

    def counted(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(assembly, "main_ADL_bracket", counted)
    assert cli.main(["main-terms", "--config", cfg_path, "--n", n, "--a", a]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sign_class"] == "-" and len(built) == 1
    # ADL_main is the scaled bracket, with the bits of a second build of it
    primes, eta, _raw = cli.load_config(cfg_path)
    a_ideal = cli.parse_ideal(a, primes)
    consts, w = assembly.AnalyticConsts(**CFG["consts"]), assembly.WeightData(tuple(CFG["weights"]))
    again = real(cli.parse_ideal(n, primes), a_ideal, eta)
    assert again == built[0] and out["ADL_bracket"] == again.to_json()
    want = assembly.main_term_scale(a_ideal, consts, again.evaluate(consts.bindings(w, eta)))
    assert out["ADL_main"] == want


def test_main_terms_at_a_large_prime_reads_logs_from_exponents(tmp_path, capsys):
    # log norm(p^2) is read from p's exponent: factoring norm(p^2) = q^2 by
    # trial division would take minutes at q = 1000000007
    path = tmp_path / "cfg.json"
    primes = [{**prime, "q": 1000000007} if prime["id"] == "p" else prime for prime in CFG["primes"]]
    path.write_text(json.dumps({**CFG, "primes": primes}))
    assert cli.main(["main-terms", "--config", str(path), "--n", "p^2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["geom_equals_main"] is True and out["ADL_bracket"]["coeffs"]["log@1000000007"] == "1"


@pytest.mark.parametrize("weight", [180, 200, 400])
def test_main_terms_c_l_is_finite_at_large_weights(weight, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CFG, "weights": [weight]}))
    assert cli.main(["main-terms", "--config", str(path), "--n", "p^2"]) == 0
    c_l = json.loads(capsys.readouterr().out)["C_l"]
    assert math.isfinite(c_l) and c_l == assembly.c_l(assembly.WeightData((weight,)))


def test_main_terms_c_l_past_the_float_range_ends_in_one_line(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CFG, "weights": [2000]}))
    rc = cli.main(["main-terms", "--config", str(path), "--n", "p^2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("DomainError: ") and "[2000]" in lines[0]


# the config of CI's minus.json, with its minus-class level p^2 q^4
MINUS_CFG = {
    "schema": 1,
    "primes": [{"id": "p", "q": 3}, {"id": "q", "q": 4}, {"id": "s", "q": 9}, {"id": "r", "q": 2}],
    "eta": {"eps": 1, "arch_signs": [-1], "ram": {"r": 1}, "unram": {"p": -1, "q": -1, "s": 1}},
    "consts": {"D_F": 8, "L1_eta": 0.7, "Lp_over_L": 0.25},
}


@pytest.mark.parametrize("consts, shown", [
    # D_F^(3/2) passes the float range, or 4 D_F^(3/2) L1_eta does
    ({"D_F": 1e300}, r"D_F=1e\+300, L1_eta=0\.7, Lp_over_L=0\.25"),
    ({"L1_eta": 1e308}, r"D_F=8\.0, L1_eta=1e\+308, Lp_over_L=0\.25"),
    # a finite scale 9.8e306, times the bracket
    ({"D_F": 1e205}, r"D_F=1e\+205, L1_eta=0\.7, Lp_over_L=0\.25"),
])
def test_main_terms_past_the_float_range_ends_in_one_line(consts, shown, tmp_path, capsys):
    path = tmp_path / "minus.json"
    path.write_text(json.dumps({**MINUS_CFG, "consts": {**MINUS_CFG["consts"], **consts}}))
    rc = cli.main(["main-terms", "--config", str(path), "--n", "p^2*q^4", "--a", "s^2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert re.fullmatch(rf"DomainError: the main term overflows a float at AnalyticConsts\({shown}\)",
                        captured.err.rstrip("\n"))


def test_main_terms_propagates_unexpected_errors(cfg_path, monkeypatch):
    # only a SignClassError means "not this sign class"; a bug must surface
    def broken(n, a, eta):
        raise RuntimeError("bug inside the main term")

    monkeypatch.setattr(assembly, "main_ADL_bracket", broken)
    with pytest.raises(RuntimeError):
        cli.main(["main-terms", "--config", cfg_path, "--n", "p^2", "--a", "O"])


def test_toolkit_errors_end_in_one_line_and_exit_2(cfg_path, capsys):
    # r is ramified in the config, so the level r^2 is refused
    rc = cli.main(["main-terms", "--config", cfg_path, "--n", "r^2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("CoprimalityError: ") and "'r'" in lines[0]


@pytest.fixture(scope="module")
def cli_import_loads():
    """The top-level packages in sys.modules after importing rtfverify.cli in one fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, rtfverify.cli; print(*sorted({m.split('.')[0] for m in sys.modules}))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_cli_import_does_not_load_sympy(cli_import_loads):
    assert "sympy" not in cli_import_loads


def test_cli_import_does_not_load_scipy(cli_import_loads):
    assert "scipy" not in cli_import_loads


def test_cli_import_does_not_load_mpmath(cli_import_loads):
    assert "mpmath" not in cli_import_loads


@pytest.mark.parametrize("argv", [["lattice", "--field", "Q(sqrt2)", "--ideal", "3", "--R", "20", "--l", "6,6"],
                                  ["verify", "--suite", "lattice"]])
def test_lattice_leaves_numpy_random_unloaded(argv):
    # nothing on the lattice path draws random numbers, and numpy.random's
    # import would cost 10-20 ms of a lattice query
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import contextlib, io, sys, rtfverify.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert rtfverify.cli.main({argv!r}) == 0\nprint('numpy.random' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["False"]


def test_a_closed_stdout_ends_with_status_1_and_no_traceback():
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first write fails at once, as `| head` makes it fail by chance
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, rtfverify.cli; sys.exit(rtfverify.cli.main())"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-c", code, "lattice", "--field", "Q", "--ideal", "2", "--l", "6"],
                             env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert run.returncode == 1 and run.stderr == b""


def test_main_builds_the_parser_once_per_process(cfg_path, capsys, monkeypatch):
    built = []

    class CountedParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=CountedParser))
    cli.build_parser.cache_clear()
    moments = ["moments", "--q", "3", "--eta", "-1", "--n", "0..2"]
    try:
        assert cli.main(moments) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            cli.main(["moments", "--q", "3", "--eta", "2"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert cli.main(moments) == 0
        assert capsys.readouterr().out == first and first.startswith("n,U_closed")
        assert cli.main(["ntransform", "--config", cfg_path, "--fn", "lognorm", "--ideal", "p^2"]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["coeffs"] == {"log@3": "2"}
        assert cli.main(["local-tables", "--place", '{"q":3}', "--eta", "-1", "--ordb=-2..3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 7
    finally:
        cli.build_parser.cache_clear()
    assert built.count("rtf") == 1


def _top_level_main(argv: list[str]) -> int:
    """main as it was when the top-level parser read every argv."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except cli.RTFError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _outcome(run, argv: list[str], capsys) -> tuple:
    """(exit status, stdout, stderr) of run(argv), a SystemExit's code included."""
    try:
        status = run(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    # the top-level parser's own: no command, help, an unknown command
    [], ["-h"], ["--help", "arch"], ["nosuch"], ["nosuch", "--l", "6"],
    *([cmd, "--help"] for cmd in ("ntransform", "local-weights", "moments", "local-tables", "arch", "lattice",
                                  "main-terms", "verify")),
    # a subcommand's errors, and arguments it leaves over
    ["arch", "--l", "6"], ["moments", "--q", "3", "--eta", "2"], ["moments", "--q", "x", "--eta", "1"],
    ["arch", "--l", "6", "--b", "1", "extra"], ["arch", "--l", "6", "--b", "1", "--extra"],
    ["arch", "--l", "6", "--b", "1", "--", "x"],
    # one valid argv per subcommand, with an abbreviated option and a glued negative value among them
    ["ntransform", "--config", "CFG", "--fn", "lognorm", "--ideal", "p^2"],
    ["local-weights", "--rep", '{"c":0,"Q":"1/3"}', "--q", "3", "--eta", "-1", "--k", "2"],
    ["moments", "--q", "3", "--eta", "-1", "--n", "0..2"],
    ["local-tables", "--place", '{"q":3}', "--eta", "-1", "--ordb=-2..3"],
    ["arch", "--l", "6", "--b=-1/3"],
    ["lattice", "--field", "Q(sqrt2)", "--R", "20"],
    ["main-terms", "--conf", "CFG", "--n", "p^2", "--out", "csv"],
    ["verify", "--suite", "orbital", "--seed", "1"],
    # a toolkit error after a clean parse
    ["arch", "--l", "3", "--b", "1"],
])
def test_main_parses_as_the_top_level_parser(argv, cfg_path, capsys):
    # main hands argv[1:] to the subcommand's parser; each argv must give the
    # exit status, output and parsed attributes of a parse by the top-level one
    argv = [cfg_path if arg == "CFG" else arg for arg in argv]
    parsers = cli.build_parser().subcommands
    funcs = {name: parser.get_default("func") for name, parser in parsers.items()}
    parsed = []

    def spy(args):
        parsed.append(dict(vars(args)))
        return funcs[args.cmd](args)

    for parser in parsers.values():
        parser.set_defaults(func=spy)
    try:
        got = _outcome(cli.main, argv, capsys)
        want = _outcome(_top_level_main, argv, capsys)
    finally:
        for name, parser in parsers.items():
            parser.set_defaults(func=funcs[name])
    assert got == want
    assert len(parsed) in (0, 2) and parsed[:1] == parsed[1:]


def test_verify_command(capsys):
    rc = cli.main(["verify", "--suite", "weights", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS]" in out and "[FAIL]" not in out


@pytest.mark.parametrize("argv", [
    ["moments", "--q", "1", "--eta", "1"],
    ["moments", "--q", "0", "--eta", "1"],
    ["moments", "--q", "3", "--eta", "1", "--n=-1..2"],
    ["arch", "--l", "3", "--b", "1"],
    ["local-weights", "--rep", '{"c":0,"Q":"1/3"}', "--q", "1", "--eta", "1"],
    ["local-weights", "--rep", '{"c":2}', "--q", "3", "--eta", "1", "--k", "70"],
    ["local-tables", "--place", '{"q":1}', "--eta", "1"],
    ["lattice", "--field", "Q(sqrt2)", "--l", "6"],
    ["lattice", "--field", "Q", "--ideal", "0"],
    ["lattice", "--field", "Qx"],
    ["lattice", "--ideal", "x"],
    ["lattice", "--ideal", "1/0"],
    ["lattice", "--l", "x"],
    ["lattice", "--l", "6", "--R", "-1"],
    ["local-tables", "--place", "{}", "--eta", "1"],
    ["local-tables", "--place", '{"q":"x"}', "--eta", "1"],
    ["local-tables", "--place", '{"q":3}', "--eta", "1", "--ordb", "1"],
    ["local-tables", "--place", '{"q":3}', "--eta", "1", "--f", "0"],
    ["local-tables", "--place", '{"q":3}', "--eta", "1", "--ordn", "0"],
    ["local-tables", "--place", '{"q":3}', "--eta", "1", "--ordb1=-1"],
    ["local-weights", "--rep", "{}", "--q", "3", "--eta", "1"],
    ["local-weights", "--rep", "x", "--q", "3", "--eta", "1"],
    ["arch", "--l", "6", "--b", "x"],
    ["moments", "--q", "3", "--eta", "1", "--n", "x"],
    ["ntransform", "--config", "CFG", "--ideal", "x"],
    ["ntransform", "--config", "CFG", "--ideal", "p^x"],
    ["ntransform", "--config", "CFG", "--ideal", "p", "--fn", "norm^x"],
    ["ntransform", "--config", "CFG", "--ideal", "p", "--fn", "norm^1/0"],
    ["ntransform", "--config", "CFG", "--ideal", "p", "--fn", "foo"],
    ["ntransform", "--config", "CFG", "--ideal", "p^-1"],
    ["main-terms", "--config", "CFG", "--n", "x"],
    ["ntransform", "--config", "MISSING", "--ideal", "p"],
    ["main-terms", "--config", "NOT_JSON", "--n", "p"],
    ["main-terms", "--config", "SCHEMA_2", "--n", "p"],
    ["ntransform", "--config", "NO_PRIMES", "--ideal", "O"],
    ["ntransform", "--config", "NO_Q", "--ideal", "O"],
    ["main-terms", "--config", "ETA_AT_X", "--n", "p"],
    ["moments", "--q", "3", "--eta", "1", "--n", "1,3"],
    ["ntransform", "--config", "Q_TEXT", "--ideal", "O"],
    ["ntransform", "--config", "Q_1", "--ideal", "O"],
    ["ntransform", "--config", "Q_TRUE", "--ideal", "O"],
    ["ntransform", "--config", "Q_FLOAT", "--ideal", "O"],
    ["ntransform", "--config", "TOP_LIST", "--ideal", "O"],
    ["ntransform", "--config", "PRIMES_INT", "--ideal", "O"],
    ["local-tables", "--place", '{"q":3.7}', "--eta", "1"],
    ["local-tables", "--place", '{"q":true}', "--eta", "1"],
    ["arch", "--l", "6", "--b=inf"],
    ["arch", "--l", "6", "--b=nan"],
    ["arch", "--l", "6", "--b=1e400"],
    ["main-terms", "--config", "ETA_INT", "--n", "p"],
    ["main-terms", "--config", "EPS_TEXT", "--n", "p"],
    ["main-terms", "--config", "UNRAM_TEXT", "--n", "p"],
    ["main-terms", "--config", "WEIGHT_ODD", "--n", "p"],
    ["main-terms", "--config", "D_F_TEXT", "--n", "p"],
    ["main-terms", "--config", "EPS_MISCOUNT", "--n", "p"],
    ["main-terms", "--config", "WEIGHT_FLOAT", "--n", "p"],
    ["main-terms", "--config", "WEIGHTS_PER_PLACE", "--n", "p"],
    ["main-terms", "--config", "CONSTS_INT", "--n", "p"],
    ["main-terms", "--config", "D_F_BELOW_1", "--n", "p"],
    ["main-terms", "--config", "D_F_PAST_FLOAT", "--n", "p"],
    ["ntransform", "--config", "ID_LIST", "--ideal", "O"],
    ["lattice", "--R", "1e9"],
    ["lattice", "--field", "Q(sqrt2)", "--R", "1e4"],
    ["main-terms", "--config", "D_F_INF", "--n", "p"],
    ["main-terms", "--config", "L1_ETA_NAN", "--n", "p"],
    ["main-terms", "--config", "LP_OVER_L_INF", "--n", "p"],
    ["moments", "--q", "3", "--eta", "1", "--n", "0..65"],
    ["moments", "--q", "3", "--eta", "1", "--n", "60..100000"],
    ["arch", "--l", "28", "--b=-5/4"],
    ["arch", "--l", "172", "--b", "2"],
    ["arch", "--l", "2000", "--b=-1/2"],
    ["lattice", "--field", "Q", "--ideal", "3", "--R", "20", "--l", "nan"],
    ["lattice", "--field", "Q(sqrt2)", "--ideal", "3", "--R", "20", "--l", "inf,6"],
    ["lattice", "--field", "Q(sqrt2)", "--ideal", "3", "--R", "20", "--l", "1e300,6"],
    ["lattice", "--field", "Q", "--R", "20", "--l", "1e300"],
    ["lattice", "--field", "Q(sqrt2)", "--R", "20", "--l", "6,1328"],
    # --rep keys are read by JSON type, never converted
    ["local-weights", "--rep", '{"c":1.9,"chi":1}', "--q", "3", "--eta", "1"],
    ["local-weights", "--rep", '{"c":1,"chi":-1.5}', "--q", "3", "--eta", "1"],
    ["local-weights", "--rep", '{"c":true,"chi":1}', "--q", "3", "--eta", "1"],
    ["local-weights", "--rep", '{"c":"0","Q":"1/3"}', "--q", "3", "--eta", "1"],
    ["local-weights", "--rep", '{"c":0,"Q":0.1}', "--q", "3", "--eta", "1"],
    # a Satake parameter lies strictly inside (-1, 1)
    ["local-weights", "--rep", '{"c":0,"Q":3}', "--q", "3", "--eta", "1"],
    ["local-weights", "--rep", '{"c":0,"Q":"-7/2"}', "--q", "3", "--eta", "1"],
    ["local-weights", "--rep", '{"c":0,"Q":1}', "--q", "3", "--eta", "1"],
    # results past the 4300 digits Python prints, refused before any work
    ["ntransform", "--config", "CFG", "--ideal", "p^2", "--fn", "norm^5000"],
    ["ntransform", "--config", "CFG", "--ideal", "p^2", "--fn", "norm^-5000", "--closed"],
    ["ntransform", "--config", "CFG", "--ideal", "p^2", "--fn", "norm^1e400"],
    ["ntransform", "--config", "CFG", "--ideal", "p^2", "--fn", "norm^100000000"],
    ["ntransform", "--config", "CFG", "--ideal", "p^100000", "--fn", "norm^1"],
    # generators on Q outside [1e-150, 1e6], and a rank-two N past 1e6
    ["lattice", "--field", "Q", "--ideal", "1e300"],
    ["lattice", "--field", "Q", "--ideal", "1e-300"],
    ["lattice", "--field", "Q", "--ideal", "1e8"],
    ["lattice", "--field", "Q", "--ideal=-1e-400"],
    ["lattice", "--field", "Q(sqrt2)", "--ideal", "100000000"],
    # norm(a) past the float range, which both main terms scale by
    ["main-terms", "--config", "CFG", "--n", "p", "--a", "q^1024"],
    ["main-terms", "--config", "CFG", "--n", "p^2", "--a", "q^1024"],
    # a prime id declared twice, which used to keep the later prime
    ["ntransform", "--config", "ID_TWICE", "--ideal", "p^2"],
    # f = 0 where every ordb < -f, which used to skip w_ramified's f check
    ["local-tables", "--place", '{"q":3}', "--eta", "1", "--ordb=-3..-1", "--f", "0"],
    # a k below 1, which used to print an empty table
    ["local-weights", "--rep", '{"c":2}', "--q", "3", "--eta", "1", "--k", "0"],
    # empty spans lo > hi, which used to print a header and no rows
    ["local-tables", "--place", '{"q":3}', "--eta", "1", "--ordb=5..2"],
    ["moments", "--q", "3", "--eta", "1", "--n", "5..2"],
])
def test_bad_input_ends_in_one_input_error_line(argv, cfg_path, tmp_path, capsys):
    configs = {
        "NOT_JSON": "{bad",
        "SCHEMA_2": '{"schema": 2, "primes": []}',
        "NO_PRIMES": '{"schema": 1}',
        "NO_Q": '{"schema": 1, "primes": [{"id": "p"}]}',
        "ETA_AT_X": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "eta": {"unram": {"x": -1}}}',
        "Q_TEXT": '{"schema": 1, "primes": [{"id": "p", "q": "x"}]}',
        "Q_1": '{"schema": 1, "primes": [{"id": "p", "q": 1}]}',
        "Q_TRUE": '{"schema": 1, "primes": [{"id": "p", "q": true}]}',
        "Q_FLOAT": '{"schema": 1, "primes": [{"id": "p", "q": 3.7}]}',
        "TOP_LIST": "[1]",
        "PRIMES_INT": '{"schema": 1, "primes": 5}',
        "ETA_INT": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "eta": 5}',
        "EPS_TEXT": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "eta": {"eps": "x"}}',
        "UNRAM_TEXT": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "eta": {"unram": {"p": "x"}}}',
        "WEIGHT_ODD": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "weights": [7]}',
        "D_F_TEXT": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "consts": {"D_F": "x"}}',
        "EPS_MISCOUNT": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "eta": {"eps": 1, "arch_signs": [1]}}',
        "WEIGHT_FLOAT": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "weights": [6.0]}',
        "WEIGHTS_PER_PLACE": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "weights": [6, 6]}',
        "CONSTS_INT": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "consts": 5}',
        "D_F_BELOW_1": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "consts": {"D_F": 0.5}}',
        "D_F_PAST_FLOAT": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "consts": {"D_F": 1' + "0" * 400 + "}}",
        "ID_LIST": '{"schema": 1, "primes": [{"id": [1], "q": 3}]}',
        "ID_TWICE": '{"schema": 1, "primes": [{"id": "p", "q": 3}, {"id": "p", "q": 5}]}',
        "D_F_INF": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "consts": {"D_F": 1e400}}',
        "L1_ETA_NAN": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "consts": {"L1_eta": NaN}}',
        "LP_OVER_L_INF": '{"schema": 1, "primes": [{"id": "p", "q": 3}], "consts": {"Lp_over_L": Infinity}}',
    }
    paths = {"CFG": cfg_path, "MISSING": str(tmp_path / "missing.json")}
    for name, text in configs.items():
        paths[name] = str(tmp_path / f"{name.lower()}.json")
        Path(paths[name]).write_text(text)
    argv = [paths.get(arg, arg) for arg in argv]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("InputError: ")


@pytest.mark.parametrize("argv", [["arch", "--l", "28", "--b=-5/4"],
                                  ["lattice", "--field", "Q(sqrt2)", "--R", "20", "--l", "inf,6"]])
def test_size_refusals_name_l(argv, capsys):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("InputError: --l ")


@pytest.mark.parametrize("argv, line", [
    # rank two needs weights above 4 for the shell tail bound to sum
    (["lattice", "--field", "Q(sqrt2)", "--ideal", "3", "--R", "20", "--l", "4,4"],
     r"DomainError: shell tail bound needs min\(l\)/2 > d \(= 2\), got l=\[4\.0, 4\.0\]"),
    # the envelope's covolume factor 1000^149 passes the float range
    (["lattice", "--field", "Q", "--ideal", "1/1000", "--R", "20", "--l", "300"],
     r"DomainError: the theta envelope at l=\[300\.0\], covolume 0\.001 is outside the float range"),
    (["arch", "--l", "6", "--b", "0"], r"DomainError: b too close to the singular points 0, -1, got b=0\.0"),
    (["arch", "--l", "6", "--b=-1"], r"DomainError: b too close to the singular points 0, -1, got b=-1\.0"),
    (["arch", "--l", "6", "--b=1e-12"], r"DomainError: b too close to the singular points 0, -1, got b=1e-12"),
    # a root of order 10^12 is irrational at once, on either path
    (["ntransform", "--config", "CFG", "--ideal", "p^2", "--fn", "norm^1/1000000000000"],
     r"NonRationalPower: norm\(p\^2\)\^1/1000000000000 is irrational"),
    (["ntransform", "--config", "CFG", "--ideal", "p", "--fn", "norm^-1/1000000000000", "--closed"],
     r"NonRationalPower: norm\(p\)\^-1/1000000000000 is irrational"),
    # rank one needs weights of at least 4 for theta's tail to sum
    (["lattice", "--field", "Q", "--ideal", "2", "--l", "3"],
     r"DomainError: weights below 4 leave non-summable tails, got l=\[3\.0\]"),
    # an m past the reach of the factoring table, refused before any factoring
    (["lattice", "--field", "Q(sqrt4194319)"],
     r"UnsupportedField: real quadratic field needs a squarefree m with 1 < m < 4194304, got m=4194319"),
])
def test_numeric_failure_names_its_input(argv, line, cfg_path, capsys):
    rc = cli.main([cfg_path if arg == "CFG" else arg for arg in argv])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert re.fullmatch(line, captured.err.rstrip("\n"))


@pytest.mark.parametrize("field, ideal, l", [("Q(sqrt2)", "2", "1300,1300"), ("Q(sqrt2)", "3", "1000,1000"),
                                             ("Q(sqrt2)", "3", "1327,1327"), ("Q(sqrt7)", "3", "800,800")])
def test_lattice_envelope_inside_the_float_range_is_accepted(field, ideal, l, capsys):
    # envelopes of about 4e-41, 1e-119, 1e-158 and 1e-150, whose covolume
    # factor alone underflows to 0
    rc = cli.main(["lattice", "--field", field, "--ideal", ideal, "--l", l])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    audits = json.loads(captured.out)["audits"]
    assert all(audits[key] is True for key in ("covering_ok", "submultiplicative_ok", "minkowski_ok")), audits


def test_lattice_rank_two_meets_the_covering_inequality(capsys):
    # 300 seeded rank-two argvs (field, ideal, weights 5-14 and R drawn),
    # weights just above 4, and one more weight of 5: each exits 0 with the
    # covering inequality met
    rng = random.Random(0)
    argvs = [["lattice", "--field", f"Q(sqrt{rng.choice((2, 3, 5, 6, 7, 13))})", "--ideal",
              rng.choice(("O", "2", "3", "5")), "--l", f"{rng.randint(5, 14)},{rng.randint(5, 14)}",
              "--R", str(rng.randint(5, 150))] for _ in range(300)]
    argvs += [["lattice", "--field", "Q(sqrt2)", "--ideal", "3", "--R", "20", "--l", "4.01,4.01"],
              ["lattice", "--field", "Q(sqrt5)", "--ideal", "5", "--l", "14,5", "--R", "120"]]
    for argv in argvs:
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 0, (argv, captured.err)
        assert json.loads(captured.out)["audits"]["covering_ok"], argv
