"""Command line behaviour: text output, JSON mode, exit codes, registry paths.

Most tests drive :func:`euler_periods.cli.dispatch` in process and read the
streams through capsys, so they check the exact bytes a shell user sees.
The tests of what a call imports run a fresh interpreter, because this
process has loaded every layer long before they run.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import euler_periods
from euler_periods import eulerfun, g2
from euler_periods.cli import _certified_line, dispatch
from euler_periods.numkernel import (BERNOULLI_CAP, COACTION_TERM_CAP, DIGIT_CAP, WEIGHT_CAP, BigReal,
                                     as_fraction, bernoulli)
from make_bits import _commands as bit_commands
from test_mzv import NEWTON, zagier

SRC = Path(__file__).resolve().parents[1] / "src"

GOOD_REGISTRY_ROW = {
    "label": "probe:2026",
    "value": "1.0e-3",
    "uncertainty_components": ["1e-6"],
    "year": 2026,
    "source_eq": "local",
}


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_registry(tmp_path, name="reg.json", label="probe:2026"):
    row = dict(GOOD_REGISTRY_ROW, label=label)
    path = tmp_path / name
    path.write_text(json.dumps([row]), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Documented examples, byte for byte
# ---------------------------------------------------------------------------


def test_zeta_two_prec_seven(capsys):
    code, out, err = run(capsys, "zeta", "2", "--prec", "7")
    assert code == 0
    assert out == "1.644934 ± 1e-7\n"
    assert err == ""


def readme_examples():
    """``(argv, output)`` of each ``$ euler-periods`` line in README's "Command line" section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for example in block.split("\n\n"):
            command, *output = example.strip("\n").split("\n")
            if command.startswith("$ euler-periods "):
                argv = shlex.split(command[len("$ euler-periods "):], comments=True)
                examples.append((argv, "".join(line + "\n" for line in output)))
    return examples


README_EXAMPLES = readme_examples()


def test_readme_has_seven_examples():
    assert len(README_EXAMPLES) == 7


@pytest.mark.parametrize("argv,output", README_EXAMPLES, ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_example_prints_what_readme_shows(capsys, argv, output):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, output, "")


def test_g2_compare_example(capsys):
    code, out, err = run(capsys, "g2-compare", "exp:2008", "th:2012")
    assert code == 0
    assert out == "-1.05e-12 ± 0.83e-12\n"


def test_zeta_one_divergence(capsys):
    code, out, err = run(capsys, "zeta", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "diverge" in err


# ---------------------------------------------------------------------------
# Every subcommand runs
# ---------------------------------------------------------------------------

SMOKE = [
    ("zeta", "3"),
    ("phi", "1"),
    ("polylog", "2", "1/2"),
    ("gamma",),
    ("gamma", "--method", "ZETA_SERIES", "--prec", "12"),
    ("bernoulli", "12"),
    ("mzv", "2", "3"),
    ("multiphi", "1", "3"),
    ("stuffle-check", "2", "3"),
    ("identity-check", "dilog-reflection", "--x", "0.5"),
    ("identity-check", "cotangent", "--x", "0.5", "--terms", "30"),
    ("identity-check", "euler-product", "--s", "2", "--prime-bound", "1000"),
    ("identity-check", "phi-funceq", "--s", "0.3"),
    ("coact", "zeta_m(3)"),
    ("conjugates", "zeta_m(3)"),
    ("per", "zeta_m(2)"),
    ("period", "bubble", "--samples", "20000"),
    ("selftest", "--samples", "20000"),
    ("g2-assemble",),
    ("g2-invert-alpha", "exp:2008"),
    ("g2-compare", "th:2012", "th:2017"),
    ("registry-list",),
]


@pytest.mark.parametrize("argv", SMOKE, ids=lambda a: " ".join(a))
def test_subcommand_smoke(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out.strip()
    assert err == ""


def test_all_commands_covered_by_smoke():
    from euler_periods.cli import _COMMANDS

    assert {argv[0] for argv in SMOKE} == set(_COMMANDS)


# ---------------------------------------------------------------------------
# Pinned outputs
# ---------------------------------------------------------------------------


def test_bernoulli_exact_fraction(capsys):
    code, out, _ = run(capsys, "bernoulli", "12")
    assert code == 0
    assert out == "-691/2730\n"


def test_bernoulli_at_the_cap_prints_past_the_str_digit_limit(capsys):
    code, out, err = run(capsys, "bernoulli", str(BERNOULLI_CAP))
    assert code == 0 and err == ""
    num, den = out.rstrip("\n").split("/")
    assert len(num.lstrip("-")) > 4300
    # The limit is raised here only, to read the printed digits back.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        printed = Fraction(int(num), int(den))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert printed == bernoulli(BERNOULLI_CAP)


def test_mzv_output(capsys):
    code, out, _ = run(capsys, "mzv", "3", "5")
    assert code == 0
    assert out == "0.0377076729848475 ± 1e-15\n"


@pytest.mark.parametrize("argv,ref", [
    (("mzv", "2", "2", "2", "3"), zagier(3, 0)),
    (("multiphi", "1", "1", "1"), NEWTON[3]),
], ids=["mzv 2 2 2 3", "multiphi 1 1 1"])
@pytest.mark.parametrize("prec", [1, 15, 100])
def test_depth_above_two_certifies_and_covers(capsys, argv, ref, prec):
    code, out, err = run(capsys, *argv, "--prec", str(prec))
    assert code == 0, err
    value, bound = out.rstrip().split(" ± ")
    assert bound == f"1e-{prec}"
    with mpmath.workdps(130):
        assert abs(mpmath.mpf(value) - ref) <= mpmath.mpf(10) ** -prec


def test_certified_line_prints_zero_only_within_the_bound():
    mpf = mpmath.mpf
    # |value| <= err and |value| + err <= 1e-15: 0 is possible and within 1e-15.
    assert _certified_line(BigReal(mpf("4e-16"), mpf("5e-16"), 15))[0] == ["0 ± 1e-15"]
    # |value| <= err, but the true value may lie up to 1.8e-15 from 0.
    assert _certified_line(BigReal(mpf("9e-16"), mpf("9e-16"), 15))[0][0].startswith("9.0e-16 ")
    # Within 1e-15 of 0, but certainly not 0: the digits are the value's.
    assert _certified_line(BigReal(mpf("5e-16"), mpf("4e-16"), 15))[0][0].startswith("5.0e-16 ")


def test_multiphi_output(capsys):
    code, out, _ = run(capsys, "multiphi", "1", "3")
    assert code == 0
    assert out == "-0.117875999650509 ± 1e-15\n"


def test_stuffle_check_passes(capsys):
    code, out, _ = run(capsys, "stuffle-check", "2", "3")
    assert code == 0
    assert out.startswith("residual ")
    assert out.rstrip().endswith(": pass")


def test_coact_line(capsys):
    code, out, _ = run(capsys, "coact", "zeta_m(3)")
    assert code == 0
    assert out == "1 (x) zeta_m(3) + zeta_u(3) (x) 1\n"


def test_conjugates_lines(capsys):
    code, out, _ = run(capsys, "conjugates", "zeta_m(3)")
    assert code == 0
    assert out.splitlines() == ["zeta_m(3)", "1", "span dimension 2"]


def test_per_kernel_combination(capsys):
    code, out, _ = run(capsys, "per", "5*zeta_m(4) - 2*zeta_m(2)*zeta_m(2)")
    assert code == 0
    value = float(out.split(" ± ")[0])
    assert abs(value) < 1e-12
    assert out.rstrip().endswith("± 1e-15")


def test_per_twopi_i_squared_is_negative(capsys):
    # (2*pi*i)**2 = -4*pi**2.
    code, out, err = run(capsys, "per", "twopi_i*twopi_i")
    assert code == 0
    assert out == "-39.4784176043574 ± 1e-15\n"
    assert err == ""


def test_per_with_a_radius_past_one_exits_1(capsys):
    # A bound far above 1 is reported, rounded upward, as not certified.
    code, out, err = run(capsys, "per", f"{10 ** 60}*zeta_m(3)")
    assert (code, out) == (1, "")
    assert err == "error: period_map: certified bound 1.29e+30 exceeds 1e-15\n"


def test_g2_assemble_default_alpha(capsys):
    code, out, _ = run(capsys, "g2-assemble")
    assert code == 0
    assert out == "0.001159652181664 ± 2.3e-12\n"


@pytest.mark.parametrize("mode", ["exact-bracket", "as-printed", "registry", "consistent"])
def test_g2_assemble_accepts_every_a3_mode_spelling(capsys, mode):
    code, out, _ = run(capsys, "g2-assemble", "--a3-mode", mode, "--prec", "5")
    assert code == 0
    assert out.startswith("0.00115")


@pytest.mark.parametrize("argv", [
    ("g2-assemble", "--a3-mode", "as-printed", "--prec", "28"),
    ("g2-assemble", "--a3-mode", "exact-bracket", "--prec", "28"),
    ("g2-assemble", "--a3-mode", "as-printed", "--prec", "100"),
    ("g2-assemble", "--a3-mode", "exact-bracket", "--prec", "100"),
    ("multiphi", "1", "3", "--prec", "100"),
], ids=lambda a: " ".join(a))
def test_multiphi_certifies_at_high_prec(capsys, argv):
    # The a3 brackets evaluate Li_4(1/2), ln 2 and zeta values through the period map.
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""


def test_g2_invert_alpha_output(capsys):
    code, out, _ = run(capsys, "g2-invert-alpha", "exp:2008")
    assert code == 0
    assert out == "137.035999159537 ± 2.2e-7\n"


def test_registry_list_shape(capsys):
    code, out, _ = run(capsys, "registry-list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert any(line.startswith("exp:2008") for line in lines)
    assert all(" ± " in line for line in lines)


def test_selftest_reports_pass(capsys):
    code, out, _ = run(capsys, "selftest", "--samples", "20000")
    assert code == 0
    assert "pass" in out
    assert "seed 42" in out


def test_period_seed_flag_changes_result(capsys):
    _, out_a, _ = run(capsys, "period", "bubble", "--samples", "20000")
    _, out_b, _ = run(capsys, "period", "bubble", "--samples", "20000", "--seed", "5")
    assert out_a != out_b


# ---------------------------------------------------------------------------
# JSON mode
# ---------------------------------------------------------------------------

JSON_CASES = [
    ("zeta", "2", "--prec", "7"),
    ("mzv", "2", "3"),
    ("g2-compare", "exp:2008", "th:2012"),
    ("conjugates", "zeta_m(3)"),
    ("registry-list",),
    ("stuffle-check", "2", "3"),
]


@pytest.mark.parametrize("argv", JSON_CASES, ids=lambda a: " ".join(a))
def test_json_embeds_plain_output(capsys, argv):
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code2, out, _ = run(capsys, *argv, "--json")
    assert code2 == 0
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    assert doc["output"] == plain.rstrip("\n")


def test_json_zeta_fields(capsys):
    _, out, _ = run(capsys, "zeta", "2", "--prec", "7", "--json")
    doc = json.loads(out)
    assert doc == {"command": "zeta", "value": "1.644934", "bound": "1e-7",
                   "output": "1.644934 ± 1e-7"}


def test_json_compare_fields(capsys):
    _, out, _ = run(capsys, "g2-compare", "exp:2008", "th:2012", "--json")
    doc = json.loads(out)
    assert doc["difference"] == "-1.05e-12"
    assert doc["uncertainty"] == "0.83e-12"
    assert doc["pull"] == "-1.276"


REGISTRY_PAIRS = [(a, b) for a in g2.load_registry() for b in g2.load_registry() if a.label != b.label]


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["plain", "json"])
def test_g2_compare_never_prints_less_than_the_exact_quadrature(capsys, mode):
    # The printed uncertainty, squared, is at least sum(c**2) of both rows' exact components.
    assert len(REGISTRY_PAIRS) == 240
    for a, b in REGISTRY_PAIRS:
        code, out, _ = run(capsys, "g2-compare", a.label, b.label, *mode)
        assert code == 0
        shown = json.loads(out)["uncertainty"] if mode else out.rstrip("\n").split(" ± ")[1]
        square = sum(Fraction(c) ** 2 for c in a.uncertainty_components + b.uncertainty_components)
        assert Fraction(shown) ** 2 >= square, (a.label, b.label, shown)


def test_json_invert_reports_iterations(capsys):
    _, out, _ = run(capsys, "g2-invert-alpha", "exp:2008", "--json")
    doc = json.loads(out)
    assert 1 <= doc["iterations"] <= 6


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("zeta", "2", "--prec", "30"),
    ("mzv", "2", "3"),
    ("period", "bubble", "--samples", "20000"),
    ("g2-invert-alpha", "exp:2008"),
], ids=lambda a: " ".join(a))
def test_reruns_are_byte_identical(capsys, argv):
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------


# Every subcommand that prints a number, at both ends of the prec range.
PREC_RANGE = [
    ("zeta", "3"),
    ("phi", "1/2"),
    ("polylog", "3", "1/3"),
    ("gamma",),
    ("gamma", "--method", "ZETA_SERIES"),
    ("mzv", "2", "3"),
    ("multiphi", "1", "3"),
    ("stuffle-check", "2", "3"),
    ("identity-check", "dilog-reflection", "--x", "1/3"),
    ("identity-check", "cotangent", "--x", "1/2", "--terms", "30"),
    ("identity-check", "euler-product", "--s", "2", "--prime-bound", "1000"),
    ("identity-check", "phi-funceq", "--s", "1/3"),
    ("per", "Li_m(2; 1/2)*zeta_m(3)"),
    ("g2-assemble",),
    ("g2-invert-alpha", "exp:2008"),
]


@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["plain", "json"])
@pytest.mark.parametrize("prec", ["1", "100"])
@pytest.mark.parametrize("argv", PREC_RANGE, ids=lambda a: " ".join(a))
def test_numeric_subcommands_run_at_both_ends_of_the_prec_range(capsys, argv, prec, mode):
    code, out, err = run(capsys, *argv, "--prec", prec, *mode)
    assert code == 0, err
    assert out.strip()
    assert err == ""


@pytest.mark.parametrize("prec", ["99", "100"])
def test_phi_funceq_at_the_top_precisions(capsys, prec):
    code, out, err = run(capsys, "identity-check", "phi-funceq", "--s", "1/3", "--prec", prec)
    assert code == 0, err
    assert out.startswith("residual ")


@pytest.mark.parametrize("prec", ["15", "100"])
def test_phi_funceq_at_a_large_denominator_stays_within_its_bound(capsys, prec):
    # phi(5/7) and phi(2/7) take the exact rationals, whose rows are exact floors.
    code, out, err = run(capsys, "identity-check", "phi-funceq", "--s", "5/7", "--prec", prec, "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert Fraction(doc["residual"]) <= Fraction(doc["bound"])


#: The bound-printing commands of the bit contract (make_bits.py).
BOUND_COMMANDS = [tuple(argv) for argv in bit_commands()
                  if argv[0] in ("stuffle-check", "identity-check", "g2-assemble", "g2-invert-alpha")]


@pytest.mark.parametrize("prec", ["1", "15", "50", "99", "100"])
@pytest.mark.parametrize("argv", BOUND_COMMANDS, ids=lambda a: " ".join(a))
def test_a_printed_bound_is_never_below_the_declared_one(capsys, monkeypatch, argv, prec):
    # Each library call the command makes records its declared err; the
    # outermost returns last.  The printed bound, plain and JSON, must not
    # understate it: nstr's nearest rounding printed 1.8e-23 for 1.8386e-23.
    declared = []
    for module, name in ((sys.modules["euler_periods.mzv"], "stuffle_residual"),
                         (eulerfun, "identity_residual"),
                         (g2, "assemble"), (g2, "invert_alpha")):
        def recorded(*args, _call=getattr(module, name), **kwargs):
            x = _call(*args, **kwargs)
            declared.append(x.err)
            return x
        monkeypatch.setattr(module, name, recorded)
    assert len(BOUND_COMMANDS) == 9
    for mode in ((), ("--json",)):
        declared.clear()
        code, out, err = run(capsys, argv[0], "--prec", prec, *mode, *argv[1:])
        assert code == 0, err
        if mode:
            printed = json.loads(out)["bound"]
        else:
            printed = re.search(r"(?:within bound|±) (\S+?):?(?: |$)", out.strip()).group(1)
        assert Fraction(printed) >= as_fraction(declared[-1]), (printed, declared[-1])


def test_negative_rational_follows_a_double_dash(capsys):
    code, out, err = run(capsys, "polylog", "3", "-3/4")
    assert code == 2
    assert "the following arguments are required: z" in err
    code, out, err = run(capsys, "polylog", "3", "--", "-3/4")
    assert code == 0, err
    assert out.startswith("-0.691703603690459 ± 1e-15")


def test_exit_one_uncertifiable_precision(capsys):
    # zeta(1 + 10**-30) at prec 100 needs 31 digits past it, beyond the working top.
    code, out, err = run(capsys, "zeta", "--prec", "100", "1.000000000000000000000000000001")
    assert (code, out) == (1, "")
    assert err == ("error: zeta at s = 1.000000000000000000000000000001: s - 1 = 1.0e-30 needs 31 digits "
                   "past prec 100, beyond the working top 118\n")


@pytest.mark.parametrize("args", [["--prec", "50", "1.0000000001"], ["--prec", "15", "1.000000000001"]])
def test_zeta_near_its_pole_certifies_quietly(capsys, args):
    # Both used to exit 1 when Euler-Maclaurin's planned bound missed.
    code, out, err = run(capsys, "zeta", *args)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_a_pipe_closed_after_the_first_bytes_exits_141_without_a_traceback(mode, unbuffered):
    # About 1 MB of output, far past a pipe's buffer, so the reader closes
    # while the command still writes.  The child's environment is set either
    # way: unbuffered, Python's raw stdout takes part of a write and reports
    # it, and a text write would drop the rest silently.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "euler_periods.cli", "coact", *mode, "Li_m(400; 1/2)"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(env, PYTHONPATH=str(SRC)))
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert head == (b'{"command"' if mode else b"1 (x) Li_m")
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("zeta", "1"),
    ("zeta", "abc"),
    ("zeta", "2", "--prec", "0"),
    ("zeta", "2", "--prec", "101"),
    ("stuffle-check", "2", "3", "--prec", "101"),
    ("identity-check", "phi-funceq", "--s", "1/3", "--prec", "101"),
    ("per", "Li_m(2; 3/4)*zeta_m(3) - Li_m(4; 1)", "--prec", "101"),
    ("g2-assemble", "--prec", "101"),
    ("polylog", "3", "3/4"),
    ("polylog", "2", "7/5"),
    ("polylog", "1001", "1/2"),
    ("mzv", "2", "1"),
    ("mzv", "2", "100000000"),
    ("multiphi", "1", "1000"),
    ("multiphi", "1", "3", "--cutoff", "12"),
    ("bernoulli", "-1"),
    ("stuffle-check", "1", "2"),
    ("period", "triangle"),
    ("period", "heptagon"),
    ("per", "Li_m(2; 2/1)"),
    ("per", "twopi_i"),
    ("per", "zeta_m(3)*twopi_i", "--json"),
    ("coact", "zeta_m("),
    ("coact", "zeta_m(1)"),
    ("g2-compare", "exp:2008", "exp:1899"),
    ("g2-invert-alpha", "not-a-number"),
    ("identity-check", "euler-product", "--s", "2", "--x", "abc"),  # an argument the kind does not use
    ("identity-check", "dilog-reflection", "--x", "1/2", "--s", "3"),
], ids=lambda a: " ".join(a))
def test_exit_two_invalid_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    if err:
        assert err.startswith("error:") or "usage" in err


@pytest.mark.parametrize("argv, shown", [
    (("polylog", "2", "--", "-1.0000000001"), "requires |z| <= 1, got z = -1.0000000001\n"),
    (("polylog", "3", "0.50000000001"), "the endpoint 1; got z = 0.50000000001\n"),
    (("zeta", "0.99999999999"), "requires s > 1, got s = 0.99999999999;"),
    (("phi", "--", "-1e-11"), "requires s > 0, got s = -1e-11\n"),
    (("identity-check", "dilog-reflection", "--x", "1.00000000001"), "requires x in (0, 1), got 1.00000000001\n"),
    (("identity-check", "dilog-reflection", "--x", "0.999999999"), "series at |z| = 0.999999999 needs"),
    (("identity-check", "phi-funceq", "--s", "1.00000000001"), "on s in (0, 1), got 1.00000000001\n"),
    (("identity-check", "euler-product", "--s", "2", "--x", "abc"), "takes no parameter 'x'"),
    (("identity-check", "dilog-reflection", "--x", "1/2", "--s", "3", "--terms", "5", "--prime-bound", "7"),
     "takes no parameter 's'"),
], ids=lambda a: " ".join(a) if isinstance(a, tuple) else "")
def test_a_refused_argument_is_shown_as_written(capsys, argv, shown):
    # A number rounded to 8 digits could land inside the rule it breaks ("got z = -1.0").
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and shown in err


HUGE = "1" + "0" * 5000  # past Python's 4300-digit int(str) limit


def dispatch_in_a_child(argv, timeout=20):
    """``dispatch(argv)`` in a fresh interpreter: exit code, stdout, stderr and its seconds.

    A command that does not end fails the calling test after ``timeout``
    seconds rather than stalling the suite.  The seconds are those of the
    call alone, measured in the child, without the interpreter's start.
    """
    code = ("import sys, time\nfrom euler_periods.cli import dispatch\n"
            "start = time.perf_counter()\ncode = dispatch(sys.argv[1:])\n"
            "print(time.perf_counter() - start, file=sys.stderr)\nsys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=timeout)
    err, _, seconds = proc.stderr.rstrip("\n").rpartition("\n")
    return proc.returncode, proc.stdout, err, float(seconds)


@pytest.mark.parametrize("argv", [
    ("per", f"1/{HUGE}*zeta_m(2)"),
    ("coact", f"1/{HUGE}*zeta_m(2)"),
    ("conjugates", f"{HUGE}*zeta_m(3)"),
    ("zeta", f"1/{HUGE}"),
    ("phi", HUGE),
    ("polylog", "2", f"1/{HUGE}"),
    ("zeta", "1e10000000"),  # a 10**7-digit integer, written short
    ("bernoulli", str(BERNOULLI_CAP + 1)),
    ("identity-check", "cotangent", "--x", "1/2", "--terms", str(BERNOULLI_CAP // 2 + 1)),
    ("g2-assemble", HUGE),
    ("g2-assemble", "1e100000000"),
    ("g2-invert-alpha", "1e-100000000"),  # once ran on into a bound of 10**8 digits
], ids=lambda a: " ".join(x if len(x) < 20 else f"<{len(x)} chars>" for x in a))
def test_huge_input_exits_two_at_once_without_a_traceback(argv):
    code, out, err, seconds = dispatch_in_a_child(argv)
    assert seconds < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert (f"digits, past the cap {DIGIT_CAP}" in err) == (argv[0] not in ("bernoulli", "identity-check"))


@pytest.mark.parametrize("s", ["1e-30", "1e-999", "0." + "9" * 200], ids=["1e-30", "1e-999", "0.9..9"])
def test_phi_funceq_near_both_ends_exits_zero(capsys, s):
    # 2**s - 1 rounded to 0 near s = 0 and raised ZeroDivisionError; 200 nines
    # were refused as s = 1.0 before the domain was decided on the exact rational.
    code, out, err = run(capsys, "identity-check", "phi-funceq", "--s", s, "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert Fraction(doc["residual"]) <= Fraction(doc["bound"])


@pytest.mark.parametrize("command", ["coact", "conjugates", "per"])
@pytest.mark.parametrize("expr", ["Li_m(9999999; 1/2)", f"zeta_m(3)*Li_m({WEIGHT_CAP + 1}; -1)"])
def test_symbol_weight_past_the_cap_exits_two_at_once(capsys, command, expr):
    start = time.perf_counter()
    code, out, err = run(capsys, command, expr)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"exceeds the supported cap {WEIGHT_CAP}" in err


@pytest.mark.parametrize("command", ["coact", "conjugates"])
@pytest.mark.parametrize("expr", ["Li_m(100; 1/2)*Li_m(100; 1/3)", "zeta_m(3)*zeta_m(5)*Li_m(1000; 1/2)"])
def test_coaction_past_the_term_cap_exits_two_at_once(capsys, command, expr):
    start = time.perf_counter()
    code, out, err = run(capsys, command, expr)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"terms, past the cap {COACTION_TERM_CAP}" in err


def test_coaction_of_the_largest_polylog_is_allowed(capsys):
    code, out, err = run(capsys, "conjugates", f"Li_m({WEIGHT_CAP}; 1/2)", "--json")
    assert code == 0 and err == ""
    assert json.loads(out)["dimension"] == WEIGHT_CAP + 1


def test_coefficient_past_the_str_digit_limit_prints_in_full(capsys):
    # Five 1000-digit literals multiply to a 4996-digit coefficient, past the
    # 4300 digits at which Python refuses str(int).
    literal = "1" + "0" * (DIGIT_CAP - 1)
    code, out, err = run(capsys, "coact", "*".join([literal] * 5) + "*zeta_m(3)")
    assert code == 0 and err == ""
    coeff = "1" + "0" * 4995
    assert out == f"{coeff} (x) zeta_m(3) + {coeff}*zeta_u(3) (x) 1\n"


def test_exit_two_no_command(capsys):
    code, out, err = run(capsys)
    assert code == 2
    assert "usage" in err


def test_exit_two_unknown_command(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize("x, codes", [("3.14159265358979", (0, 0)), ("3.1415926535897932384626433832795", (1, 0)),
                                      ("3.1415926535897932384626433832795029", (1, 2))], ids=["1e-15", "1e-32", "above"])
def test_cotangent_near_pi_exits_as_its_ball_of_pi_decides(capsys, x, codes):
    # At --prec 15 and 50: 1 where the ball of pi holds x, 2 for an x above pi, never a traceback.
    for prec, want in zip(("15", "50"), codes):
        code, out, err = run(capsys, "identity-check", "cotangent", "--x", x, "--terms", "30", "--prec", prec)
        assert code == want and "Traceback" not in err, (prec, code, err)
        assert bool(out) == (code == 0)


def test_exit_three_identity_tolerance(capsys):
    code, out, _ = run(capsys, "identity-check", "euler-product",
                       "--s", "2", "--prime-bound", "100", "--tol", "1e-9")
    assert code == 3
    assert "FAIL" in out


def test_identity_tolerance_is_read_and_printed_as_written(capsys):
    # 1e-400 is no float; the verdict compares it with the residual exactly.
    code, out, err = run(capsys, "identity-check", "dilog-reflection", "--x", "1/2",
                         "--tol", "1e-400", "--json")
    payload = json.loads(out)
    assert code == 3 and err == ""
    assert payload["tol"] == "1e-400" and payload["passed"] is False
    assert "(tol 1e-400: FAIL)" in payload["output"]
    residual = Fraction(payload["residual"])
    for tol, want in ((f"{residual / 2}", 3), (f"{residual * 2}", 0), ("1e999", 0)):
        code, out, _ = run(capsys, "identity-check", "dilog-reflection", "--x", "1/2", "--tol", tol)
        assert code == want and f"(tol {tol}: " in out, tol


@pytest.mark.parametrize("tol", ["-1e-9", "abc", "inf", "1e-5000"])
def test_identity_tolerance_that_is_no_non_negative_rational_exits_two(capsys, tol):
    code, out, err = run(capsys, "identity-check", "dilog-reflection", "--x", "1/2", f"--tol={tol}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [("g2-assemble", "--", "inf"), ("g2-assemble", "nan"),
                                  ("g2-invert-alpha", "nan"), ("g2-invert-alpha", "--", "-inf")],
                         ids=lambda a: " ".join(a))
def test_g2_decimal_that_is_no_number_exits_two_without_a_repr(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "is not a decimal number" in err or "nor a decimal number" in err
    assert "Traceback" not in err and "BigReal(" not in err


@pytest.mark.parametrize("target,shown", [("0.5", "'0.5'"), ("2.50e-3", "'2.50e-3'"),
                                          ("alpha:rb:2011", "row 'alpha:rb:2011'")])
def test_g2_target_outside_the_domain_is_shown_as_given(capsys, target, shown):
    code, out, err = run(capsys, "g2-invert-alpha", target)
    assert code == 2 and out == ""
    assert err == f"error: target_ae must lie in (0, 2e-3), got {shown}\n"


def test_identity_tolerance_pass_keeps_zero(capsys):
    code, out, _ = run(capsys, "identity-check", "dilog-reflection",
                       "--x", "0.5", "--tol", "1e-9")
    assert code == 0
    assert "pass" in out


@pytest.mark.parametrize("x", ["1/50000", "1/1000000"])
def test_dilog_reflection_past_the_term_cap_exits_two(x, capsys):
    code, _, err = run(capsys, "identity-check", "dilog-reflection", "--x", x)
    assert code == 2
    assert f"past the cap {eulerfun.LI_DIRECT_TERM_CAP}" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "usage" in out


# ---------------------------------------------------------------------------
# Registry resolution order
# ---------------------------------------------------------------------------


def test_registry_flag_overrides_default(capsys, tmp_path):
    path = write_registry(tmp_path)
    code, out, _ = run(capsys, "registry-list", "--registry", path)
    assert code == 0
    assert "probe:2026" in out
    assert "exp:2008" not in out


def test_registry_env_fallback(capsys, tmp_path, monkeypatch):
    path = write_registry(tmp_path)
    monkeypatch.setenv("EULER_PERIODS_REGISTRY", path)
    code, out, _ = run(capsys, "registry-list")
    assert code == 0
    assert "probe:2026" in out


def test_registry_flag_beats_env(capsys, tmp_path, monkeypatch):
    env_path = write_registry(tmp_path, "env.json", label="fromenv:2026")
    flag_path = write_registry(tmp_path, "flag.json", label="fromflag:2026")
    monkeypatch.setenv("EULER_PERIODS_REGISTRY", env_path)
    code, out, _ = run(capsys, "registry-list", "--registry", flag_path)
    assert code == 0
    assert "fromflag:2026" in out
    assert "fromenv:2026" not in out


def test_registry_broken_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("[{", encoding="utf-8")
    code, _, err = run(capsys, "registry-list", "--registry", str(bad))
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("command", ["period", "registry-list"])
def test_json_file_with_an_integer_past_the_str_limit_exits_two(tmp_path, command):
    # json raises a plain ValueError for an integer past Python's 4300-digit
    # limit, which once escaped as a traceback with exit 1.
    big = "1" + "0" * 5000
    path = tmp_path / "big.json"
    if command == "period":
        path.write_text(f'{{"vertices": {big}, "edges": [[0, 1], [0, 1]]}}', encoding="utf-8")
        argv = ["period", str(path)]
    else:
        path.write_text(json.dumps([dict(GOOD_REGISTRY_ROW, year=0)]).replace('"year": 0', f'"year": {big}'),
                        encoding="utf-8")
        argv = ["registry-list", "--registry", str(path)]
    code, out, err, _ = dispatch_in_a_child(argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "not valid JSON" in err


def test_g2_compare_past_the_float_range_is_an_input_error(capsys, tmp_path):
    # Each row's component is a float, but the pair's quadrature total is not:
    # the float path ended in an IndexError traceback, exit 1.
    rows = [dict(GOOD_REGISTRY_ROW, label=label, uncertainty_components=["1.5e308"]) for label in ("a", "b")]
    path = tmp_path / "big.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    code, out, err = run(capsys, "g2-compare", "a", "b", "--registry", str(path))
    assert (code, out) == (2, "")
    assert err == "error: the quadrature total overflows the float range\n"


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["plain", "json"])
def test_registry_list_totals_are_rounded_upward(capsys, mode):
    # Each printed total is the least two-digit decimal at or above the
    # quadrature total of the exact quoted decimals.
    code, out, _ = run(capsys, "registry-list", *mode)
    assert code == 0
    if mode:
        totals = [e["total_uncertainty"] for e in json.loads(out)["entries"]]
    else:
        totals = [line.split(" ± ")[1].split()[0] for line in out.splitlines()]
    rows = g2.load_registry()
    assert len(totals) == len(rows)
    for m, text in zip(rows, totals):
        square = sum(Fraction(c) ** 2 for c in m.uncertainty_components)
        shown = Fraction(text)
        assert shown ** 2 >= square, (m.label, text)
        if square:
            step = Fraction(10) ** (Decimal(text).adjusted() - 1)
            assert (shown - step) ** 2 < square, (m.label, text)
    listed = dict(zip((m.label for m in rows), totals))
    assert [listed[k] for k in ("th:2012", "th:2017", "alpha:ae:2012", "exp:2008", "a4:num:2012",
                                "a4:laporta:2017")] == ["7.8e-13", "7.7e-13", "3.5e-08", "2.8e-13", "0.002", "1e-51"]


# ---------------------------------------------------------------------------
# Imports: a call loads only the layers its subcommand runs
# ---------------------------------------------------------------------------


def fresh_python(code: str) -> list[str]:
    """Run ``code`` in a new interpreter; its stdout lines."""
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout.splitlines()


def loaded_after(code: str) -> set[str]:
    """Names in ``sys.modules`` after ``code`` ran in a new interpreter."""
    return set(fresh_python(f"{code}\nimport sys\nprint(' '.join(sys.modules))")[-1].split())


def test_importing_the_cli_loads_no_layer_and_no_numpy():
    loaded = loaded_after("import euler_periods.cli")
    for name in ("numpy", "euler_periods.eulerfun", "euler_periods.mzv",
                 "euler_periods.symbolic", "euler_periods.feynper", "euler_periods.g2",
                 "dataclasses", "inspect"):
        assert name not in loaded


def test_zeta_call_loads_neither_numpy_nor_unrelated_layers():
    loaded = loaded_after("from euler_periods.cli import dispatch; dispatch(['zeta', '2'])")
    assert "euler_periods.eulerfun" in loaded
    for name in ("numpy", "euler_periods.symbolic", "euler_periods.g2", "euler_periods.feynper",
                 "dataclasses", "inspect"):
        assert name not in loaded


def test_bernoulli_call_loads_no_layer():
    loaded = loaded_after("from euler_periods.cli import dispatch; dispatch(['bernoulli', '30'])")
    for name in ("numpy", "euler_periods.eulerfun", "euler_periods.mzv", "euler_periods.symbolic",
                 "euler_periods.feynper", "euler_periods.g2", "dataclasses", "inspect"):
        assert name not in loaded


def test_period_call_loads_numpy():
    loaded = loaded_after(
        "from euler_periods.cli import dispatch; dispatch(['period', 'k4', '--samples', '10000'])")
    assert "numpy" in loaded


# ---------------------------------------------------------------------------
# The package namespace: names resolve from their layer on first use
# ---------------------------------------------------------------------------


def test_every_exported_name_and_layer_is_listed_before_it_is_loaded():
    out = fresh_python("import euler_periods as p\n"
                       "print(sorted({*p.__all__, *p._EXPORTS} - set(dir(p))))")
    assert out == ["[]"]


#: Prints the exported names that are not their layer's object, on the
#: package and after a star import.
MISMATCHED_NAMES = """
import euler_periods
from importlib import import_module
star = {}
exec("from euler_periods import *", star)
print("mismatched:", sorted(n for n, layer in euler_periods._LAYER_OF.items()
             if not getattr(euler_periods, n) is star[n]
             is getattr(import_module("euler_periods." + layer), n)))
"""


@pytest.mark.parametrize("before", [
    "",
    "import euler_periods.g2",
    "import euler_periods.mzv",
    "from euler_periods.cli import dispatch; dispatch(['mzv', '2', '3'])",
])
def test_every_exported_name_is_its_layers_object_in_any_import_order(before):
    # ``mzv`` names a function and its layer; loading the layer first must
    # not rebind the package's ``mzv`` to the module.
    out = fresh_python(f"{before}\n{MISMATCHED_NAMES}\n"
                       "from euler_periods.cli import dispatch; dispatch(['mzv', '2', '3'])\n"
                       f"{MISMATCHED_NAMES}")
    assert [line for line in out if line.startswith("mismatched:")] == ["mismatched: []"] * 2


def test_package_mzv_is_the_function():
    from euler_periods import mzv
    from euler_periods.mzv import mzv as layer_mzv

    assert mzv is layer_mzv is euler_periods.mzv


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from euler_periods import *", namespace)
    assert set(euler_periods.__all__) <= set(namespace)


def test_layer_attribute_is_imported_on_demand():
    out = fresh_python(
        "import sys, euler_periods\n"
        "print('euler_periods.feynper' in sys.modules)\n"
        "print(euler_periods.feynper.k4().n_edges)")
    assert out == ["False", "6"]


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        euler_periods.no_such_name
    with pytest.raises(ImportError):
        exec("from euler_periods import no_such_name", {})
