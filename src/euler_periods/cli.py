"""Command line front end with deterministic text and JSON reports.

Every subcommand prints its main numeric result as ``value ± bound`` and
exits 0 on success, 1 when a requested precision could not be certified,
2 on invalid input, 3 when an internal cross-check fails, and 141 when the
reader of standard output closes it before the output is written.
Identical arguments produce byte-identical output.  Interfaces use decimal
strings only, so reports can be compared across machines and languages.

Each subcommand imports the layer it runs when it runs, so a call loads
only what it needs; numpy is loaded by ``period`` and ``selftest`` alone.
A call builds the subparser of its own command only, from the one table
:data:`_COMMANDS`; no module of the package imports ``dataclasses``, and
``json`` is loaded only to read or write JSON.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from .errors import (
    Disconnected,
    DomainError,
    InputError,
    InternalCheckError,
    NoConvergence,
    NonFiniteSample,
    NotPrimitive,
    ParseError,
    PrecisionNotMet,
    SchemaError,
    TooLarge,
)
from .numkernel import BigReal, _fraction, as_fraction, bernoulli, bound_text, check_prec, exact_str, value_text

if TYPE_CHECKING:
    from . import feynper, g2

_GRAPH_NAMES = ("bubble", "triangle", "k4", "w4")
_IDENTITY_KINDS = ("dilog-reflection", "cotangent", "euler-product", "phi-funceq")
_COEFF_MODES = ("exact-bracket", "as-printed", "registry", "consistent")

#: Exit code when standard output is a pipe closed before the output is
#: written: 128 + SIGPIPE, what a shell reports for a process SIGPIPE ends.
EXIT_CLOSED_PIPE = 141


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def _certified_line(x: BigReal) -> tuple[list[str], dict]:
    """Render a fully certified value as ``value ± 1e-prec``.

    A value whose bound admits 0, and puts it within ``1e-prec`` of 0,
    prints as 0: its digits are rounding noise.
    """
    value = value_text(x.demand())
    bound = f"1e-{x.prec}"
    return [f"{value} ± {bound}"], {"value": value, "bound": bound}


def _measured_line(x: BigReal) -> tuple[list[str], dict]:
    """Render a value whose bound is honest but possibly above 1e-prec."""
    value, bound = value_text(x, x.prec), bound_text(x, 2)
    return [f"{value} ± {bound}"], {"value": value, "bound": bound}


def _registry_rows(args):
    from . import g2
    return g2.load_registry(args.registry or os.environ.get("EULER_PERIODS_REGISTRY") or None)


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (lines, payload, exit code)
# ---------------------------------------------------------------------------


def _cmd_zeta(args):
    from . import eulerfun
    return *_certified_line(eulerfun.zeta(args.s, args.prec)), 0


def _cmd_phi(args):
    from . import eulerfun
    return *_certified_line(eulerfun.phi(args.s, args.prec)), 0


def _cmd_polylog(args):
    from . import eulerfun
    return *_certified_line(eulerfun.polylog(args.n, args.z, args.prec)), 0


def _cmd_gamma(args):
    from . import eulerfun
    return *_certified_line(eulerfun.gamma_const(args.prec, args.method)), 0


def _cmd_bernoulli(args):
    value = exact_str(bernoulli(args.n))
    return [value], {"value": value, "exact": True}, 0


def _cmd_mzv(args):
    from .mzv import mzv
    return *_certified_line(mzv(tuple(args.parts), args.prec)), 0


def _cmd_multiphi(args):
    from .mzv import multiphi
    return *_certified_line(multiphi(tuple(args.parts), args.prec)), 0


def _cmd_stuffle_check(args):
    from .mzv import stuffle_residual
    r = stuffle_residual(args.m, args.n, args.prec)
    ok = r.holds_zero()
    resid_text, bound = value_text(abs(r), 3), bound_text(r, 3)
    verdict = "pass" if ok else "FAIL"
    line = f"residual {resid_text} within bound {bound}: {verdict}"
    payload = {"residual": resid_text, "bound": bound, "passed": ok}
    return [line], payload, 0 if ok else 3


def _cmd_identity_check(args):
    from . import eulerfun
    kind = args.kind.upper().replace("-", "_")
    # As written: identity_residual reads, shows and checks them.
    given = {"x": args.x, "s": args.s, "terms": args.terms, "prime_bound": args.prime_bound}
    params = {key: value for key, value in given.items() if value is not None}
    tol = None if args.tol is None else as_fraction(args.tol, "tol")
    if tol is not None and tol < 0:
        raise DomainError(f"tol must be non-negative, got {args.tol!r}")
    r = eulerfun.identity_residual(kind, params, args.prec)
    magnitude = abs(r)
    resid, bound = value_text(magnitude, 3), bound_text(r, 2)
    payload = {"kind": kind, "residual": resid, "bound": bound}
    if tol is None:
        return [f"residual {resid} ± {bound}"], payload, 0
    ok = _fraction(magnitude._mid) <= tol  # the midpoint against the tol as written, exactly
    verdict = "pass" if ok else "FAIL"
    payload["tol"] = args.tol
    payload["passed"] = ok
    return [f"residual {resid} ± {bound} (tol {args.tol}: {verdict})"], payload, 0 if ok else 3


def _cmd_coact(args):
    from . import symbolic
    expr = symbolic.parse_expr(args.expr)
    tensor = symbolic.coact(expr)
    text = str(tensor)
    return [text], {"expr": str(expr), "tensor": text}, 0


def _cmd_conjugates(args):
    from . import symbolic
    expr = symbolic.parse_expr(args.expr)
    conj, dim = symbolic.galois_conjugates(expr)
    lines = [str(c) for c in conj]
    lines.append(f"span dimension {dim}")
    return lines, {"expr": str(expr), "conjugates": [str(c) for c in conj], "dimension": dim}, 0


def _cmd_per(args):
    from . import symbolic
    expr = symbolic.parse_expr(args.expr)
    return *_certified_line(symbolic.period_map(expr, args.prec)), 0


def _graph_from_arg(text: str) -> feynper.MultiGraph:
    from . import feynper
    if text.lower() in _GRAPH_NAMES:
        return feynper.named_graph(text)
    try:
        return feynper.load_graph(text)
    except OSError as exc:
        raise InputError(
            f"{text!r} is neither a named graph {list(_GRAPH_NAMES)} nor a readable JSON file: {exc}"
        ) from None


def _cmd_period(args):
    from . import feynper
    graph = _graph_from_arg(args.graph)
    est = feynper.period_mc(graph, args.samples, seed=args.seed, prec_report=args.prec)
    text = str(est)
    value, bound = text.split(" ± ")
    payload = {"value": value, "bound": bound, "samples": est.samples, "seed": est.seed}
    return [text], payload, 0


def _cmd_selftest(args):
    from . import feynper
    report = feynper.integrator_selftest(args.samples, seed=args.seed)
    lines = str(report).split("\n")
    payload = {
        "passed": report.passed,
        "samples": report.samples,
        "seed": report.seed,
        "entries": [str(e) for e in report.entries],
    }
    return lines, payload, 0 if report.passed else 3


def _coefficients(args) -> g2.CoefficientSet:
    from . import g2
    kw = {}
    if getattr(args, "a2_mode", None):
        kw["a2_mode"] = g2._as_mode(args.a2_mode)
    if getattr(args, "a3_mode", None):
        kw["a3_mode"] = g2._as_mode(args.a3_mode)
    return g2.CoefficientSet(**kw)


def _cmd_g2_assemble(args):
    from . import g2
    rows = _registry_rows(args)
    if args.alpha_inv is None:
        alpha = g2.lookup(rows, "alpha:rb:2011").as_bigreal(args.prec)
    else:
        alpha = args.alpha_inv
    value = g2.assemble(alpha, _coefficients(args), order=args.order,
                        prec=args.prec, registry=rows)
    lines, payload = _measured_line(value)
    payload["order"] = args.order
    return lines, payload, 0


def _cmd_g2_invert_alpha(args):
    from . import g2
    rows = _registry_rows(args)
    try:
        target = g2.lookup(rows, args.target)
    except InputError:
        target = args.target  # passed as written, so an error shows the user's text
        try:
            as_fraction(target, "the target")
        except DomainError:
            raise InputError(
                f"target {args.target!r} is neither a registry label nor a decimal number") from None
    trace: list[float] = []
    value = g2.invert_alpha(target, _coefficients(args), order=args.order,
                            prec=args.prec, registry=rows, trace=trace)
    lines, payload = _measured_line(value)
    payload["iterations"] = len(trace)
    return lines, payload, 0


def _cmd_g2_compare(args):
    from . import g2
    rows = _registry_rows(args)
    result = g2.compare(g2.lookup(rows, args.a), g2.lookup(rows, args.b))
    text = str(result)
    difference, uncertainty = text.split(" ± ")
    payload = {
        "difference": difference,
        "uncertainty": uncertainty,
        "pull": f"{result.pull:.3f}",
    }
    return [text], payload, 0


def _cmd_registry_list(args):
    rows = _registry_rows(args)
    lines = []
    entries = []
    for m in rows:
        value, total = value_text(m.value, 15), m.total_text
        lines.append(f"{m.label:<16} {value} ± {total}  ({m.year}, {m.source})")
        entries.append({"label": m.label, "value": value, "total_uncertainty": total,
                        "year": m.year, "source": m.source})
    return lines, {"entries": entries}, 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _arg(*names: str, **kw) -> tuple[tuple[str, ...], dict]:
    """One ``add_argument`` call of a subcommand, as ``(names, keywords)``."""
    return names, kw


_PREC = _arg("--prec", type=int, default=15, metavar="N", help="requested decimal precision (default 15)")
_JSON = _arg("--json", action="store_true", help="emit a JSON report")
_REGISTRY = _arg("--registry", metavar="PATH", default=None,
                 help="measurement registry JSON (default: packaged, or EULER_PERIODS_REGISTRY)")
_SEED = _arg("--seed", type=int, default=42, metavar="N", help="random seed, an integer >= 0 (default 42)")
_EXPR = _arg("expr", help="expression in zeta_m(n), Li_m(n; z), twopi_i")
_ORDER = _arg("--order", type=int, default=4, choices=(1, 2, 3, 4))
_A2_MODE = _arg("--a2-mode", choices=_COEFF_MODES[:3], default=None)
_A3_MODE = _arg("--a3-mode", choices=_COEFF_MODES, default=None)

#: Each subcommand: its function, its help text and its arguments after
#: ``--prec`` and ``--json``, in the order the help lists them.
_COMMANDS = {
    "zeta": (_cmd_zeta, "Riemann zeta at a real point s > 1.",
             _arg("s", help="argument, a rational like 2 or 3/2")),
    "phi": (_cmd_phi, "Alternating zeta phi(s) for s > 0.",
            _arg("s", help="argument, a rational like 1 or 1/2")),
    "polylog": (_cmd_polylog,
                "Polylogarithm Li_n(z): n = 1 on [-1, 1), n = 2 on [-1, 1], n >= 3 on [-1, 1/2] and 1.",
                _arg("n", type=int, help="integer order n >= 1"),
                _arg("z", help="argument, a rational in [-1, 1) for n = 1, [-1, 1] for n = 2, "
                               "[-1, 1/2] or 1 for n >= 3; put -- before a negative one")),
    "gamma": (_cmd_gamma, "Euler's constant.",
              _arg("--method", choices=("EM", "ZETA_SERIES"), default="EM", help="summation route (default EM)")),
    "bernoulli": (_cmd_bernoulli, "Exact Bernoulli number B_n (B_1 = -1/2).",
                  _arg("n", type=int, help="index n >= 0")),
    "mzv": (_cmd_mzv, "Multiple zeta value zeta(n1, ..., nd): sum k1^-n1 ... kd^-nd over 0 < k1 < ... < kd.",
            _arg("parts", type=int, nargs="+", help="index parts, last must be >= 2")),
    "multiphi": (_cmd_multiphi,
                 "Alternating sum of (-1)^(k1+...+kd) k1^-n1 ... kd^-nd over 0 < k1 < ... < kd.",
                 _arg("parts", type=int, nargs="+", help="index parts n1 ... nd, each >= 1")),
    "stuffle-check": (_cmd_stuffle_check, "Verify zeta(m) zeta(n) = zeta(m,n) + zeta(n,m) + zeta(m+n).",
                      _arg("m", type=int), _arg("n", type=int)),
    "identity-check": (_cmd_identity_check, "Evaluate the defect of a classical identity.",
                       _arg("kind", choices=_IDENTITY_KINDS),
                       _arg("--x", default=None, help="point for dilog-reflection / cotangent"),
                       _arg("--s", default=None, help="exponent for euler-product / phi-funceq"),
                       _arg("--terms", type=int, default=None, help="cotangent truncation order"),
                       _arg("--prime-bound", type=int, default=None, help="euler-product prime cap"),
                       _arg("--tol", default=None,
                            help="fail (exit 3) when the residual exceeds this, a non-negative rational")),
    "coact": (_cmd_coact, "Galois coaction of a motivic expression.", _EXPR),
    "conjugates": (_cmd_conjugates, "Galois conjugates and their span dimension.", _EXPR),
    "per": (_cmd_per, "Numerical period of a motivic expression.", _EXPR),
    "period": (_cmd_period, "Monte-Carlo period of a primitive log-divergent graph.", _SEED,
               _arg("graph", help="named graph (bubble, triangle, k4, w4) or a JSON file"),
               _arg("--samples", type=int, default=100_000, metavar="N",
                    help="sample count, 2 to 10000000 (default 100000)")),
    "selftest": (_cmd_selftest, "Integrator self-test on known volumes.", _SEED,
                 _arg("--samples", type=int, default=100_000, metavar="N",
                      help="sample count, 10000 to 10000000 (default 100000)")),
    "g2-assemble": (_cmd_g2_assemble, "Partial sum of the a_e series through a given order.", _REGISTRY,
                    _arg("alpha_inv", nargs="?", default=None,
                         help="1/alpha as a decimal (default: the rubidium value from the registry)"),
                    _ORDER, _A2_MODE, _A3_MODE),
    "g2-invert-alpha": (_cmd_g2_invert_alpha, "Solve the a_e series for 1/alpha.", _REGISTRY,
                        _arg("target", help="a_e as a registry label (like exp:2008) or a decimal"),
                        _ORDER, _A2_MODE, _A3_MODE),
    "g2-compare": (_cmd_g2_compare,
                   "Difference of two registry values with combined 1σ uncertainty, rounded upward.", _REGISTRY,
                   _arg("a", help="registry label"), _arg("b", help="registry label")),
    "registry-list": (_cmd_registry_list, "List the measurement registry.", _REGISTRY),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with the subcommand ``command`` alone, or with all of them.

    One subparser parses and reports its own errors as the full parser
    does; the full one is for top-level help, a missing command and an
    unknown one, whose messages list every command.
    """
    parser = argparse.ArgumentParser(
        prog="euler-periods",
        description="Certified evaluation of Euler-type sums, graph periods and the electron g-2 series.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in (command,) if command in _COMMANDS else _COMMANDS:
        _, help_text, *arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text, description=help_text)
        for names, kw in (_PREC, _JSON, *arguments):
            p.add_argument(*names, **kw)
    return parser


def _write(text: str) -> None:
    """Write all of ``text`` to standard output, through its byte layer if it has one.

    Unbuffered (``PYTHONUNBUFFERED=1``, ``python -u``) that layer is the raw
    file, which may take part of a write, and the text layer would drop the
    rest silently: the loop writes on, so a closed pipe raises
    :class:`BrokenPipeError`.
    """
    out = sys.stdout
    out.flush()
    raw = getattr(out, "buffer", None)
    if raw is None:  # a text stream, such as io.StringIO
        out.write(text)
        return
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[raw.write(data):]
    raw.flush()


def dispatch(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        check_prec(args.prec)
        lines, payload, code = _COMMANDS[args.command][0](args)
    except PrecisionNotMet as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except (DomainError, InputError, ParseError, SchemaError, Disconnected,
            TooLarge, NotPrimitive) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (InternalCheckError, NoConvergence, NonFiniteSample) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3
    if args.json:
        import json
        lines = [json.dumps({"command": args.command, **payload, "output": "\n".join(lines)},
                            ensure_ascii=False)]
    try:
        _write("".join(line + "\n" for line in lines))
    except BrokenPipeError:
        # The reader closed the pipe.  What is still buffered goes to devnull,
        # so the flush at exit raises nothing, and the code is a shell's for SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
