"""Command line front end with deterministic text and JSON reports.

Every subcommand prints its main numeric result as ``value ± bound`` and
exits 0 on success, 1 when a requested precision could not be certified,
2 on invalid input, 3 when an internal cross-check fails, and 141 when the
reader of standard output closes it before the output is written.
Identical arguments produce byte-identical output.  Interfaces use decimal
strings only, so reports can be compared across machines and languages.

Each subcommand imports the layer it runs when it runs, so a call loads
only what it needs; numpy is loaded by ``period`` and ``selftest`` alone.
"""

from __future__ import annotations

import argparse
import json
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
from .numkernel import BigReal, as_fraction, bernoulli, bound_text, check_prec, exact_str, value_text

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
    value, bound = value_text(x, x.prec), bound_text(x.err, 2)
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
    resid = abs(r)
    ok = bool(resid.value <= r.err)
    resid_text, bound = value_text(resid, 3), bound_text(r.err, 3)
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
    resid, bound = value_text(magnitude, 3), bound_text(r.err, 2)
    payload = {"kind": kind, "residual": resid, "bound": bound}
    if tol is None:
        return [f"residual {resid} ± {bound}"], payload, 0
    ok = as_fraction(magnitude.value) <= tol  # the midpoint against the tol as written, exactly
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


_COMMANDS = {
    "zeta": _cmd_zeta,
    "phi": _cmd_phi,
    "polylog": _cmd_polylog,
    "gamma": _cmd_gamma,
    "bernoulli": _cmd_bernoulli,
    "mzv": _cmd_mzv,
    "multiphi": _cmd_multiphi,
    "stuffle-check": _cmd_stuffle_check,
    "identity-check": _cmd_identity_check,
    "coact": _cmd_coact,
    "conjugates": _cmd_conjugates,
    "per": _cmd_per,
    "period": _cmd_period,
    "selftest": _cmd_selftest,
    "g2-assemble": _cmd_g2_assemble,
    "g2-invert-alpha": _cmd_g2_invert_alpha,
    "g2-compare": _cmd_g2_compare,
    "registry-list": _cmd_registry_list,
}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euler-periods",
        description="Certified evaluation of Euler-type sums, graph periods and the electron g-2 series.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str, registry: bool = False, seed: bool = False):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--prec", type=int, default=15, metavar="N",
                       help="requested decimal precision (default 15)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if registry:
            p.add_argument("--registry", metavar="PATH", default=None,
                           help="measurement registry JSON (default: packaged, or EULER_PERIODS_REGISTRY)")
        if seed:
            p.add_argument("--seed", type=int, default=42, metavar="N",
                           help="random seed (default 42)")
        return p

    p = add("zeta", "Riemann zeta at a real point s > 1.")
    p.add_argument("s", help="argument, a rational like 2 or 3/2")

    p = add("phi", "Alternating zeta phi(s) for s > 0.")
    p.add_argument("s", help="argument, a rational like 1 or 1/2")

    p = add("polylog", "Polylogarithm Li_n(z) on the real interval [-1, 1].")
    p.add_argument("n", type=int, help="integer order n >= 1")
    p.add_argument("z", help="argument, a rational in [-1, 1]; put -- before a negative one")

    p = add("gamma", "Euler's constant.")
    p.add_argument("--method", choices=("EM", "ZETA_SERIES"), default="EM",
                   help="summation route (default EM)")

    p = add("bernoulli", "Exact Bernoulli number B_n (B_1 = -1/2).")
    p.add_argument("n", type=int, help="index n >= 0")

    p = add("mzv", "Multiple zeta value zeta(n1, ..., nd): sum k1^-n1 ... kd^-nd over 0 < k1 < ... < kd.")
    p.add_argument("parts", type=int, nargs="+", help="index parts, last must be >= 2")

    p = add("multiphi", "Alternating sum of (-1)^(k1+...+kd) k1^-n1 ... kd^-nd over 0 < k1 < ... < kd.")
    p.add_argument("parts", type=int, nargs="+", help="index parts n1 ... nd, each >= 1")

    p = add("stuffle-check", "Verify zeta(m) zeta(n) = zeta(m,n) + zeta(n,m) + zeta(m+n).")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)

    p = add("identity-check", "Evaluate the defect of a classical identity.")
    p.add_argument("kind", choices=_IDENTITY_KINDS)
    p.add_argument("--x", default=None, help="point for dilog-reflection / cotangent")
    p.add_argument("--s", default=None, help="exponent for euler-product / phi-funceq")
    p.add_argument("--terms", type=int, default=None, help="cotangent truncation order")
    p.add_argument("--prime-bound", type=int, default=None, help="euler-product prime cap")
    p.add_argument("--tol", default=None,
                   help="fail (exit 3) when the residual exceeds this, a non-negative rational")

    p = add("coact", "Galois coaction of a motivic expression.")
    p.add_argument("expr", help="expression in zeta_m(n), Li_m(n; z), twopi_i")

    p = add("conjugates", "Galois conjugates and their span dimension.")
    p.add_argument("expr", help="expression in zeta_m(n), Li_m(n; z), twopi_i")

    p = add("per", "Numerical period of a motivic expression.")
    p.add_argument("expr", help="expression in zeta_m(n), Li_m(n; z), twopi_i")

    p = add("period", "Monte-Carlo period of a primitive log-divergent graph.", seed=True)
    p.add_argument("graph", help="named graph (bubble, triangle, k4, w4) or a JSON file")
    p.add_argument("--samples", type=int, default=100_000, metavar="N",
                   help="sample count (default 100000)")

    p = add("selftest", "Integrator self-test on known volumes.", seed=True)
    p.add_argument("--samples", type=int, default=100_000, metavar="N",
                   help="sample count (default 100000)")

    p = add("g2-assemble", "Partial sum of the a_e series through a given order.", registry=True)
    p.add_argument("alpha_inv", nargs="?", default=None,
                   help="1/alpha as a decimal (default: the rubidium value from the registry)")
    p.add_argument("--order", type=int, default=4, choices=(1, 2, 3, 4))
    p.add_argument("--a2-mode", choices=_COEFF_MODES[:3], default=None)
    p.add_argument("--a3-mode", choices=_COEFF_MODES, default=None)

    p = add("g2-invert-alpha", "Solve the a_e series for 1/alpha.", registry=True)
    p.add_argument("target", help="a_e as a registry label (like exp:2008) or a decimal")
    p.add_argument("--order", type=int, default=4, choices=(1, 2, 3, 4))
    p.add_argument("--a2-mode", choices=_COEFF_MODES[:3], default=None)
    p.add_argument("--a3-mode", choices=_COEFF_MODES, default=None)

    p = add("g2-compare", "Difference of two registry values with combined 1σ uncertainty, rounded upward.",
            registry=True)
    p.add_argument("a", help="registry label")
    p.add_argument("b", help="registry label")

    add("registry-list", "List the measurement registry.", registry=True)

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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        check_prec(args.prec)
        lines, payload, code = _COMMANDS[args.command](args)
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
