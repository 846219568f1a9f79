"""Regenerate ``tests/data/bits.json``, the bit contract of the evaluators and the CLI.

Run from the repository root::

    PYTHONPATH=src python3 tests/make_bits.py

The file records, for each public evaluator on a fixed set of arguments and
at every prec in :data:`PRECS`, the exact bits ``(value._mpf_, err._mpf_)``
of the result, or the exception type and message when the call raises; for
a ``zeta_values`` batch, its binary precision ``B`` and integer ``(total,
err)`` pairs in units of ``2**-B``.  It
also records stdout and the exit code of a fixed set of CLI commands, in
plain and ``--json`` mode.  ``test_bits.py`` recomputes every cell and
compares the file byte for byte.  A change that alters bits on purpose
reruns this script and commits the rewrite; the diff of the file is the
list of changed cells, and the script prints each changed cell with its old
and new declared bound, marking a bound that grew.  The file was made with
mpmath 1.3.0, the version the CI installs; mpmath's elementary functions
set the bits of most cells.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from euler_periods import eulerfun, g2, symbolic
from euler_periods.cli import dispatch
from euler_periods.mzv import multiphi, mzv, mzv_bruteforce, p35_combination, stuffle_residual
from euler_periods.numkernel import zeta_values

BITS = Path(__file__).resolve().parent / "data" / "bits.json"
PRECS = (1, 2, 5, 15, 30, 50, 70, 100)
CLI_PRECS = (1, 15, 99, 100)

Q = Fraction
ZETA_ARGS = [Q(3, 2), 2, Q(7, 3), 3, 5]
PHI_ARGS = [Q(1, 2), 1, 2, Q(5, 2)]
#: Every polylog route and domain error, old and new: the series, the
#: alternating range, both endpoints, n = 1, the reflection window, zero, an
#: inexact float and decimal string, and the weight cap.
POLYLOG_ARGS = [
    (1, Q(1, 2)), (1, Q(-1, 3)), (1, "0.3"), (1, -1), (1, 0),
    (2, Q(1, 2)), (2, Q(1, 3)), (2, Q(-1, 2)), (2, Q(-9, 10)), (2, -1), (2, 1),
    (2, Q(3, 4)), (2, Q(99, 100)), (2, 0), (2, "0.3"), (2, Q(3, 10)), (2, 0.3),
    (3, Q(1, 3)), (3, Q(-1, 2)), (3, Q(-3, 4)), (3, 1), (3, -1), (3, Q(3, 4)),
    (4, Q(1, 2)), (5, Q(-39, 40)), (7, Q(1, 40)), (1001, Q(1, 2)),
    (2, Q(3, 2)), (1, 1),
]
MZV_ARGS = [(2,), (3,), (7,), (1, 2), (2, 3), (3, 5), (2, 2, 3), (1, 1, 3), (2, 2, 2, 3), (1, 3, 1, 3)]
MULTIPHI_ARGS = [(1, 1), (1, 3), (2, 2), (1, 1, 1), (1, 2, 3)]
IDENTITY_ARGS = [
    ("DILOG_REFLECTION", {"x": Q(1, 2)}),
    ("DILOG_REFLECTION", {"x": Q(1, 3)}),
    ("COTANGENT", {"x": Q(1, 2), "terms": 30}),
    ("EULER_PRODUCT", {"s": 2, "prime_bound": 1000}),
    ("PHI_FUNCEQ", {"s": Q(1, 3)}),
    ("PHI_FUNCEQ", {"s": Q(3, 10)}),
]
PERIOD_EXPRS = [
    "zeta_m(3)",
    "5*zeta_m(4) - 2*zeta_m(2)*zeta_m(2)",
    "twopi_i*twopi_i",
    "Li_m(1; 1/3)",
    "Li_m(2; 1/2) + Li_m(3; -1/2)",
    "Li_m(2; 3/4)*zeta_m(3) - Li_m(4; 1)",
]
MODES = ("EXACT_BRACKET", "AS_PRINTED", "REGISTRY")
#: ``(top, prec)`` of the ``zeta_values`` batches pinned whole, one cell each.
ZETA_BATCHES = [(33, 17), (79, 56), (144, 106)]


def _cells():
    """``(key, call)`` for every library cell, in file order."""
    for s in ZETA_ARGS:
        yield f"zeta({s})", lambda p, s=s: eulerfun.zeta(s, p)
    for s in PHI_ARGS:
        yield f"phi({s})", lambda p, s=s: eulerfun.phi(s, p)
    for n, z in POLYLOG_ARGS:
        arg = repr(z) if isinstance(z, (str, float)) else str(z)
        yield f"polylog({n}, {arg})", lambda p, n=n, z=z: eulerfun.polylog(n, z, p)
    for method in ("EM", "ZETA_SERIES"):
        yield f"gamma_const({method})", lambda p, m=method: eulerfun.gamma_const(p, m)
    for kind, params in IDENTITY_ARGS:
        text = ", ".join(f"{k}={v}" for k, v in params.items())
        yield (f"identity_residual({kind}, {text})",
               lambda p, k=kind, q=params: eulerfun.identity_residual(k, q, p))
    for idx in MZV_ARGS:
        yield f"mzv{idx}", lambda p, i=idx: mzv(i, p)
    yield "mzv_bruteforce((2, 3), 200)", lambda p: mzv_bruteforce((2, 3), 200, p)
    for idx in MULTIPHI_ARGS:
        yield f"multiphi{idx}", lambda p, i=idx: multiphi(i, p)
    yield "stuffle_residual(2, 3)", lambda p: stuffle_residual(2, 3, p)
    yield "p35_combination", p35_combination
    for text in PERIOD_EXPRS:
        yield f"period_map({text})", lambda p, t=text: symbolic.period_map(symbolic.parse_expr(t), p)
    for mode in MODES:
        yield f"coeff_a2({mode})", lambda p, m=mode: g2.coeff_a2(m, p)
    for mode in MODES:
        yield f"coeff_a3({mode})", lambda p, m=mode: g2.coeff_a3(m, p)
    yield "assemble(137.035999084)", lambda p: g2.assemble("137.035999084", prec=p)
    yield "invert_alpha(exp:2008)", lambda p: g2.invert_alpha(g2.lookup(None, "exp:2008"), prec=p)


def _commands():
    """argv lists of the CLI cells; ``--prec`` and ``--json`` go after the command."""
    return [
        ["zeta", "3/2"], ["phi", "1/2"], ["gamma"], ["gamma", "--method", "ZETA_SERIES"],
        ["polylog", "1", "1/3"], ["polylog", "1", "99999999999999999999999/100000000000000000000000"],
        ["polylog", "2", "1/2"], ["polylog", "3", "--", "-3/4"],
        ["polylog", "2", "3/4"], ["polylog", "2", "1"], ["polylog", "3", "3/4"],
        ["polylog", "3", "-3/4"], ["polylog", "1001", "1/2"],
        ["mzv", "2"], ["mzv", "2", "3"], ["mzv", "2", "2", "3"], ["mzv", "2", "2", "2", "3"],
        ["multiphi", "1", "3"], ["multiphi", "1", "1", "1"],
        ["stuffle-check", "2", "3"],
        ["identity-check", "dilog-reflection", "--x", "1/3"],
        ["identity-check", "cotangent", "--x", "1/2", "--terms", "30"],
        ["identity-check", "euler-product", "--s", "2", "--prime-bound", "1000"],
        ["identity-check", "phi-funceq", "--s", "1/3"],
        ["per", "Li_m(2; 1/2)*zeta_m(3)"], ["per", "5*zeta_m(4) - 2*zeta_m(2)*zeta_m(2)"],
        ["g2-assemble"], ["g2-invert-alpha", "exp:2008"],
        ["g2-assemble", "--order", "3", "--a3-mode", "as-printed"],
        ["g2-assemble", "--order", "3", "--a3-mode", "exact-bracket"],
        ["period", "k4", "--samples", "140000", "--seed", "7"], ["selftest", "--samples", "140000"],
    ]


def _pair(value, err) -> list:
    return [[int(v) for v in value._mpf_], [int(v) for v in err._mpf_]]


def _bits(call, prec: int):
    try:
        x = call(prec)
    except Exception as exc:  # the cell records what was raised
        return {"raises": [type(exc).__name__, str(exc)]}
    return _pair(x.value, x.err)


def _cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    return {"code": code, "stdout": out.getvalue()}


def build() -> dict:
    values = {f"{key} @{p}": _bits(call, p) for key, call in _cells() for p in PRECS}
    for top, prec in ZETA_BATCHES:
        bits, pairs = zeta_values(top, prec)
        values[f"zeta_values({top}, {prec})"] = [bits, [list(pair) for pair in pairs]]
    cli = {}
    for argv in _commands():
        for p in CLI_PRECS:
            for mode in ([], ["--json"]):
                full = argv[:1] + ["--prec", str(p)] + mode + argv[1:]
                cli[" ".join(full)] = _cli(full)
    return {"values": values, "cli": cli}


def dump(doc: dict) -> str:
    """One cell per line, so the diff of a rewrite lists the changed cells."""
    parts = []
    for section, cells in doc.items():
        rows = [f"{json.dumps(k)}: {json.dumps(v, ensure_ascii=False)}" for k, v in cells.items()]
        parts.append(f"{json.dumps(section)}: {{\n" + ",\n".join(rows) + "\n}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _err(cell):
    """The declared bound of a cell, exactly; the largest of a batch; None if it has none.

    A ``zeta_values`` batch is ``[B, [[total, err], ...]]`` in integer units
    of ``2**-B``.
    """
    if cell is None or "raises" in cell:
        return None
    if "stdout" in cell:
        m = re.search(r"± ([-+.0-9e]+)", cell["stdout"])
        return Fraction(m.group(1)) if m else None
    if isinstance(cell[0], int):
        bits, pairs = cell
        return max(Fraction(err, 1 << bits) for _, err in pairs)
    sign, man, exp, _ = cell[1]
    return (-1) ** sign * man * Fraction(2) ** exp


def report(old: dict, new: dict) -> None:
    """Print every cell that a rewrite adds, removes or changes, with its bound."""
    for section in new:
        before, after = old.get(section, {}), new[section]
        for key in [*after, *(k for k in before if k not in after)]:
            if before.get(key) == after.get(key):
                continue
            e0, e1 = _err(before.get(key)), _err(after.get(key))
            grew = "  GREW" if e0 is not None and e1 is not None and e1 > e0 else ""
            shown = ["-" if e is None else f"{float(e):.3g}" for e in (e0, e1)]
            print(f"{section}: {key}: err {shown[0]} -> {shown[1]}{grew}")


if __name__ == "__main__":
    previous = json.loads(BITS.read_text(encoding="utf-8")) if BITS.exists() else {}
    fresh = build()
    report(previous, fresh)
    BITS.parent.mkdir(exist_ok=True)
    BITS.write_text(dump(fresh), encoding="utf-8")
