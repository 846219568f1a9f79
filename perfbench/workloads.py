"""The four operation families the benchmark runs, with their checks.

Each family builds its inputs from a ``random.Random`` seeded by the
benchmark seed, times only the calls into euler_periods, and checks every
result against :mod:`refs` after the clock has stopped.  Results land in a
:class:`Tally`, which classifies every operation as

* ``ok``: correct, and certified where certification was asked for;
* ``known``: raised ``PrecisionNotMet`` in a cell listed in
  ``known_failing.json`` (a documented baseline failure);
* ``fail``: raised anything else, or returned an uncertified bound where a
  certified one was asked for;
* ``wrong``: returned ``|value - ref| > err``, or a statistical estimate
  more than ``WRONG_SIGMAS`` standard errors from the exact value;
* ``known_wrong``: a wrong answer in a cell listed as a baseline defect.

Only ``fail`` and ``wrong`` make a run incorrect.  The baseline lists keep
known defects visible as counts without hiding a new one.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mpf

import hostspeed
import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REGISTRY = SRC / "euler_periods" / "data" / "registry.json"

TIERS = (15, 50, 100)
SWEEP_CELLS = (
    "zeta", "phi", "polylog_series", "polylog_alt", "polylog_reflect",
    "gamma_em", "gamma_zs", "mzv_d2", "mzv_d3", "multiphi_13", "multiphi_11",
    "period_map", "g2_assemble", "g2_invert_alpha", "a3_consistent", "a3_as_printed",
)
#: Cells whose input never changes; every other cell draws fresh arguments,
#: from a finite closed-form list for the mzv cells.
CONSTANT_CELLS = frozenset({"gamma_em", "gamma_zs", "multiphi_13", "multiphi_11",
                            "a3_consistent", "a3_as_printed"})
LISTED_CELLS = frozenset({"mzv_d2", "mzv_d3"})

#: Statistical checks: a deviation beyond this many standard errors is a
#: wrong answer.  Deviations beyond 3 are counted separately; with hundreds
#: of independent estimates per session a 3-sigma gate would flag correct
#: code by chance.
WRONG_SIGMAS = 5.0
COUNT_SIGMAS = 3.0

MC_SAMPLES = {"k4": 1_000_000, "w4": 1_000_000, "w5": 200_000, "selftest": 100_000}
POINTS = ("1/2", "1/3", "x", "y")


def load_package():
    """Import euler_periods and its layers; returns a namespace of modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    ep = importlib.import_module("euler_periods")
    names = ("numkernel", "eulerfun", "mzv", "symbolic", "feynper", "g2", "cli", "errors")
    mods = {n: importlib.import_module(f"euler_periods.{n}") for n in names}
    return type("Package", (), {"ep": ep, **mods})


def load_known_failing() -> dict[str, frozenset[str]]:
    """Baseline failures by kind: cells that raise, and cells that answer wrong."""
    doc = json.loads((HERE / "known_failing.json").read_text("utf-8"))
    return {kind: frozenset(cell for cell, _ in doc[kind].items()) for kind in ("raises", "wrong")}


def mpf_bytes(x) -> bytes:
    return repr(mpf(x)._mpf_).encode()


# ---------------------------------------------------------------------------
# Outcome bookkeeping
# ---------------------------------------------------------------------------


class Tally:
    """Counts, timings and digests of the operations of one run."""

    def __init__(self, known: dict[str, frozenset[str]], tracer=None):
        self.known = known
        self.tracer = tracer
        self.status = Counter()
        self.records: list[tuple[str, str, float, str]] = []
        self.digests: dict[str, "hashlib._Hash"] = {}
        self.notes: list[str] = []
        self.info = Counter()
        self.inputs: dict[str, Counter] = {"seen": Counter(), "repeat": Counter()}
        self._seen: set = set()
        self.probes: list[float] = []

    def digest(self, family: str, data: bytes) -> None:
        self.digests.setdefault(family, hashlib.sha256()).update(data + b"\x00")

    def input(self, kind: str, key) -> None:
        """Record one input and whether it was seen before in this run."""
        self.inputs["seen"][kind] += 1
        if key in self._seen:
            self.inputs["repeat"][kind] += 1
        self._seen.add(key)

    def run(self, family: str, cell: str, call, check):
        """Time ``call()``, then classify it with ``check(result)``.

        The seconds recorded and returned are wall seconds, taken to the
        reference host speed for the families in ``hostspeed.FAMILIES``."""
        span = self.tracer.request(f"bench.{family}.{cell}", family) if self.tracer else nullcontext()
        result = None
        timer = hostspeed.Timer(family in hostspeed.FAMILIES)
        with timer, span:
            try:
                result = call()
                err = None
            except Exception as exc:  # any failure of the program is an outcome
                err = exc
        seconds = timer.seconds
        self.probes += timer.edges
        if err is None:
            status, data = check(result)
        else:
            data = f"{type(err).__name__}".encode()
            status = "fail"
        key = f"{family}/{cell}"
        if status == "fail" and type(err).__name__ == "PrecisionNotMet" and key in self.known["raises"]:
            status = "known"
        elif status == "wrong" and key in self.known["wrong"]:
            status = "known_wrong"
        if status in ("fail", "wrong") and len(self.notes) < 20:
            self.notes.append(f"{family}/{cell}: {status}: {err!r}" if err else f"{family}/{cell}: {status}")
        self.digest(family, cell.encode() + b":" + status.encode() + b":" + data)
        self.status[status] += 1
        self.records.append((family, cell, seconds, status))
        return result, seconds, status

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    @property
    def failed(self) -> int:
        """Operations that failed outside the documented baseline failures."""
        return self.status["fail"] + self.status["wrong"]

    def share_ok(self, family: str) -> float:
        """Share of ``ok`` outcomes, each operation kind (cell) weighted
        equally however often it ran."""
        per_cell: dict[str, list[int]] = {}
        for f, cell, _, status in self.records:
            if f == family:
                ok_n = per_cell.setdefault(cell, [0, 0])
                ok_n[0] += status == "ok"
                ok_n[1] += 1
        return sum(ok / n for ok, n in per_cell.values()) / max(1, len(per_cell))


def check_big(x, ref: mpf, prec: int | None) -> tuple[str, bytes]:
    """``wrong`` when the bound misses the reference; ``fail`` when ``prec``
    asks for certification and the bound exceeds ``10**-prec``."""
    with mpmath.workdps(refs.REF_DPS):
        if abs(x.value - ref) > x.err:
            status = "wrong"
        elif prec is not None and x.err > mpf(10) ** (-prec):
            status = "fail"
        else:
            status = "ok"
    return status, mpf_bytes(x.value) + b"/" + mpf_bytes(x.err)


def rat(rng, lo: Fraction, hi: Fraction, den_max: int = 12) -> Fraction:
    """A rational strictly inside ``(lo, hi)`` with a small denominator."""
    while True:
        d = rng.randint(2, den_max)
        n = rng.randint(math.ceil(lo * d), math.floor(hi * d))
        x = Fraction(n, d)
        if lo < x < hi and x != 0:
            return x


# ---------------------------------------------------------------------------
# certified-sweep: every evaluator at prec 15, 50 and 100
# ---------------------------------------------------------------------------


class Sweep:
    def __init__(self, pkg, tally: Tally):
        self.p = pkg
        self.t = tally
        self.g2ref = refs.G2Reference(REGISTRY)

    def cells(self, rng, prec: int):
        """(cell, call, check) triples for one tier; inputs from ``rng``."""
        ef, mz, sy, g2 = self.p.eulerfun, self.p.mzv, self.p.symbolic, self.p.g2
        g2ref = self.g2ref
        s_zeta = rat(rng, Fraction(6, 5), Fraction(8))
        s_phi = rat(rng, Fraction(1, 4), Fraction(8))
        n_ser, z_ser = rng.randint(1, 5), rat(rng, Fraction(-1, 2), Fraction(1, 2), 40)
        n_alt, z_alt = rng.randint(2, 4), rat(rng, Fraction(-1), Fraction(-1, 2), 40)
        z_ref = rat(rng, Fraction(1, 2), Fraction(1), 40)
        d2 = rng.choice(refs.MZV_DEPTH2)
        d3 = rng.choice(refs.MZV_DEPTH3)
        terms, text = period_expr(rng)
        alpha = mpf("137.035999") + mpf(rng.randint(-10 ** 6, 10 ** 6)) / 10 ** 9
        alpha_text = mpmath.nstr(alpha, 15)
        alpha_target = mpf("137.035999") + mpf(rng.randint(-10 ** 6, 10 ** 6)) / 10 ** 9
        target_text = mpmath.nstr(g2ref.ae(alpha_target), 45)
        args = {
            "zeta": s_zeta, "phi": s_phi, "polylog_series": (n_ser, z_ser),
            "polylog_alt": (n_alt, z_alt), "polylog_reflect": z_ref, "mzv_d2": d2,
            "mzv_d3": d3, "period_map": text, "g2_assemble": alpha_text,
            "g2_invert_alpha": target_text,
        }
        for cell in SWEEP_CELLS:
            kind = ("const" if cell in CONSTANT_CELLS
                    else "listed" if cell in LISTED_CELLS else "args")
            self.t.input(f"sweep.{kind}", (cell, prec, args.get(cell)))
        iterations = []

        def invert():
            iterations.clear()
            return g2.invert_alpha(target_text, prec=prec, trace=iterations)

        def check_invert(x):
            self.t.info["g2.invert_alpha.iterations"] += len(iterations)
            self.t.info["g2.invert_alpha.calls"] += 1
            return check_big(x, alpha_target, None)

        expr = sy.parse_expr(text)
        return [
            ("zeta", lambda: ef.zeta(s_zeta, prec), lambda x: check_big(x, refs.zeta(s_zeta), prec)),
            ("phi", lambda: ef.phi(s_phi, prec), lambda x: check_big(x, refs.phi(s_phi), prec)),
            ("polylog_series", lambda: ef.polylog(n_ser, z_ser, prec),
             lambda x: check_big(x, refs.polylog(n_ser, z_ser), prec)),
            ("polylog_alt", lambda: ef.polylog(n_alt, z_alt, prec),
             lambda x: check_big(x, refs.polylog(n_alt, z_alt), prec)),
            ("polylog_reflect", lambda: ef.polylog(2, z_ref, prec),
             lambda x: check_big(x, refs.polylog(2, z_ref), prec)),
            ("gamma_em", lambda: ef.gamma_const(prec, "EM"),
             lambda x: check_big(x, refs.euler_gamma(), prec)),
            ("gamma_zs", lambda: ef.gamma_const(prec, "ZETA_SERIES"),
             lambda x: check_big(x, refs.euler_gamma(), prec)),
            ("mzv_d2", lambda: mz.mzv(d2, prec), lambda x: check_big(x, refs.mzv(d2), prec)),
            ("mzv_d3", lambda: mz.mzv(d3, prec), lambda x: check_big(x, refs.mzv(d3), prec)),
            ("multiphi_13", lambda: mz.multiphi((1, 3), prec),
             lambda x: check_big(x, refs.multiphi((1, 3)), prec)),
            ("multiphi_11", lambda: mz.multiphi((1, 1), prec),
             lambda x: check_big(x, refs.multiphi((1, 1)), prec)),
            ("period_map", lambda: sy.period_map(expr, prec),
             lambda x: check_big(x, refs.period(terms), prec)),
            ("g2_assemble", lambda: g2.assemble(alpha_text, prec=prec),
             lambda x: check_big(x, g2ref.ae(mpf(alpha_text)), None)),
            ("g2_invert_alpha", invert, check_invert),
            ("a3_consistent", lambda: g2.coeff_a3("CONSISTENT", prec),
             lambda x: check_big(x, g2ref.a3, None)),
            ("a3_as_printed", lambda: g2.coeff_a3("AS_PRINTED", prec),
             lambda x: check_big(x, g2ref.a3_printed, prec)),
        ]

    def run_pass(self, rng, tiers=None) -> None:
        """Every cell once at each of ``tiers`` (default: all)."""
        tracer = self.t.tracer
        for prec in tiers or TIERS:
            ops_before = tracer.bigreal_ops if tracer else 0
            for cell, call, check in self.cells(rng, prec):
                self.t.run("sweep", f"{cell}.p{prec}", call, check)
            if tracer:
                self.t.info[f"sweep.bigreal_ops.p{prec}"] += tracer.bigreal_ops - ops_before
            self.t.info[f"sweep.runs.p{prec}"] += 1


def period_expr(rng) -> tuple[list, str]:
    """``c*zeta_m(a)*Li_m(n; z) - zeta_m(b)`` with its reference terms."""
    c = rat(rng, Fraction(-3), Fraction(3), 6)
    a, b, n = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 4)
    z = rat(rng, Fraction(-1, 2), Fraction(1, 2), 20)
    terms = [(c, [("zeta_m", a, None), ("Li_m", n, z)]), (Fraction(-1), [("zeta_m", b, None)])]
    return terms, f"{c}*zeta_m({a})*Li_m({n}; {z}) - zeta_m({b})"


# ---------------------------------------------------------------------------
# mc-periods: Monte Carlo graph periods and exact graph work
# ---------------------------------------------------------------------------


class MonteCarlo:
    def __init__(self, pkg, tally: Tally):
        self.p = pkg
        self.t = tally
        f = pkg.feynper
        self.graphs = {"k4": f.k4(), "w4": f.wheel(4), "w5": f.wheel(5)}
        self.wheels = {n: f.wheel(n) for n in (4, 5, 6)}
        self.refs = {"k4": refs.wheel_period(3), "w4": refs.wheel_period(4)}
        self.reset()

    def reset(self) -> None:
        # name -> [samples, sum, sum of squares], pooled over the calls
        self.pool: dict[str, list[float]] = {}
        # graph name or "selftest" -> samples per second of each call
        self.rates: dict[str, list[float]] = {}
        # seconds of the numpy probe before each period_mc call
        self.probes: list[float] = []

    def _check_estimate(self, name: str, est) -> tuple[str, bytes]:
        data = est.estimate.hex().encode() + b"/" + est.stderr.hex().encode()
        if not (math.isfinite(est.estimate) and math.isfinite(est.stderr) and est.stderr > 0):
            return "wrong", data
        if name not in self.refs:
            return "ok", data
        sigmas = abs(est.estimate - self.refs[name]) / est.stderr
        if sigmas > COUNT_SIGMAS:
            self.t.info["mc.beyond_3sigma"] += 1
        return ("wrong" if sigmas > WRONG_SIGMAS else "ok"), data

    def _add_to_pool(self, name: str, est, seconds: float) -> None:
        n = est.samples
        acc = self.pool.setdefault(name, [0, 0.0, 0.0])
        acc[0] += n
        acc[1] += est.estimate * n
        acc[2] += (est.stderr ** 2 * n + est.estimate ** 2) * n
        self.rates.setdefault(name, []).append(n / seconds)

    def rate(self, name: str) -> float:
        """Samples per second of the median call on one graph, at the
        reference speed of ``hostspeed.numpy_probe``."""
        return statistics.median(self.rates[name]) / hostspeed.scale(
            hostspeed.REFERENCE_NUMPY_S, self.probes)

    def samples_per_s(self) -> float:
        """Samples per second of a pass: the pass's samples over the sum of
        each graph's samples at its rate."""
        names = list(self.graphs)
        return (sum(MC_SAMPLES[n] for n in names)
                / sum(MC_SAMPLES[n] / self.rate(n) for n in names))

    def work_err(self, name: str) -> float:
        """Relative standard error of the pooled estimate times the square
        root of the seconds its samples take at the graph's rate."""
        n, s, sq = self.pool[name]
        mean = s / n
        stderr = math.sqrt(max(sq / n - mean * mean, 0.0) / n)
        return stderr / abs(mean) * math.sqrt(n / self.rate(name))

    def run_pass(self, rng, scale: float = 1.0) -> None:
        """One pass; ``scale`` multiplies the sample counts (at least 1e4)."""
        f = self.p.feynper
        samples = {k: max(10_000, int(v * scale)) for k, v in MC_SAMPLES.items()}
        for name, g in self.graphs.items():
            seed = rng.randrange(2 ** 31)
            self.t.input("mc", (name, seed))
            self.probes.append(hostspeed.numpy_probe())
            est, seconds, _ = self.t.run(
                "mc", f"period_mc.{name}",
                lambda g=g, n=samples[name], seed=seed: f.period_mc(g, n, seed=seed),
                lambda est, name=name: self._check_estimate(name, est))
            if est is not None:
                self._add_to_pool(name, est, seconds)
        seed = rng.randrange(2 ** 31)
        _, seconds, _ = self.t.run(
            "mc", "selftest", lambda: f.integrator_selftest(samples["selftest"], seed=seed),
            self._check_selftest)
        self.rates.setdefault("selftest", []).append(samples["selftest"] / seconds)
        for spokes, g in self.wheels.items():
            trees = refs.wheel_spanning_trees(spokes)
            self.t.run("mc", f"spanning_trees.w{spokes}", lambda g=g: f.spanning_trees(g),
                       lambda r, trees=trees: (("ok" if r[0] == trees == len(r[1]) else "wrong"),
                                               str(r[0]).encode()))
            self.t.run("mc", f"kirchhoff.w{spokes}", lambda g=g: f.kirchhoff_polynomial(g),
                       lambda p, trees=trees, spokes=spokes: (
                           ("ok" if p.monomial_count() == trees and p.degree() == spokes
                            and p.is_homogeneous() else "wrong"),
                           str(sorted(p.terms.items())).encode()))
            self.t.run("mc", f"primitive.w{spokes}", lambda g=g: f.is_primitive_log_divergent(g),
                       lambda r: ("ok" if r is True else "wrong", str(r).encode()))

    def _check_selftest(self, report) -> tuple[str, bytes]:
        data = str(report).encode()
        if not report.passed:
            self.t.info["mc.beyond_3sigma"] += 1
        worst = max(e.sigmas for e in report.entries)
        return ("wrong" if worst > WRONG_SIGMAS else "ok"), data


# ---------------------------------------------------------------------------
# motivic-algebra: parse, coaction, coassociativity, conjugates, stability
# ---------------------------------------------------------------------------


RANDOM_PRODUCTS = 8
#: Stability families: the conjugates of these shapes, with two distinct points.
#: Their sizes, 16 and 24 conjugates, keep a pass near one second; the cost
#: of stability_report grows steeply with the family (30 conjugates take
#: about 1.7 s, 144 take minutes).
FAMILY_SHAPES = {
    "small": "Li_m(3; {p})*Li_m(3; {q})",
    "large": "Li_m(2; {p})*Li_m(3; {q})*zeta_m(3)",
}


def random_product(rng) -> str:
    atoms = []
    for _ in range(rng.randint(2, 3)):
        if rng.random() < 0.35:
            atoms.append(f"zeta_m({rng.randint(2, 5)})")
        else:
            atoms.append(f"Li_m({rng.randint(1, 4)}; {rng.choice(POINTS)})")
    c = rat(rng, Fraction(-4), Fraction(4), 5)
    return f"{c}*" + "*".join(atoms)


class Algebra:
    def __init__(self, pkg, tally: Tally):
        self.s = pkg.symbolic
        self.t = tally

    def run_pass(self, rng) -> None:
        s = self.s
        for _ in range(RANDOM_PRODUCTS):
            text = random_product(rng)
            self.t.input("alg", text)
            e, _, status = self.t.run(
                "alg", "parse", lambda: s.parse_expr(text),
                lambda e: ("ok" if s.parse_expr(str(e)) == e else "wrong", str(e).encode()))
            if status != "ok":
                continue
            tensor = self.t.run("alg", "coact", lambda: s.coact(e),
                                lambda t: ("ok" if not t.is_zero() else "wrong", str(t).encode()))[0]
            if tensor is not None:
                self.t.info["alg.coact_terms"] += len(tensor.terms)
                self.t.info["alg.coact_calls"] += 1
            self.t.run("alg", "coassoc", lambda: s.coassoc_residual(e),
                       lambda r: ("ok" if r is True else "wrong", b"1"))
            self._conjugates(e, "conjugates")
        for size, shape in FAMILY_SHAPES.items():
            p, q = rng.sample(POINTS, 2)
            e = s.parse_expr(shape.format(p=p, q=q))
            family = self._conjugates(e, f"conjugates.{size}")
            if family is None:
                continue
            self.t.info[f"alg.family.{size}"] = len(family)
            self.t.run("alg", f"stability.{size}", lambda: s.stability_report(family),
                       lambda r: ("ok" if r.stable else "wrong", str(r).encode()))

    def _conjugates(self, e, cell: str):
        s = self.s

        def check(res):
            conj, dim = res
            ok = bool(conj) and conj[0] == e and 1 <= dim <= len(conj)
            if cell == "conjugates":
                self.t.info["alg.conjugates"] += len(conj)
            return ("ok" if ok else "wrong"), ("\n".join(map(str, conj)) + f"|{dim}").encode()
        res, _, status = self.t.run("alg", cell, lambda: s.galois_conjugates(e), check)
        return res[0] if status == "ok" else None


# ---------------------------------------------------------------------------
# cli-mix: one euler-periods process per command
# ---------------------------------------------------------------------------


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EULER_PERIODS_REGISTRY", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _dec(x: mpf) -> Decimal:
    with mpmath.workdps(refs.REF_DPS):
        return Decimal(mpmath.nstr(x, 60, min_fixed=-math.inf, max_fixed=math.inf))


def _unit(text: str) -> Decimal:
    return Decimal(1).scaleb(Decimal(text).as_tuple().exponent)


def value_within(value: str, bound: str, ref: mpf) -> bool:
    """|value - ref| <= bound, allowing for the rounding of both printed numbers."""
    slack = Decimal(bound) + _unit(bound) / 2 + _unit(value) / 2
    return abs(Decimal(value) - _dec(ref)) <= slack


class CliMix:
    """A fixed cycle of 18 subcommands; arguments drawn per cycle."""

    def __init__(self, pkg, tally: Tally):
        self.p = pkg
        self.t = tally
        self.env = cli_env()
        self.g2ref = refs.G2Reference(REGISTRY)
        self.labels = [r for r in self.g2ref.rows if r.startswith(("exp:", "th:"))]
        self.outputs: dict[tuple, bytes] = {}
        #: Wall seconds of each CLI call, and of the spawn probe before it.
        self.latencies: list[float] = []
        self.spawns: list[float] = []

    def commands(self, rng) -> list[tuple[list[str], object]]:
        """(argv, check) pairs for one cycle."""
        sy, g2ref = self.p.symbolic, self.g2ref
        s_z = rat(rng, Fraction(6, 5), Fraction(8))
        s_p = rat(rng, Fraction(1, 4), Fraction(8))
        n_l, z_l = rng.randint(1, 5), rat(rng, Fraction(-1), Fraction(1, 2), 40)
        d = rng.choice(refs.MZV_DEPTH2 + refs.MZV_DEPTH3)
        e1, e2 = random_product(rng), random_product(rng)
        terms, per_text = period_expr(rng)
        alpha = mpmath.nstr(mpf("137.035999") + mpf(rng.randint(-10 ** 6, 10 ** 6)) / 10 ** 9, 15)
        label = rng.choice(self.labels)
        a, b = rng.sample(self.labels, 2)
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        x = rat(rng, Fraction(0), Fraction(1), 20)
        kind = rng.choice(("dilog-reflection", "phi-funceq"))
        bern = rng.randrange(0, 60)
        big = lambda r: lambda out: self._value(out, r)
        return [
            (["zeta", str(s_z)], big(refs.zeta(s_z))),
            (["phi", str(s_p), "--json"], big(refs.phi(s_p))),
            (cmd("polylog", n_l, z_l), big(refs.polylog(n_l, z_l))),
            (["gamma"], big(refs.euler_gamma())),
            (["mzv", *map(str, d), "--json"], big(refs.mzv(d))),
            (["multiphi", "1", "3"], big(refs.multiphi((1, 3)))),
            (cmd("coact", e1), lambda out: out.strip() == str(sy.coact(sy.parse_expr(e1)))),
            (cmd("conjugates", e2, as_json=True), lambda out: self._conjugates(out, e2)),
            (cmd("per", per_text), big(refs.period(terms))),
            (["period", "k4", "--samples", "20000"], self._period_k4),
            (["selftest", "--samples", "10000", "--json"], lambda out: json.loads(out)["passed"] is True),
            (["g2-assemble", alpha], big(g2ref.ae(mpf(alpha)))),
            (["g2-invert-alpha", label], big(g2ref.alpha_inv(g2ref.value(label)))),
            (["g2-compare", a, b, "--json"], lambda out: self._compare(out, a, b)),
            (["registry-list"], lambda out: [ln.split()[0] for ln in out.splitlines()] == list(g2ref.rows)),
            (["stuffle-check", str(m), str(n)], lambda out: out.strip().endswith(": pass")),
            (["identity-check", kind, "--x" if kind == "dilog-reflection" else "--s", str(x), "--json"],
             self._identity),
            (["bernoulli", str(bern)], lambda out: Fraction(out.strip()) == _bernfrac(bern)),
        ]

    @staticmethod
    def _fields(out: str) -> tuple[str, str]:
        out = out.strip()
        if out.startswith("{"):
            doc = json.loads(out)
            return doc["value"], doc["bound"]
        value, bound = out.splitlines()[0].split(" ± ")
        return value, bound

    def _value(self, out: str, ref: mpf) -> bool:
        return value_within(*self._fields(out), ref)

    def _period_k4(self, out: str) -> bool:
        value, bound = self._fields(out)
        sigmas = abs(float(value) - refs.wheel_period(3)) / float(bound)
        if sigmas > COUNT_SIGMAS:
            self.t.info["mc.beyond_3sigma"] += 1
        return sigmas <= WRONG_SIGMAS

    def _conjugates(self, out: str, text: str) -> bool:
        doc = json.loads(out)
        conj, dim = self.p.symbolic.galois_conjugates(self.p.symbolic.parse_expr(text))
        return doc["conjugates"] == [str(c) for c in conj] and doc["dimension"] == dim

    def _compare(self, out: str, a: str, b: str) -> bool:
        doc = json.loads(out)
        diff = self.g2ref.value(a) - self.g2ref.value(b)
        unc = math.hypot(self.g2ref.total_uncertainty(a), self.g2ref.total_uncertainty(b))
        return (abs(Decimal(doc["difference"]) - _dec(diff)) <= _unit(doc["difference"])
                and abs(Decimal(doc["uncertainty"]) - Decimal(repr(unc))) <= _unit(doc["uncertainty"]))

    @staticmethod
    def _identity(out: str) -> bool:
        doc = json.loads(out)
        return Decimal(doc["residual"]) <= Decimal(doc["bound"]) + _unit(doc["bound"]) / 2

    def run(self, argv: list[str], check) -> None:
        """Run one command in a fresh interpreter and check its output."""
        command = [sys.executable, "-m", "euler_periods.cli", *argv]
        self.t.input("cli", tuple(argv))
        self.spawns.append(hostspeed.spawn_probe(self.env, ROOT))

        def call():
            return subprocess.run(command, cwd=ROOT, env=self.env, capture_output=True, timeout=120)

        def classify(proc):
            data = proc.stdout
            key = tuple(argv)
            if key in self.outputs and self.outputs[key] != data:
                self.t.info["cli.nondeterministic"] += 1
                return "wrong", data
            self.outputs[key] = data
            if proc.returncode != 0:
                self.t.notes.append(f"{argv}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
                return "fail", data + proc.stderr
            try:
                ok = check(data.decode())
            except (ValueError, KeyError, IndexError, ArithmeticError):
                ok = False
            return ("ok" if ok else "wrong"), data

        _, seconds, _ = self.t.run("cli", argv[0], call, classify)
        self.latencies.append(seconds)


def cmd(name: str, *positionals, as_json: bool = False) -> list[str]:
    """argv for a subcommand; ``--`` keeps a leading minus from reading as an option."""
    argv = [name] + (["--json"] if as_json else [])
    args = [str(p) for p in positionals]
    if any(a.startswith("-") for a in args):
        argv.append("--")
    return argv + args


def _bernfrac(n: int) -> Fraction:
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))
