"""euler-periods benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (it need not be installed).  Every run executes the named
workload's family of operations for about ``S`` seconds and a fixed number
of passes of each other family (``COMPANION_PASSES``), so that every
end-to-end metric is reported on every workload.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
records the environment, the determinism digests and the counts behind the
metrics.  With ``--trace 1`` the run reports the per-layer metrics instead,
and writes its spans to ``perfbench/out/``.

See perfbench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

WORKLOADS = {
    "cli-mix": "cli",
    "certified-sweep": "sweep",
    "mc-periods": "mc",
    "motivic-algebra": "alg",
}
FAMILIES = ("cli", "sweep", "mc", "alg")
#: Seconds of one main pass on a 2-core x86-64 VM; sizes a run from --seconds.
PASS_SECONDS = {"cli": 4.5, "sweep": 1.6, "mc": 2.2, "alg": 0.9}
#: Passes of each other family in a run.  Pass timings take each
#: operation's median time over the passes (see Runner.pass_seconds).
COMPANION_PASSES = {"cli": 2, "sweep": 4, "mc": 8, "alg": 8}
#: Sweep passes run tier by tier.  Per pass, the cheap tiers run more often:
#: their few-millisecond cells need more samples for a steady median.
SWEEP_TIER_RUNS_PER_PASS = {15: 2.0, 50: 1.5, 100: 1.0}
#: Scale of the Monte Carlo sample counts in a companion pass; the mc
#: metrics are rates, so a smaller pass measures the same quantity.
MC_COMPANION_SCALE = 0.25
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPS = {"cli": 5, "sweep": 3, "mc": 3, "alg": 3}
#: Scale of the Monte Carlo sample counts in the set-up warm-up pass; K4
#: and W4 still fill one full sample shard, so the memory peak is the same.
MC_WARMUP_SCALE = 0.15


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def rng_for(seed: int, family: str, index) -> random.Random:
    return random.Random(f"{seed}/{family}/{index}")


def child(args: list[str], timeout: float = 170) -> subprocess.CompletedProcess:
    import workloads
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=workloads.cli_env(),
                          capture_output=True, text=True, timeout=timeout, check=True)


# ---------------------------------------------------------------------------
# Running the families
# ---------------------------------------------------------------------------


class Runner:
    """One runner per family, sharing a tally, and the operations of each pass."""

    def __init__(self, pkg, tally):
        import workloads as w
        self.tally = tally
        self.sweep = w.Sweep(pkg, tally)
        self.mc = w.MonteCarlo(pkg, tally)
        self.alg = w.Algebra(pkg, tally)
        self.cli = w.CliMix(pkg, tally)
        self.passes: dict[str, list[list[tuple[str, float]]]] = {f: [] for f in FAMILIES}

    def reset_timings(self) -> None:
        """Forget the timings of a warm-up pass; its checks still count."""
        self.passes = {f: [] for f in FAMILIES}
        self.mc.reset()

    def run_pass(self, family: str, rng, mc_scale: float = 1.0, tiers=None) -> None:
        """One pass of an in-process family; a sweep pass may cover only ``tiers``."""
        first = len(self.tally.records)
        if family == "sweep":
            self.sweep.run_pass(rng, tiers)
        elif family == "mc":
            self.mc.run_pass(rng, mc_scale)
        else:
            self.alg.run_pass(rng)
        self.passes[family].append([(r[1], r[2]) for r in self.tally.records[first:]])

    def tasks(self, family: str, seed: int, label: str, count: int, mc_scale: float = 1.0) -> list:
        """``count`` passes of ``family`` as callables; a cli pass is one
        callable per command, so that it can be spread over a run."""
        if family == "sweep":
            return interleave([
                [functools.partial(self.run_pass, family, rng_for(seed, family, f"{label}p{prec}/{i}"),
                                   tiers=(prec,))
                 for i in range(math.ceil(count * weight))]
                for prec, weight in SWEEP_TIER_RUNS_PER_PASS.items()])
        out = []
        for i in range(count):
            rng = rng_for(seed, family, f"{label}{i}")
            if family == "cli":
                out += [functools.partial(self.cli.run, argv, check)
                        for argv, check in self.cli.commands(rng)]
            else:
                out.append(functools.partial(self.run_pass, family, rng, mc_scale))
        return out

    def companion_tasks(self, family: str, seed: int) -> list:
        return self.tasks(family, seed, "companion", COMPANION_PASSES[family], MC_COMPANION_SCALE)

    def pass_seconds(self, family: str, suffix: str = "") -> float:
        """Seconds of one pass: each operation's median time over the passes,
        summed over the operations whose cell ends with ``suffix``."""
        times: dict[tuple[str, int], list[float]] = {}
        for ops in self.passes[family]:
            seen: dict[str, int] = {}
            for cell, seconds in ops:
                if cell.endswith(suffix):
                    k = seen[cell] = seen.get(cell, -1) + 1
                    times.setdefault((cell, k), []).append(seconds)
        return sum(statistics.median(v) for v in times.values())


def interleave(lists: list[list]) -> list:
    """The tasks of all ``lists`` in one sequence, each list spread evenly
    over it, so that a burst of contention on the machine hits few tasks of
    any one list."""
    ordered = sorted(((j + 0.5) / len(lst), k, j)
                     for k, lst in enumerate(lists) for j in range(len(lst)))
    return [lists[k][j] for _, k, j in ordered]


def main_passes(family: str, seconds: float) -> int:
    return max(3, round(seconds / PASS_SECONDS[family]))


def setup_child(family: str, seed: int) -> int:
    """One set-up in this fresh interpreter; prints its seconds.

    That is the import, plus, for an in-process family, the program time
    of one warm-up pass, both timed as the family's operations are (see
    ``hostspeed.FAMILIES``).  A cli set-up is taken to the reference speed
    with the CLI timings, in ``end_to_end``."""
    import importlib
    import hostspeed
    sys.path.insert(0, str(SRC))
    with hostspeed.Timer(family in hostspeed.FAMILIES) as timer:
        importlib.import_module("euler_periods.cli" if family == "cli" else "euler_periods")
    seconds = timer.seconds
    if family != "cli":
        import workloads as w
        tally = w.Tally(w.load_known_failing())
        Runner(w.load_package(), tally).run_pass(family, rng_for(seed, family, "setup"), MC_WARMUP_SCALE)
        seconds += sum(r[2] for r in tally.records)
    print(json.dumps({"setup_s": seconds, "peak_rss_mb": own_peak_rss_mb()}))
    return 0


def measure_setup(family: str, seed: int, into: list[dict]) -> None:
    """One set-up in a fresh interpreter; appends its record to ``into``."""
    proc = child([str(HERE / "run.py"), "--setup-child", family, "--seed", str(seed)])
    into.append(json.loads(proc.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count): the highest percentile with ten samples
    beyond it; about the 90th percentile when there are fewer than 21."""
    xs = sorted(latencies)
    n = len(xs)
    idx = n - 11 if n >= 21 else n - 1 - n // 10
    return xs[idx], 100.0 * (idx + 1) / n, n


def end_to_end(runner: Runner, family: str, setup_s: float, peak_rss_mb: float) -> dict:
    import hostspeed
    mc = runner.mc
    scale = hostspeed.scale(hostspeed.REFERENCE_SPAWN_S, runner.cli.spawns)
    lat = [x * scale for x in runner.cli.latencies]
    if family == "cli":
        # The import of euler_periods.cli is the bulk of a CLI call.
        setup_s *= scale
    values = {
        "setup_s": (setup_s, "s"),
        "ops_ok_frac": (runner.tally.share_ok(family), "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_p50_ms": (1000 * statistics.median(lat), "ms"),
        "cli_tail_ms": (1000 * tail(lat)[0], "ms"),
        "sweep_p15_s": (runner.pass_seconds("sweep", ".p15"), "s"),
        "sweep_p50_s": (runner.pass_seconds("sweep", ".p50"), "s"),
        "sweep_p100_s": (runner.pass_seconds("sweep", ".p100"), "s"),
        "mc_samples_per_s": (mc.samples_per_s(), "1/s"),
        "mc_k4_work_err": (mc.work_err("k4"), "sqrt-s"),
        "mc_w4_work_err": (mc.work_err("w4"), "sqrt-s"),
        "algebra_wall_s": (runner.pass_seconds("alg"), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process since it started its program.

    ``ru_maxrss`` also keeps the peak of the process that forked this one,
    so on Linux the high-water mark of the current image is read instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import mpmath
    import numpy
    starts = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        starts.append(time.perf_counter() - t0)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python_c_pass_ms": round(1000 * statistics.median(starts), 3),
    }


def record(tallies, runner: Runner) -> dict:
    """Counts, digests and context behind the metrics, for the info line.

    ``host_speed`` is the lower quartile, median and upper quartile of the
    host's speed relative to the reference over the run's probes;
    ``spawn_ms`` and ``numpy_probe_ms`` are the run's median spawn and numpy
    probes (see ``hostspeed``)."""
    from collections import Counter
    import hostspeed
    status, inputs_seen, inputs_repeat, info = Counter(), Counter(), Counter(), Counter()
    digests: dict[str, str] = {}
    notes = []
    for t in tallies:
        status.update(t.status)
        inputs_seen.update(t.inputs["seen"])
        inputs_repeat.update(t.inputs["repeat"])
        info.update(t.info)
        notes.extend(t.notes)
    last = tallies[-1]
    for fam, h in sorted(last.digests.items()):
        digests[fam] = h.hexdigest()
    combined = hashlib.sha256("".join(digests[f] for f in sorted(digests)).encode()).hexdigest()
    _, pct, n = tail(runner.cli.latencies) if runner.cli.latencies else (0, 0, 0)
    probes = [x for t in tallies for x in t.probes]
    return {
        "status": dict(status),
        "host_speed": [round(hostspeed.REFERENCE_PROBE_S / q, 3)
                       for q in statistics.quantiles(probes, n=4)[::-1]],
        "spawn_ms": round(1000 * statistics.median(runner.cli.spawns), 3),
        "numpy_probe_ms": round(1000 * statistics.median(runner.mc.probes), 3),
        "digest": combined,
        "digests": digests,
        "repeat_share": {k: inputs_repeat[k] / inputs_seen[k] for k in sorted(inputs_seen)},
        "cli_tail": {"percentile": round(pct, 1), "samples": n},
        "counts": dict(info),
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------


def median_ms(records, family: str, *cells: str) -> float:
    xs = [r[2] for r in records if r[0] == family and r[1] in cells]
    return 1000 * statistics.median(xs) if xs else 0.0


def per_sweep_pass(tracer, name: str, runs: dict[int, int]) -> tuple[float, float]:
    """Calls of one entry point, and their self time in ms, per sweep pass:
    each tier's total over the runs of that tier, summed over the tiers."""
    child_ns: dict[int, int] = {}
    for _, start, end, parent, _ in tracer.spans:
        child_ns[parent] = child_ns.get(parent, 0) + end - start
    calls = ms = 0.0
    for i, (span_name, start, end, _, request) in enumerate(tracer.spans):
        root = tracer.roots[request]
        if span_name == name and root.startswith("bench.sweep."):
            share = 1 / runs[int(root.rsplit(".p", 1)[1])]
            calls += share
            ms += (end - start - child_ns.get(i, 0)) / 1e6 * share
    return calls, ms


def per_layer(tracer, tally, runner: Runner, main_range, main_count: int,
              overhead: tuple[float, float], micro: dict) -> dict:
    import refs
    import workloads as w
    recs = tally.records
    out: dict[str, tuple[float, str]] = {}
    for p in w.TIERS:
        for cell in ("zeta", "phi", "polylog_series", "polylog_alt", "polylog_reflect",
                     "gamma_em", "gamma_zs"):
            out[f"eulerfun.{cell}.p{p}.ms"] = (median_ms(recs, "sweep", f"{cell}.p{p}"), "ms")
        out[f"mzv.mzv_d2.p{p}.ms"] = (median_ms(recs, "sweep", f"mzv_d2.p{p}"), "ms")
        out[f"mzv.mzv_d3.p{p}.ms"] = (median_ms(recs, "sweep", f"mzv_d3.p{p}"), "ms")
        out[f"mzv.multiphi.p{p}.ms"] = (median_ms(recs, "sweep", f"multiphi_13.p{p}", f"multiphi_11.p{p}"), "ms")
        out[f"symbolic.period_map.p{p}.ms"] = (median_ms(recs, "sweep", f"period_map.p{p}"), "ms")
        out[f"g2.assemble.p{p}.ms"] = (median_ms(recs, "sweep", f"g2_assemble.p{p}"), "ms")
        out[f"g2.invert_alpha.p{p}.ms"] = (median_ms(recs, "sweep", f"g2_invert_alpha.p{p}"), "ms")
    info = tally.info
    runs = {p: max(1, info[f"sweep.runs.p{p}"]) for p in w.TIERS}
    for p in w.TIERS:
        out[f"numkernel.bigreal_ops.p{p}"] = (info[f"sweep.bigreal_ops.p{p}"] / runs[p], "count")
    for name in ("numkernel.em_sum", "numkernel.accel_alt_sum"):
        calls, ms = per_sweep_pass(tracer, name, runs)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_ms"] = (ms, "ms")
    spans = tracer.spans
    zeta_calls = [i for i, s in enumerate(spans) if s[0] == "eulerfun.zeta"]
    zeta_set = set(zeta_calls)
    attempts = sum(1 for s in spans if s[0] == "numkernel.em_sum" and s[3] in zeta_set)
    out["eulerfun.zeta.em_attempts_per_call"] = (attempts / max(1, len(zeta_calls)), "ratio")
    out["g2.invert_alpha.iterations"] = (info["g2.invert_alpha.iterations"]
                                         / max(1, info["g2.invert_alpha.calls"]), "count")
    out["g2.coeff_a3.consistent.ms"] = (median_ms(recs, "sweep", "a3_consistent.p15"), "ms")
    out["g2.coeff_a3.as_printed.ms"] = (median_ms(recs, "sweep", "a3_as_printed.p15"), "ms")
    for op in ("parse", "coact", "coassoc", "conjugates"):
        out[f"symbolic.{op}.ms"] = (median_ms(recs, "alg", op), "ms")
    for size in ("small", "large"):
        out[f"symbolic.stability.{size}.ms"] = (median_ms(recs, "alg", f"stability.{size}"), "ms")
    out["symbolic.coact_terms"] = (info["alg.coact_terms"] / max(1, info["alg.coact_calls"]), "count")
    n_conj = sum(1 for r in recs if r[0] == "alg" and r[1] == "conjugates")
    out["symbolic.conjugates"] = (info["alg.conjugates"] / max(1, n_conj), "count")
    mc = runner.mc
    for g, spokes in (("k4", 3), ("w4", 4), ("w5", 5)):
        out[f"feynper.period_mc.{g}.samples_per_s"] = (mc.rate(g), "1/s")
        out[f"feynper.period_mc.{g}.monomial_evals"] = (
            refs.wheel_spanning_trees(spokes) * w.MC_SAMPLES[g], "count")
    out["feynper.period_mc.w5.work_err"] = (mc.work_err("w5"), "sqrt-s")
    out["feynper.period_mc.beyond_3sigma"] = (info["mc.beyond_3sigma"], "count")
    out["feynper.selftest.samples_per_s"] = (mc.rate("selftest"), "1/s")
    out["feynper.kirchhoff.w6.ms"] = (median_ms(recs, "mc", "kirchhoff.w6"), "ms")
    out["feynper.spanning_trees.w6.ms"] = (median_ms(recs, "mc", "spanning_trees.w6"), "ms")
    out["feynper.primitive.w6.ms"] = (median_ms(recs, "mc", "primitive.w6"), "ms")
    for layer, ms in tracer.layer_self_ms(*main_range).items():
        out[f"{layer}.self_ms"] = (ms / main_count, "ms")
    untraced, traced = overhead
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.overhead_frac"] = ((traced - untraced) / untraced, "frac")
    seen, repeat = tally.inputs["seen"], tally.inputs["repeat"]
    for kind in ("args", "listed", "const"):
        key = f"sweep.{kind}"
        out[f"sweep.repeat_share.{kind}"] = (repeat[key] / max(1, seen[key]), "frac")
    out.update(micro)
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def bigreal_op_us(pkg) -> dict:
    """Microseconds per BigReal operation at prec 15 and 100."""
    BigReal = pkg.numkernel.BigReal
    out = {}
    for p in (15, 100):
        a = BigReal.exact(Fraction(22, 7), p)
        b = BigReal.exact(Fraction(-5, 3), p) / 3
        cases = {
            "add": lambda: a + b,
            "mul": lambda: a * b,
            "div": lambda: a / b,
            "exact": lambda: BigReal.exact(Fraction(1, 3), p),
        }
        for name, op in cases.items():
            reps = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(400):
                    op()
                reps.append((time.perf_counter() - t0) / 400)
            out[f"numkernel.{name}_us.p{p}"] = (1e6 * statistics.median(reps), "us")
    return out


IMPORT_MODULES = {
    "euler_periods": ("euler_periods.import_ms", "self"),
    "euler_periods.errors": ("errors.import_ms", "self"),
    "euler_periods.numkernel": ("numkernel.import_ms", "self"),
    "euler_periods.eulerfun": ("eulerfun.import_ms", "self"),
    "euler_periods.mzv": ("mzv.import_ms", "self"),
    "euler_periods.symbolic": ("symbolic.import_ms", "self"),
    "euler_periods.feynper": ("feynper.import_ms", "self"),
    "euler_periods.g2": ("g2.import_ms", "self"),
    "euler_periods.cli": ("cli.import_ms", "cumulative"),
    "numpy": ("numpy.import_ms", "cumulative"),
    "mpmath": ("mpmath.import_ms", "cumulative"),
}


def import_breakdown() -> dict:
    """Per-module import times from ``python -X importtime``, median of 3."""
    samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(3):
        proc = child(["-X", "importtime", "-c", "import euler_periods.cli"])
        seen = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = [x.strip() for x in line[len("import time:"):].split("|")]
            if not parts[0].isdigit():
                continue
            seen[parts[2]] = (int(parts[0]), int(parts[1]))
        for mod, (_, kind) in IMPORT_MODULES.items():
            self_us, cum_us = seen.get(mod, (0, 0))
            samples[mod].append((self_us if kind == "self" else cum_us) / 1000)
    return {IMPORT_MODULES[m][0]: (statistics.median(v), "ms") for m, v in samples.items()}


def cli_micro(pkg, seed: int) -> dict:
    import workloads as w
    starts = []
    for _ in range(5):
        t0 = time.perf_counter()
        child(["-c", "pass"])
        starts.append(time.perf_counter() - t0)
    out = {"cli.interp_start_ms": (1000 * statistics.median(starts), "ms")}
    out.update(import_breakdown())
    tally = w.Tally(w.load_known_failing())
    times = []
    for argv, _ in w.CliMix(pkg, tally).commands(rng_for(seed, "cli", "dispatch")):
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            t0 = time.perf_counter()
            pkg.cli.dispatch(argv)
            times.append(time.perf_counter() - t0)
    out["cli.dispatch_ms"] = (1000 * statistics.median(times), "ms")
    loads = []
    for _ in range(20):
        t0 = time.perf_counter()
        pkg.g2.load_registry()
        loads.append(time.perf_counter() - t0)
    out["g2.load_registry_ms"] = (1000 * statistics.median(loads), "ms")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads as w
    family = WORKLOADS[workload]
    n_main = main_passes(family, seconds)
    pkg = w.load_package()
    known = w.load_known_failing()
    tally = w.Tally(known)
    runner = Runner(pkg, tally)
    tallies = [tally]
    if family != "cli":
        runner.run_pass(family, rng_for(seed, family, "warmup"))
        runner.reset_timings()

    def companions(r: Runner, families) -> list:
        return [r.companion_tasks(f, seed) for f in families]

    def main_slice(r: Runner) -> float:
        t0 = time.perf_counter()
        for task in r.tasks(family, seed, "", n_main):
            task()
        return time.perf_counter() - t0

    if not trace:
        # Set-ups and companion tasks are spread over the run.  The memory
        # peak is read in the set-up children, which run nothing but W; in
        # this process the companions would set it.
        setups: list[dict] = []
        others = [f for f in FAMILIES if f != family]
        lists = [runner.tasks(family, seed, "", n_main), *companions(runner, others),
                 [functools.partial(measure_setup, family, seed, setups)] * SETUP_REPS[family]]
        for task in interleave(lists):
            task()
        metrics = end_to_end(runner, family, statistics.median(s["setup_s"] for s in setups),
                             statistics.median(s["peak_rss_mb"] for s in setups))
    else:
        import tracing
        untraced = main_slice(runner)
        tracer = tracing.Tracer()
        traced_tally = w.Tally(known, tracer)
        traced_runner = Runner(pkg, traced_tally)
        tallies.append(traced_tally)
        tracer.install()
        try:
            first = len(tracer.spans)
            traced = main_slice(traced_runner)
            main_range = (first, len(tracer.spans))
            for task in sum(companions(traced_runner, [f for f in FAMILIES if f != family]), []):
                task()
        finally:
            tracer.uninstall()
        micro = bigreal_op_us(pkg)
        micro.update(cli_micro(pkg, seed))
        metrics = per_layer(tracer, traced_tally, traced_runner, main_range, n_main,
                            (untraced, traced), micro)
        failed_share = [1 - t.share_ok(family) for t in tallies]
        wrong = sum(t.status["wrong"] + t.status["known_wrong"] for t in tallies)
        metrics["ops_failed_frac"] = {"value": statistics.fmean(failed_share), "unit": "frac"}
        metrics["ops_wrong"] = {"value": wrong, "unit": "count"}
        tracer.dump(HERE / "out" / f"trace-{workload}-{seed}.json")
        runner = traced_runner
    info = record(tallies, runner)
    info["workload"] = workload
    info["seed"] = seed
    info["main_passes"] = n_main
    info["env"] = environment()
    print(json.dumps({"info": info}))
    return {
        "correct": all(t.failed == 0 for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", choices=FAMILIES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "euler_periods" / "__init__.py").is_file():
        return fail(f"no euler_periods sources under {SRC}; run from a source checkout")
    if args.setup_child:
        return setup_child(args.setup_child, args.seed)
    if args.workload is None:
        return fail("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
