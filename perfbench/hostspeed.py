"""Host speed, probed next to the benchmark's timed calls.

The benchmark's machine is a few cores of a shared host whose speed for
pure-Python code swings by up to 2x over periods longer than a run, far
more than a change to the program would move a timing.  :func:`probe`
times a fixed piece of pure-Python work with the same mix as the program's
inner loops: function calls, integer arithmetic on numbers a few hundred
bits wide, and small allocations.  A :class:`Timer` for a family in
``FAMILIES`` runs it right before and right after the timed call, and a
short one every ``SAMPLE_PERIOD_S`` during the call, from a ``SIGALRM``
handler, because the speed also moves within a call of a second.  The
call's time, less the probes run inside it, is reported at the reference
speed, at which a probe iteration takes ``REFERENCE_PROBE_S /
PROBE_ITERATIONS``:

    reported = (measured - in-call probes) * reference / (mean probe iteration)

The probe is the benchmark's own code, so a change to the program moves the
measured time and not the probe.  ``REFERENCE_PROBE_S`` is the probe's time
in the fast phase of a 2-core x86-64 VM, so reported times read as that
machine's seconds.  The run's info line records the host's speed over the
run's probes.

Only the sweep and algebra families are pure Python.  The other two spend
their time elsewhere, and the swings slow that work by other factors than
the probe, so each has a probe of its own, made of the same kind of work:

* Monte Carlo calls spend their time in numpy on arrays of a few MB.
  Before each ``period_mc`` call, :func:`numpy_probe` times a fixed
  computation of that kind (``REFERENCE_NUMPY_S``).
* CLI calls spend their time in process start and imports.  Before each
  CLI call, :func:`spawn_probe` starts a fresh interpreter that imports a
  few standard modules and exits (``REFERENCE_SPAWN_S``).

One of these probes is about as noisy as one call, so these timings are
taken to the reference speed with the run's median probe (:func:`scale`):

    reported = measured * reference / (median probe of the run)
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import sys
import time

#: Families whose timings are taken to the reference speed call by call,
#: with :func:`probe`.
FAMILIES = frozenset({"sweep", "alg"})
PROBE_ITERATIONS = 1500
#: The probes during a call: a fifth of the size, every 20 ms, so that they
#: take about 1 % of the call.
SAMPLE_ITERATIONS = 300
SAMPLE_PERIOD_S = 0.02
#: Seconds of one probe at the reference speed; a constant, never measured
#: during a run, so that reported times are comparable across runs.
REFERENCE_PROBE_S = 0.0005
#: Seconds of one numpy probe and of one spawn at the reference speed,
#: constants like ``REFERENCE_PROBE_S``.
REFERENCE_NUMPY_S = 0.010
REFERENCE_SPAWN_S = 0.060
NUMPY_ROWS = 32768
SPAWN_CODE = "import decimal, fractions, json"

_WIDE = (1 << 330) // 7
_MASK = (1 << 400) - 1


def _step(acc: int, i: int) -> int:
    return (acc + (i * _WIDE >> 300)) & _MASK


def probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds of the fixed probe work at the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    digits = []
    for i in range(iterations):
        acc = _step(acc, i)
        digits.append(str(i)[-1])
    "".join(digits)
    return time.perf_counter() - t0


class Timer:
    """Times its ``with`` block into ``seconds``: wall seconds, or with
    ``scaled``, seconds at the reference speed (see the module notes).
    ``edges`` holds the probes before and after the block."""

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self.edges: list[float] = []
        self.inner: list[float] = []
        self.seconds = 0.0

    def _sample(self, signum, frame) -> None:
        self.inner.append(probe(SAMPLE_ITERATIONS))

    def __enter__(self) -> "Timer":
        if self.scaled:
            self.edges.append(probe())
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self.scaled:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._t0
        if self.scaled:
            signal.signal(signal.SIGALRM, self._handler)
            self.edges.append(probe())
            iterations = PROBE_ITERATIONS * len(self.edges) + SAMPLE_ITERATIONS * len(self.inner)
            per_iteration = (sum(self.edges) + sum(self.inner)) / iterations
            self.seconds = ((self.seconds - sum(self.inner)) * REFERENCE_PROBE_S
                            / (PROBE_ITERATIONS * per_iteration))


def numpy_probe() -> float:
    """Seconds of a fixed numpy computation shaped like one ``period_mc``
    shard: random draws, elementwise maps, column products and an exact sum.

    numpy is imported here, not with this module, so that a set-up child
    still times the program's own import of numpy."""
    import numpy as np
    t0 = time.perf_counter()
    x = np.random.default_rng(0).random((NUMPY_ROWS, 6))
    a = (x / (1.0 - x)) ** 4.0
    v = a[:, [0, 2, 4]].prod(axis=1) + a[:, [1, 3, 5]].prod(axis=1)
    math.fsum((1.0 / (v * v)).tolist())
    return time.perf_counter() - t0


def spawn_probe(env: dict[str, str], cwd: os.PathLike) -> float:
    """Seconds to start a fresh interpreter that runs ``SPAWN_CODE``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_CODE], cwd=cwd, env=env,
                   capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


def scale(reference: float, probes: list[float]) -> float:
    """Factor that takes timings measured next to ``probes`` to the
    reference speed, at which a probe takes ``reference`` seconds."""
    return reference / statistics.median(probes)
