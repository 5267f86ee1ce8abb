"""Arithmetic shared by the benchmark: summary statistics, rescaling to a
reference machine speed, the failure tally of the correctness gate, and
timed child processes."""

from __future__ import annotations

import math
import resource
import signal
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass

import numpy as np


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(n: int):
    """Highest whole percentile with at least 10 of ``n`` samples above it.

    Nearest-rank convention: the ``p``-th percentile is the
    ``ceil(p n / 100)``-th smallest sample, so ``n - ceil(p n / 100)``
    samples lie beyond it.  Percentiles below the median are not
    reported; ``None`` means the run has too few samples (``n < 20``).
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def tail_summary(samples) -> dict:
    """Median, sample count, and the tail percentile (if any) of timings."""
    xs = sorted(samples)
    out = {"median": median(xs), "n": len(xs), "tail": None}
    p = tail_percentile(len(xs))
    if p is not None:
        out["tail"] = {"p": p, "value": xs[math.ceil(p * len(xs) / 100) - 1]}
    return out


# speed_probe() time on this benchmark's reference machine (2-CPU x86-64
# virtual machine, Python 3.11, numpy 2.4) when no other tenant contends
# for its CPUs
SPEED_PROBE_REFERENCE_S = 4.0e-3


def speed_probe() -> float:
    """Wall time of a fixed piece of interpreted work: a pure-Python RK4
    stepper and small numpy calls, the two kinds of work the package does.
    It measures how fast the host runs such code right now."""
    t0 = time.perf_counter()

    def rhs(r, v, w):
        return w, -(0.25 + 1.0 / r) / (r * r) * v

    r, v, w, h = 1.0, 1.0, 0.5, 0.01
    for _ in range(1200):
        a1, b1 = rhs(r, v, w)
        a2, b2 = rhs(r + 0.5 * h, v + 0.5 * h * a1, w + 0.5 * h * b1)
        a3, b3 = rhs(r + 0.5 * h, v + 0.5 * h * a2, w + 0.5 * h * b2)
        a4, b4 = rhs(r + h, v + h * a3, w + h * b3)
        v += h / 6.0 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        w += h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        r += h
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.5, -1.0, 2.0])
    for _ in range(100):
        c = np.cross(a, b)
        v += float(np.linalg.norm(c)) + float(np.dot(a, c))
    return time.perf_counter() - t0


def at_reference_speed(wall_s: float, probes_s) -> float:
    """``wall_s`` rescaled to the reference machine's speed, judged by the
    mean of the speed probes taken while it was measured.

    The host's CPUs are shared: its speed moves by 20-40 % over tens of
    seconds, which no number of passes averages out.  Rescaling each
    check by probes taken around and during it removes most of that.
    """
    return wall_s * SPEED_PROBE_REFERENCE_S * len(probes_s) / sum(probes_s)


class SpeedSampler:
    """Speed probes every ``interval_s`` while a block runs in this process.

    A ``SIGALRM`` handler runs :func:`speed_probe` in the main thread
    between bytecodes, so each probe delays the block by its own length;
    ``spent_s`` is that total, to be subtracted from the block's time.
    """

    def __init__(self, interval_s: float = 0.25):
        self.interval_s = interval_s
        self.probes = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(speed_probe())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self.probes, self.spent_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def ratio(useful: float, attempted: float) -> float:
    """Useful outcomes per attempt; 0 when nothing was attempted."""
    return useful / attempted if attempted else 0.0


class CheckFailed(Exception):
    """A check's output missed its reference tolerance."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Tally:
    """Counts attempted and failed checks; a check fails when it raises.

    Nothing is skipped: every check passed to :meth:`run` is attempted
    and an exception of any kind counts as a failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, name: str, fn) -> bool:
        self.attempted += 1
        try:
            fn()
        except CheckFailed as exc:
            self.failures.append({"check": name, "error": str(exc)})
            return False
        except Exception as exc:  # a raising check is a failed check
            self.failures.append(
                {
                    "check": name,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(limit=4),
                }
            )
            return False
        return True


@dataclass(frozen=True)
class ChildRun:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float


CHILD_TIMEOUT_S = 120.0


def run_child(argv, env, cwd) -> ChildRun:
    """Run one child process to completion, timing it from spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, timeout=CHILD_TIMEOUT_S
    )
    wall = time.perf_counter() - t0
    return ChildRun(proc.returncode, proc.stdout, proc.stderr, wall)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest reaped child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB
