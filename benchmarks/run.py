"""Benchmark for schwsurf: the checks a user runs to confirm the claims.

    python3 benchmarks/run.py --workload index-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One process runs one check at a time (a closed loop); each
pass runs every check of the workload once and passes repeat while
another one fits into ``--seconds``.  Times are reported at a reference
machine speed (``measure.at_reference_speed``), with the raw wall times
in the details.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs untraced passes, then
traced passes, and reports the per-module metrics.  The last line of
stdout is the result object; the line before it holds provenance and
per-pass details.  Exit code 0 when every check passed, 1 when a check
failed, 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

NOTE = (
    "Only the benchmark's own processes were measured; no machine setting "
    "was changed. BLAS pools are pinned to one thread through the "
    "environment of this process and its children."
)


def configure_environment() -> dict:
    """Pin thread pools for this process and its children; return the
    children's environment (package on the path, SCHW_THREADS unset)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SCHW_THREADS", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    return env


def check_source(module) -> None:
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(f"imported {module.__name__} from {path}, not from {SRC}")


def git_commit():
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "mpmath", "click"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "threads": {
            "SCHW_THREADS": "unset",
            "morse_index_workers": 1,
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS},
            "load": "closed loop, one check at a time, one CLI child at a time",
        },
        "note": NOTE,
    }


def probe_setup(workload, seed: int, env: dict) -> tuple:
    """Wall time of a fresh interpreter importing the entry module and
    building the workload's inputs, raw and at reference speed."""
    from measure import at_reference_speed, run_child, speed_probe

    probes = [speed_probe(), speed_probe()]
    run = run_child(
        [sys.executable, str(Path(__file__)), "--probe-setup", "--workload", workload.name, "--seed", str(seed)],
        env,
        str(ROOT),
    )
    if run.code != 0:
        raise SystemExit(f"setup probe failed ({run.code}): {run.stderr.decode(errors='replace')}")
    probes += [speed_probe(), speed_probe()]
    return run.wall_s, at_reference_speed(run.wall_s, probes)


def run_pass(checks, tally, tracer, sampler=None) -> tuple:
    """Wall time of one pass over the checks, raw and at reference speed.

    A speed probe runs between checks, outside the pass's time; with a
    ``sampler``, probes also run inside each check and their time is
    taken out of the check's.  Checks that wait on a CLI child get no
    sampler: the parent's probes would run beside the child, not in its
    place.
    """
    from measure import at_reference_speed, speed_probe

    wall = rescaled = 0.0
    before = speed_probe()
    for name, fn in checks:
        inside = contextlib.nullcontext() if sampler is None else sampler
        t0 = time.perf_counter()
        with inside, tracer.span(f"check.{name}"):
            tally.run(name, fn)
        took = time.perf_counter() - t0
        during = []
        if sampler is not None:
            took -= sampler.spent_s
            during = sampler.probes
        after = speed_probe()
        wall += took
        rescaled += at_reference_speed(took, [before, *during, after])
        before = after
    return wall, rescaled


def run_for(seconds, one_pass) -> list:
    """At least one pass, then more while another typical pass still
    fits into ``seconds``."""
    from measure import median

    results, took = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + median(took) <= seconds:
        t0 = time.perf_counter()
        results.append(one_pass())
        took.append(time.perf_counter() - t0)
    return results


def declared_metrics(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "schwsurf" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    env = configure_environment()

    from measure import SpeedSampler, Tally, median, peak_rss_mb, tail_summary
    from tracing import NullTracer, Tracer, layer_metrics, package_bindings
    from workloads import WORKLOADS, Context

    def rescaled(samples):
        return [at_reference for _, at_reference in samples]

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.probe_setup:
        check_source(importlib.import_module(workload.entry))
        workload.build(args.seed)
        return 0

    setup = [probe_setup(workload, args.seed, env) for _ in range(1 if args.trace else SETUP_REPEATS)]
    in_process = workload.entry == "schwsurf"
    if in_process:
        check_source(importlib.import_module("schwsurf"))
    inputs = workload.build(args.seed)
    ctx = Context(root=str(ROOT), env=env, tracer=NullTracer())
    sampler = SpeedSampler() if in_process else None
    checks = workload.checks(inputs, ctx)
    tally = Tally()
    details = {"workload": workload.name, "provenance": provenance(args.seed)}

    untraced = run_for(
        args.seconds / 2 if args.trace else args.seconds, lambda: run_pass(checks, tally, ctx.tracer, sampler)
    )
    details["pass_s"] = tail_summary(rescaled(untraced))
    details["passes_wall_s"] = [wall for wall, _ in untraced]
    details["passes_s"] = rescaled(untraced)

    if not args.trace:
        metrics = {
            "setup_s": median(rescaled(setup)),
            "pass_s": median(rescaled(untraced)),
            "peak_rss_mb": peak_rss_mb(children=not in_process),
        }
        details["setup_wall_s"] = [wall for wall, _ in setup]
        details["setup_s"] = rescaled(setup)
        kind = "end_to_end"
    else:
        tracer = Tracer()
        ctx.tracer = tracer
        counter = inputs.get("chart_counter")
        startup = workload.startup(inputs, ctx) if workload.startup else []
        per_pass = []

        def traced_pass():
            tracer.pass_id += 1
            first = len(tracer.spans)
            calls0 = counter.calls if counter else 0
            for name, fn in startup:
                tally.run(name, fn)
            result = run_pass(checks, tally, tracer, sampler)
            spans = [
                s[:3] + (s[3] - first if s[3] >= 0 else -1,) + s[4:] for s in tracer.spans[first:]
            ]
            per_pass.append(layer_metrics(spans, (counter.calls if counter else 0) - calls0))
            return result

        if in_process:
            tracer.install(package_bindings())
        try:
            traced = run_for(args.seconds / 2, traced_pass)
        finally:
            tracer.uninstall()
        metrics = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
        metrics["trace.pass_s"] = median(rescaled(traced))
        metrics["trace.overhead_s"] = median(rescaled(traced)) - median(rescaled(untraced))
        details["traced_passes_s"] = rescaled(traced)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        kind = "per_layer"

    units = declared_metrics(kind)
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    details["checks"] = {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures[:20]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
