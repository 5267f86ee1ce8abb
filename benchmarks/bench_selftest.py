"""Tests of the benchmark's own arithmetic.

    python3 -m pytest benchmarks/bench_selftest.py

The file name keeps the repository's own test run from collecting it.
"""

import json
import math
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import refs  # noqa: E402
from measure import SPEED_PROBE_REFERENCE_S, CheckFailed, SpeedSampler, Tally, at_reference_speed, ratio, require, tail_percentile, tail_summary  # noqa: E402
from tracing import NAME, NullTracer, Tracer, layer_metrics, self_times  # noqa: E402


def span(name, start, end, parent=-1, extra=None):
    return (name, start, end, parent, 1, extra)


# ------------------------------------------------------------ percentiles


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (11, None), (19, None), (20, 50), (21, 52), (40, 75), (100, 90), (1000, 99), (10**5, 99)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p is not None:
        assert n - math.ceil(p * n / 100) >= 10
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < 10


def test_tail_summary_reports_nearest_rank_value():
    samples = [float(i) for i in range(1, 101)]
    out = tail_summary(reversed(samples))
    assert out == {"median": 50.5, "n": 100, "tail": {"p": 90, "value": 90.0}}
    assert tail_summary([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "tail": None}


def test_reference_speed_uses_mean_probe():
    ref = SPEED_PROBE_REFERENCE_S
    # host 1.5 times slower than the reference on average around the check
    assert at_reference_speed(3.0, (ref, 2 * ref)) == pytest.approx(2.0)
    assert at_reference_speed(3.0, [ref]) == 3.0


def test_sampler_probes_inside_a_block_and_accounts_for_them():
    import signal
    import time

    handler = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler(interval_s=0.05)
    t0 = time.perf_counter()
    with sampler:
        while time.perf_counter() - t0 < 0.5:
            sum(i * i for i in range(1000))
    assert len(sampler.probes) >= 4
    assert sampler.spent_s >= sum(sampler.probes)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


# -------------------------------------------------------------- self time


def test_self_time_of_nested_spans():
    spans = [
        span("check.a", 0.0, 10.0),
        span("spectral.eig", 1.0, 4.0, 0),
        span("spectral.eig", 5.0, 9.0, 0),
        span("mode_odes.shot", 6.0, 7.0, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_takes_union_of_children_inside_parent():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 5.0, 0),
        span("c", 3.0, 6.0, 0),  # overlaps b: counted once
        span("d", 9.0, 12.0, 0),  # runs past the parent's end: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_module_self_times_add_up_to_the_pass():
    spans = [
        span("check.x", 0.0, 10.0),
        span("spectral.eig", 1.0, 9.0, 0, {"found": 1}),
        span("mode_odes.shot", 2.0, 4.0, 1, {"steps": 100}),
        span("mode_odes.shot", 5.0, 8.0, 1, {"steps": 200}),
    ]
    m = layer_metrics(spans)
    assert m["check.self_s"] == pytest.approx(2.0)
    assert m["spectral.self_s"] == pytest.approx(3.0)
    assert m["spectral.eig_self_s"] == pytest.approx(3.0)
    assert m["mode_odes.self_s"] == pytest.approx(5.0)
    assert sum(m[f"{mod}.self_s"] for mod in ("check", "spectral", "mode_odes")) == pytest.approx(10.0)
    assert m["spectral.eig_s"] == pytest.approx(8.0)
    assert m["mode_odes.shot_s"] == pytest.approx(5.0)


def test_outermost_time_does_not_double_count_nested_calls():
    spans = [
        span("mode_odes.closed_form", 0.0, 4.0),  # a residual grid ...
        span("mode_odes.closed_form", 1.0, 2.0, 0),  # ... calling a closed form
        span("geometry.call", 5.0, 6.0),
        span("geometry.call", 5.2, 5.4, 2),
    ]
    m = layer_metrics(spans)
    assert m["mode_odes.closed_form_s"] == pytest.approx(4.0)
    assert m["geometry.s"] == pytest.approx(1.0)
    assert m["geometry.calls"] == 2


def test_tracer_records_parents_and_restores_bindings():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner
    tracer = Tracer()
    tracer.install([(mod, "inner", "m.inner", None), (mod, "outer", "m.outer", lambda a, k, r: {"r": r})])
    with tracer.span("check.t") as extra:
        assert mod.outer(1) == 4
        extra["note"] = 1
    tracer.uninstall()
    assert mod.inner is original
    names = [s[NAME] for s in tracer.spans]
    assert names == ["check.t", "m.outer", "m.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]
    assert tracer.spans[1][5] == {"r": 4} and tracer.spans[0][5] == {"note": 1}


def test_tracer_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrap(boom, "m.boom")
    with pytest.raises(ValueError):
        traced()
    assert tracer.spans[0][NAME] == "m.boom" and tracer.spans[0][5] is None


# ----------------------------------------------------------------- ratios


def test_ratio_metrics():
    s_period = 2.0 * math.pi
    spans = [
        span("quadrature.integrate", 0.0, 1.0),
        span("quadrature.panel_nodes", 0.1, 0.2, 0, {"a": 1.0, "b": 2.0, "panels": 1, "nodes": 32}),
        span("quadrature.panel_nodes", 0.3, 0.4, 0, {"a": 1.0, "b": 2.0, "panels": 2, "nodes": 64}),
        span("quadrature.panel_nodes", 0.5, 0.6, 0, {"a": 1.0, "b": 2.0, "panels": 4, "nodes": 128}),
        span("surfaces.general", 2.0, 3.0, -1, {"s_period": s_period}),
        span("quadrature.panel_nodes", 2.1, 2.2, 4, {"a": 0.0, "b": s_period, "panels": 2, "nodes": 64}),
        span("quadrature.panel_nodes", 2.3, 2.4, 4, {"a": 0.0, "b": 3.0, "panels": 2, "nodes": 64}),
        span("quadrature.panel_nodes", 2.5, 2.6, 4, {"a": 0.0, "b": 3.5, "panels": 2, "nodes": 64}),
        span("spectral.eig", 4.0, 6.0, -1, {"found": 3}),
    ] + [span("mode_odes.shot", 4.0 + 0.1 * i, 4.05 + 0.1 * i, 8, {"steps": 10}) for i in range(12)]
    m = layer_metrics(spans, chart_calls=1000)
    assert m["quadrature.nodes"] == 32 + 64 + 128 + 3 * 64
    assert m["quadrature.useful_node_ratio"] == pytest.approx((128 + 3 * 64) / (224 + 192))
    assert m["quadrature.calls"] == 1 + 3  # integrate, plus the general path's direct calls
    assert m["quadrature.max_panels"] == 4
    assert m["surfaces.useful_chart_ratio"] == pytest.approx(128 / 1000)
    assert m["spectral.eig_probes"] == 12
    assert m["spectral.useful_probe_ratio"] == pytest.approx(3 / 12)
    assert m["mode_odes.steps"] == 120
    assert m["mode_odes.us_per_step"] == pytest.approx(1e6 * 12 * 0.05 / 120)
    assert ratio(5, 0) == 0.0


def test_every_layer_metric_is_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    computed = set(layer_metrics([])) | {"trace.pass_s", "trace.overhead_s"}
    assert computed == declared


# ------------------------------------------------------- failure counting


def test_tally_counts_failures_and_exceptions():
    tally = Tally()
    assert tally.run("ok", lambda: require(True, "never"))
    assert not tally.run("missed tolerance", lambda: require(abs(1.0 - 1.1) <= 1e-3, "off by 0.1"))
    assert not tally.run("raised", lambda: 1 / 0)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failures[0] == {"check": "missed tolerance", "error": "off by 0.1"}
    assert tally.failures[1]["error"].startswith("ZeroDivisionError")
    with pytest.raises(CheckFailed):
        require(False, "x")


def _cli_context():
    from workloads import Context

    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SCHW_THREADS", None)
    return Context(root=str(ROOT), env=env, tracer=NullTracer())


def test_forced_wrong_exit_code_counts_as_failure():
    from workloads import cli_step

    ctx = _cli_context()
    usage = ["spectrum", "--mass", "2", "--R", "0.5"]  # exits 2
    tally = Tally()
    tally.run("expects 0", cli_step(ctx, "usage_error", usage, 0))
    tally.run("expects 2", cli_step(ctx, "usage_error", usage, 2))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "exit code 2, expected 0" in tally.failures[0]["error"]


def test_changed_stdout_counts_as_rerun_failure():
    from workloads import cli_step

    ctx = _cli_context()
    ctx.state["stdout"] = {"riccati": b"not what the CLI prints"}
    tally = Tally()
    tally.run("rerun", cli_step(ctx, "riccati", ["riccati", "--mass", "2", "--c", "0"], 0))
    assert tally.failed == 1 and "differs" in tally.failures[0]["error"]


# ------------------------------------------------------------- references


def test_frozen_rstar_matches_mpmath_root():
    import mpmath

    with mpmath.workdps(60):
        assert mpmath.nstr(refs.rstar_over_m(), 50) == refs.R_STAR_OVER_M_50
        x = mpmath.mpf(refs.R_STAR_OVER_M_50)
        assert abs(mpmath.log(2 * x) / 2 - (2 * x + 1) / (2 * x - 1)) < mpmath.mpf(10) ** -48


def test_areal_from_distance_reference():
    m = 2.0
    assert refs.areal_from_distance(m, 0.0) == 2.0 * m
    # far field: r = h - m + m log(2h/m) + O(m^2/h)
    h = refs.areal_from_distance(m, 1e6)
    assert h - m + m * math.log(2.0 * h / m) == pytest.approx(1e6, abs=1e-3)
    # inverse map from the package agrees at double precision
    from schwsurf import SchwarzschildModel, distance_from_areal

    for rho in (0.1, 3.0, 250.0):
        assert distance_from_areal(SchwarzschildModel(m), refs.areal_from_distance(m, rho)) == pytest.approx(rho, rel=1e-12)


def test_riccati_reference_at_cbar_is_rstar():
    # at m = 2, cbar = -8 - 4 log(1) = -8 and the blow-up sits at R*
    assert refs.riccati_blowup(2.0, -8.0) == pytest.approx(2.0 * float(refs.rstar_over_m()), rel=1e-14)


def test_plane_closed_forms():
    m = 2.0
    assert refs.plane_ratio(m, 2.0 * m) == 0.0
    assert refs.plane_boundary_length(m) == 8.0 * math.pi
    assert refs.flat_graph_ratio(1.0, 2.0) == pytest.approx(0.75 * math.pi)
