"""Spans around the package's public functions, recorded from outside.

:class:`Tracer` rebinds each traced function where its caller looks it
up (a module attribute, or a method on ``RadialSolution``) and restores
the originals on :meth:`Tracer.uninstall`.  A span is
``(name, start, end, parent, pass_id, extra)``; spans stay in memory
until the run ends.  :func:`layer_metrics` turns one pass's spans into
the per-module metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict

from measure import ratio

NAME, START, END, PARENT, PASS, EXTRA = range(6)

CLI_STEPS = (
    "geom",
    "stability-radius",
    "spectrum",
    "morse-index",
    "monotonicity",
    "boundary-bound",
    "riccati",
)

# modules whose self time is reported; "check" is the benchmark's own
# comparison code plus package calls that are not traced
SELF_TIME_MODULES = ("mode_odes", "spectral", "fd_oracle", "quadrature", "surfaces", "geometry", "check")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.pass_id = 0

    # ------------------------------------------------------------ recording

    def wrap(self, fn, name, annotate=None):
        """``fn`` recording one span per call.  ``name`` may be a callable
        of ``(args, kwargs)``; ``annotate(args, kwargs, result)`` returns the
        span's extra data (counts)."""

        def traced(*args, **kwargs):
            with self.span(name(args, kwargs) if callable(name) else name) as extra:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    extra.update(annotate(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of code; the block may
        fill the yielded dict with the span's extra data."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        extra = {}
        t0 = time.perf_counter()
        try:
            yield extra
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.pass_id, extra or None)

    # ------------------------------------------------------------ rebinding

    def install(self, bindings):
        """Rebind ``(owner, attr, name, annotate)`` entries; ``owner`` is a
        module or class looked up by the caller at call time."""
        for owner, attr, name, annotate in bindings:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, annotate))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """All spans as gzip TSV: pass, id, parent, name, start, end, extra."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("pass\tid\tparent\tname\tstart_s\tend_s\textra\n")
            for i, s in enumerate(self.spans):
                extra = json.dumps(s[EXTRA]) if s[EXTRA] else ""
                fh.write(f"{s[PASS]}\t{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{extra}\n")


class NullTracer:
    """Stand-in for untraced passes: spans cost one dict and record nothing."""

    @contextlib.contextmanager
    def span(self, name):
        yield {}


# ------------------------------------------------------------------ bindings


def _steps(args, kwargs, sol):
    return {"steps": len(sol.nodes_r) - 1}


def _entries(args, kwargs, spectrum):
    return {"found": len(spectrum.entries)}


def _assembled(args, kwargs, problem):
    arrays = (problem.grid, problem.stiffness_diag, problem.stiffness_off, problem.mass_weights)
    return {"unknowns": problem.n, "bytes": sum(a.nbytes for a in arrays)}


def _read_problem(args, kwargs, result):
    problem = args[0]
    arrays = (problem.stiffness_diag, problem.stiffness_off, problem.mass_weights)
    return {"bytes": sum(a.nbytes for a in arrays)}


def _panels(args, kwargs, result):
    a, b, n_panels = args[0], args[1], args[2]
    return {"a": a, "b": b, "panels": n_panels, "nodes": len(result[0])}


def _surface_kind(args, kwargs):
    surface = args[1] if len(args) > 1 else kwargs["surface"]
    return "surfaces.cone" if surface.is_cone else "surfaces.general"


def _surface_period(args, kwargs, result):
    surface = args[1] if len(args) > 1 else kwargs["surface"]
    return {"s_period": surface.s_period}


def package_bindings():
    """Every traced entry point, bound where its callers look it up."""
    from schwsurf import fd_oracle, geometry, mode_odes, quadrature, spectral, surfaces

    out = []
    for owner in (mode_odes, spectral):
        out.append((owner, "integrate_v", "mode_odes.shot", _steps))
    for attr in ("v", "v_prime", "log_abs_v"):
        out.append((mode_odes.RadialSolution, attr, "mode_odes.eval", None))
    for attr in (
        "closed_form_v0",
        "psi_c",
        "barrier_psi_k",
        "log_barrier_envelope",
        "cbar",
        "singularity_radius",
        "ode_residual_grid",
        "riccati_residual_grid",
    ):
        out.append((mode_odes, attr, "mode_odes.closed_form", None))
    out += [
        (spectral, "negative_count", "spectral.negative_count", None),
        (spectral, "morse_index", "spectral.morse", None),
        (spectral, "eigenvalues_shooting", "spectral.eig", _entries),
        (spectral, "eigenfunction", "spectral.eigenfunction", None),
        (spectral, "rayleigh_quotient", "spectral.rayleigh", None),
        (spectral, "stability_radius", "spectral.stability_radius", None),
        (fd_oracle, "assemble", "fd_oracle.assemble", _assembled),
        (fd_oracle, "lowest_eigenvalues", "fd_oracle.eig", _read_problem),
        (fd_oracle, "negative_count_fd", "fd_oracle.sturm", _read_problem),
        (fd_oracle, "richardson_lowest", "fd_oracle.richardson", None),
        (quadrature, "integrate", "quadrature.integrate", None),
        (quadrature, "panel_nodes", "quadrature.panel_nodes", _panels),
    ]
    for attr in ("mu_integral", "area_integral", "defect_integral"):
        out.append((surfaces, attr, _surface_kind, _surface_period))
    for attr in ("monotonicity_report", "density_at_infinity", "boundary_bound_check", "formula_residual"):
        out.append((surfaces, attr, "surfaces.report", None))
    out.append((surfaces, "boundary_length", "surfaces.boundary_length", None))
    geometry_fns = (
        "areal_from_distance",
        "areal_from_isotropic",
        "distance_from_isotropic",
        "isotropic_from_areal",
        "distance_from_areal",
    )
    for owner in (geometry, surfaces):
        for attr in geometry_fns:
            if hasattr(owner, attr):
                out.append((owner, attr, "geometry.call", None))
    return out


# ------------------------------------------------------------------ analysis


def self_times(spans):
    """Per-span self time: duration minus the union of its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        end = s[START]
        for c in sorted(children.get(i, ()), key=lambda j: spans[j][START]):
            lo = max(spans[c][START], end)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                end = hi
        out.append(s[END] - s[START] - covered)
    return out


def _module(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, chart_calls=0):
    """Per-module metrics of one pass.  ``spans`` are that pass's spans
    with parents indexing into the same list (a parent precedes its
    children)."""
    own = self_times(spans)
    names = [s[NAME] for s in spans]
    # names and modules of each span's ancestors, shared between siblings
    above = []
    cache = {}
    empty = frozenset()
    for s in spans:
        p = s[PARENT]
        if p < 0:
            above.append(empty)
            continue
        key = (id(above[p]), names[p])
        if key not in cache:
            cache[key] = (above[p] | {names[p], _module(names[p])}, above[p])
        above.append(cache[key][0])

    def outermost(label):
        """Total time of spans named (or in module) ``label`` that are not
        nested in another such span."""
        return sum(
            s[END] - s[START]
            for i, s in enumerate(spans)
            if (names[i] == label or _module(names[i]) == label) and label not in above[i]
        )

    def count(name):
        return sum(1 for n in names if n == name)

    def extras(name):
        return [s[EXTRA] for s in spans if s[NAME] == name and s[EXTRA]]

    m = {}
    steps = sum(e["steps"] for e in extras("mode_odes.shot"))
    shot_s = outermost("mode_odes.shot")
    m["mode_odes.shots"] = count("mode_odes.shot")
    m["mode_odes.steps"] = steps
    m["mode_odes.shot_s"] = shot_s
    m["mode_odes.us_per_step"] = 1e6 * ratio(shot_s, steps)
    m["mode_odes.eval_calls"] = count("mode_odes.eval")
    m["mode_odes.eval_s"] = outermost("mode_odes.eval")
    m["mode_odes.closed_form_s"] = outermost("mode_odes.closed_form")

    probes = sum(
        1 for i, n in enumerate(names) if n == "mode_odes.shot" and "spectral.eig" in above[i]
    )
    found = sum(e["found"] for e in extras("spectral.eig"))
    m["spectral.morse_s"] = outermost("spectral.morse")
    m["spectral.eig_s"] = outermost("spectral.eig")
    m["spectral.eig_probes"] = probes
    m["spectral.eig_self_s"] = sum(own[i] for i, n in enumerate(names) if n == "spectral.eig")
    m["spectral.useful_probe_ratio"] = ratio(found, probes)
    m["spectral.eigenfunction_s"] = outermost("spectral.eigenfunction")
    m["spectral.rayleigh_s"] = outermost("spectral.rayleigh")

    m["fd_oracle.assemble_s"] = outermost("fd_oracle.assemble")
    m["fd_oracle.eig_s"] = outermost("fd_oracle.eig")
    m["fd_oracle.sturm_s"] = outermost("fd_oracle.sturm")
    m["fd_oracle.unknowns"] = sum(e["unknowns"] for e in extras("fd_oracle.assemble"))
    m["fd_oracle.bytes_computed"] = sum(
        e["bytes"] for n in ("fd_oracle.assemble", "fd_oracle.eig", "fd_oracle.sturm") for e in extras(n)
    )

    # panel_nodes calls grouped by caller; the caller's accepted level is
    # its largest panel count
    by_caller = defaultdict(list)
    for s in spans:
        if s[NAME] == "quadrature.panel_nodes" and s[EXTRA]:
            by_caller[s[PARENT]].append(s[EXTRA])
    panel_calls = [e for group in by_caller.values() for e in group]
    nodes = sum(e["nodes"] for e in panel_calls)
    useful = 0
    for group in by_caller.values():
        top = max(e["panels"] for e in group)
        useful += sum(e["nodes"] for e in group if e["panels"] == top)
    m["quadrature.calls"] = sum(
        1 for i, n in enumerate(names) if _module(n) == "quadrature" and "quadrature" not in above[i]
    )
    m["quadrature.nodes"] = nodes
    m["quadrature.s"] = outermost("quadrature")
    m["quadrature.useful_node_ratio"] = ratio(useful, nodes)
    m["quadrature.max_panels"] = max((e["panels"] for e in panel_calls), default=0)

    # integrand nodes of the general-chart path: its t-direction rules,
    # i.e. every panel_nodes call under it except the s rule on [0, S)
    integrand_nodes = 0
    for caller, group in by_caller.items():
        if caller >= 0 and names[caller] == "surfaces.general":
            period = spans[caller][EXTRA]["s_period"]
            integrand_nodes += sum(
                e["nodes"] for e in group if not (e["a"] == 0.0 and e["b"] == period)
            )
    m["surfaces.cone_s"] = outermost("surfaces.cone")
    m["surfaces.general_s"] = outermost("surfaces.general")
    m["surfaces.report_s"] = outermost("surfaces.report")
    m["surfaces.chart_calls"] = chart_calls
    m["surfaces.useful_chart_ratio"] = ratio(integrand_nodes, chart_calls)

    m["geometry.calls"] = count("geometry.call")
    m["geometry.s"] = outermost("geometry.call")

    module_self = defaultdict(float)
    for i, n in enumerate(names):
        module_self[_module(n)] += own[i]
    for mod in SELF_TIME_MODULES:
        m[f"{mod}.self_s"] = module_self.get(mod, 0.0)

    for step in CLI_STEPS + ("usage_error", "python", "import"):
        m[f"cli.{step}_s"] = outermost(f"cli.{step}")
    cli_extras = [s[EXTRA] for s in spans if _module(s[NAME]) == "cli" and s[EXTRA]]
    m["cli.bytes_out"] = sum(e["bytes"] for e in cli_extras)
    m["cli.rerun_mismatches"] = sum(e["mismatch"] for e in cli_extras)
    m["trace.spans"] = len(spans)
    return m
