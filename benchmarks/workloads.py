"""The four workloads: inputs drawn from a seed, and the checks of one pass.

Every check is a closed loop step: it calls into the package (or runs
one CLI child), waits for the answer, and compares it with a reference
at the tolerance that ``tests/`` states for the same quantity.  Checks
look package functions up as module attributes at call time so that a
traced run sees every call.

The seed only picks radii inside fixed bands and rotation seeds, so the
work of a pass stays comparable from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field

import refs
from measure import require, run_child
from tracing import CLI_STEPS

MASS = 2.0


@dataclass
class Workload:
    name: str
    entry: str  # the module a user imports to run these checks
    build: object  # seed -> inputs (models, surfaces, charts)
    checks: object  # (inputs, context) -> [(name, fn)]
    startup: object = None  # (inputs, context) -> [(name, fn)], traced runs only


@dataclass
class Context:
    """What a check needs from the runner: where the source tree is and
    where to record spans."""

    root: str
    env: dict
    tracer: object
    state: dict = field(default_factory=dict)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# =========================================================== index-sweep


def build_index_sweep(seed: int) -> dict:
    from schwsurf import SchwarzschildModel

    rng = random.Random(seed)
    m = MASS
    # (band in units of m, expected Morse index)
    bands = ((1.5, 5.4, 0), (5.6, 10.0, 1), (80.0, 120.0, 1), (900.0, 1100.0, 1))
    morse = [(rng.uniform(lo, hi) * m, expect) for lo, hi, expect in bands]
    R_far = morse[-1][0]
    return {
        "model": SchwarzschildModel(m),
        "morse": morse,
        "R_far": R_far,
        # the envelope runs at the mirror radius in the same band, so the
        # pass's total shot length hardly depends on the seed
        "R_env": 2000.0 * m - R_far,
        "R_eig": (20.0 * m, morse[2][0]),
    }


def checks_index_sweep(inp: dict, ctx: Context) -> list:
    import numpy as np

    from schwsurf import fd_oracle, mode_odes, spectral

    M = inp["model"]
    m = M.mass
    R_ref = float(refs.rstar_over_m()) * m

    def rstar_brentq():
        R = spectral.stability_radius(M, tol=1e-12)
        residual = 0.5 * math.log(2.0 * R / m) - (2.0 * R + m) / (2.0 * R - m)
        require(abs(residual) <= 1e-12, f"residual {residual}")
        require(5.50 <= R / m <= 5.52, f"R/m = {R / m}")
        require(_rel(R, R_ref) <= 1e-13, f"R* {R!r} vs reference {R_ref!r}")

    def rstar_closed_form():
        v0 = mode_odes.closed_form_v0(M, R_ref)
        require(abs(v0) <= 1e-8, f"|v0(R*)| = {abs(v0)}")

    def rstar_riccati():
        R_c = mode_odes.singularity_radius(M, mode_odes.cbar(M))
        require(abs(R_c - R_ref) <= 1e-8 * R_ref, f"R_c {R_c!r} vs reference {R_ref!r}")

    def morse(R, expect):
        def check():
            rep = spectral.morse_index(M, R=R, kmax=5, workers=1)
            require(rep.morse_index == expect, f"index {rep.morse_index} at R = {R}, expected {expect}")
            for k, c in rep.per_mode_negative_counts.items():
                require(k == 0 or c == 0, f"mode {k} has {c} negative eigenvalues at R = {R}")

        return check

    R_env = inp["R_env"]
    sample = np.geomspace(0.55 * m, 0.995 * R_env, 160)

    def envelope(k, lam_units):
        def check():
            sol = mode_odes.integrate_v(mode_odes.ModeParams(M, k, lam_units / (m * m), R_env), tol=1e-6)
            require(sol.zero_crossings == (), f"zeros {sol.zero_crossings}")
            for r in sample:
                log_v, sign = sol.log_abs_v(r)
                require(sign > 0, f"v < 0 at r = {r}")
                margin = log_v - mode_odes.log_barrier_envelope(M, k, r)
                require(margin >= -1e-4, f"log-margin {margin} at r = {r}")

        return check

    def eigen(R, count):
        def check():
            lams = spectral.eigenvalues_shooting(M, 0, R, count).lambdas()
            require(len(lams) == count and np.all(np.diff(lams) > 0.0), f"spectrum {lams}")
            require(lams[0] < 0.0, f"lowest eigenvalue {lams[0]} not negative at R = {R}")
            for n in (1024, 8192):
                fd = fd_oracle.richardson_lowest(M, 0, R, n=n, how_many=count)
                rel = np.abs(lams - fd) / np.maximum(np.abs(lams), np.abs(fd))
                require(np.all(rel <= 1e-3), f"shooting {lams} vs FD(n={n}) {fd}")

        return check

    R_far = inp["R_far"]

    def counts(k, expect):
        def check():
            shot = spectral.negative_count(M, k, R_far)
            fd = fd_oracle.negative_count_fd(fd_oracle.assemble(M, k, R_far, 65536))
            require(shot == fd == expect, f"k={k}: shooting {shot}, FD {fd}, expected {expect}")

        return check

    out = [
        ("rstar.brentq", rstar_brentq),
        ("rstar.closed_form", rstar_closed_form),
        ("rstar.riccati", rstar_riccati),
    ]
    out += [(f"morse.band{i + 1}", morse(R, e)) for i, (R, e) in enumerate(inp["morse"])]
    out += [
        (f"envelope.k{k}.lam{lam:g}", envelope(k, lam))
        for k in (1, 2, 3)
        for lam in (0.0, -0.1, -1.0, -10.0)
    ]
    R20, R_mid = inp["R_eig"]
    out += [("eig.R20m.count3", eigen(R20, 3)), ("eig.band3.count1", eigen(R_mid, 1))]
    out += [("count.k0", counts(0, 1)), ("count.k1", counts(1, 0))]
    return out


# ========================================================== mode-profiles


def build_mode_profiles(seed: int) -> dict:
    from schwsurf import SchwarzschildModel

    rng = random.Random(seed)
    return {"model": SchwarzschildModel(MASS), "R": rng.uniform(16.0, 24.0) * MASS}


def checks_mode_profiles(inp: dict, ctx: Context) -> list:
    import numpy as np

    from schwsurf import mode_odes, spectral

    M = inp["model"]
    m = M.mass
    R = inp["R"]
    R_ref = float(refs.rstar_over_m()) * m
    found = {}

    def spectrum():
        found.clear()
        lams = spectral.eigenvalues_shooting(M, 0, R, 3).lambdas()
        require(len(lams) == 3 and np.all(np.diff(lams) > 0.0), f"spectrum {lams}")
        require(lams[0] < 0.0 < lams[1], f"expected one negative eigenvalue, got {lams}")
        found.update(enumerate(lams, 1))

    def profile(n):
        def check():
            require(n in found, "eigenvalue missing: the spectrum check failed")
            lam = found[n]
            r, u, up = spectral.eigenfunction(M, 0, R, lam, n_samples=2001)
            for label, slope in (("u'", up), ("sampled u'", None)):
                q = spectral.rayleigh_quotient(M, R, r, u, slope)
                require(_rel(q, lam) <= 1e-4, f"Rayleigh quotient with {label}: {q} vs {lam}")

        return check

    def rayleigh_v0():
        r = np.linspace(0.5 * m, R_ref, 4001)
        u = np.array([mode_odes.closed_form_v0(M, x) for x in r]) / np.sqrt(r)
        q = spectral.rayleigh_quotient(M, R_ref, r, u)
        require(abs(q) <= 1e-8, f"quotient of v0 at R* = {q}")

    step = 1e-4 * m

    def shot_vs_closed_form():
        sol = mode_odes.integrate_v(mode_odes.ModeParams(M, 0, 0.0, 25.0 * m), tol=1e-10)
        grid = np.linspace(0.5 * m, 25.0 * m, 600)
        v_num = np.array([sol.v(r) for r in grid])
        v_ref = np.array([mode_odes.closed_form_v0(M, r) for r in grid])
        sup_err = np.max(np.abs(v_num - v_ref)) / np.max(np.abs(v_ref))
        require(sup_err <= 1e-8, f"sup-rel error {sup_err}")

    def v0_residual():
        r_v0 = np.linspace(0.5 * m + 3.0 * step, 25.0 * m, 250)
        res = np.max(np.abs(mode_odes.ode_residual_grid(
            lambda r: mode_odes.closed_form_v0(M, r), mode_odes.radial_q(M), r_v0, step)))
        require(res <= 1e-6, f"v0 residual {res}")

    def psi_c_residual():
        r_psi = np.concatenate([
            np.linspace(0.5 * m + 3.0 * step, 0.9 * R_ref, 120),
            np.linspace(1.1 * R_ref, 25.0 * m, 120),
        ])
        c = mode_odes.cbar(M)

        def radial_rhs(r):
            return -0.25 / (r * r) - (m / r**3) / (1.0 + 0.5 * m / r) ** 2

        res = np.max(np.abs(mode_odes.riccati_residual_grid(
            lambda r: mode_odes.psi_c(M, c, r), radial_rhs, r_psi, step)))
        require(res <= 1e-6, f"psi_c residual {res}")

    def barrier_residuals():
        r_bar = np.linspace(0.5 * m + 3.0 * step, 25.0 * m, 250)
        for k in (1, 2, 3):
            res = np.max(np.abs(mode_odes.riccati_residual_grid(
                lambda r, _k=k: mode_odes.barrier_psi_k(M, _k, r),
                lambda r, _k=k: (_k * _k - 0.75) / (r * r),
                r_bar,
                step,
            )))
            require(res <= 1e-6, f"barrier k={k} residual {res}")

    return [
        ("spectrum.count3", spectrum),
        ("profile.n1", profile(1)),
        ("profile.n2", profile(2)),
        ("profile.n3", profile(3)),
        ("rayleigh.v0", rayleigh_v0),
        ("c04.shot", shot_vs_closed_form),
        ("c04.v0_residual", v0_residual),
        ("c04.psi_c_residual", psi_c_residual),
        ("c04.barrier_residuals", barrier_residuals),
    ]


# =============================================================== surfaces


class ChartCounter:
    """Counts calls into the benchmark's own chart callables."""

    def __init__(self):
        self.calls = 0


def _counted(fn, counter):
    def chart(t, s):
        counter.calls += 1
        return fn(t, s)

    return chart


def build_surfaces(seed: int) -> dict:
    import numpy as np

    from schwsurf import QuadSpec, SchwarzschildModel, surfaces

    rng = random.Random(seed)
    M = SchwarzschildModel(MASS)
    flat = SchwarzschildModel(0.0)
    m = M.mass
    counter = ChartCounter()

    t06 = 2.0 * surfaces.clip_radius(M, 1e3 * m)
    t07 = 2.0 * surfaces.clip_radius(M, 500.0 * m)
    planes = [("plane", surfaces.make_plane(M, t06), surfaces.make_plane(M, t07))]
    for seed_i in (rng.randrange(1, 2**31) for _ in range(2)):
        Q = surfaces.random_rotation(seed_i)
        planes.append((
            f"rotated{seed_i}",
            surfaces.make_plane(M, t06, rotation=Q),
            surfaces.make_plane(M, t07, rotation=Q),
        ))

    curve = surfaces.latitude_circle(math.pi / 3)
    general_cone = surfaces.make_general(
        chart=_counted(lambda t, s: t * curve.alpha(s), counter),
        t_range=(1.0, 12.0),
        s_period=curve.period,
        chart_t=_counted(lambda t, s: curve.alpha(s), counter),
        chart_s=_counted(lambda t, s: t * curve.alpha_d(s), counter),
    )
    height = 1.0
    graph = surfaces.make_general(
        chart=_counted(lambda t, s: np.array([t * math.cos(s), t * math.sin(s), height]), counter),
        t_range=(0.0, 8.0),
        s_period=2.0 * math.pi,
        chart_t=_counted(lambda t, s: np.array([math.cos(s), math.sin(s), 0.0]), counter),
        chart_s=_counted(lambda t, s: np.array([-t * math.sin(s), t * math.cos(s), 0.0]), counter),
    )
    return {
        "model": M,
        "flat": flat,
        "rhos06": np.geomspace(0.1 * m, 1e3 * m, 40),
        "planes": planes,
        "cone": surfaces.make_cone(M, curve, t_max=12.0),
        "general_cone": general_cone,
        "rho_general": (rng.uniform(1.8, 2.2), rng.uniform(4.5, 5.5)),
        "graph": graph,
        "height": height,
        "rho_flat": (rng.uniform(1.7, 1.9), rng.uniform(2.4, 2.6)),
        "flat_spec": QuadSpec(rel_tol=1e-7),
        "chart_counter": counter,
    }


def checks_surfaces(inp: dict, ctx: Context) -> list:
    import numpy as np

    from schwsurf import geometry, surfaces

    M = inp["model"]
    m = M.mass
    rhos = inp["rhos06"]
    plane0 = inp["planes"][0][1]

    def ratios(plane):
        def check():
            vals = np.empty(len(rhos))
            for i, rho in enumerate(rhos):
                h = geometry.areal_from_distance(M, rho)
                vals[i] = surfaces.mu_integral(M, plane, rho) / h**2
                expected = refs.plane_ratio(m, h)
                require(abs(vals[i] - expected) <= 1e-8 * expected, f"ratio {vals[i]} vs {expected} at rho = {rho}")
            require(np.all(np.diff(vals) > 0.0), "ratios not increasing")

        return check

    def identity(plane):
        def check():
            worst = max(abs(surfaces.formula_residual(M, plane, 0.0, rho)) for rho in rhos)
            require(worst <= 1e-7, f"identity residual {worst}")

        return check

    def boundary(plane):
        def check():
            rho_max = 500.0 * m
            blen = surfaces.boundary_length(M, plane)
            ref = refs.plane_boundary_length(m)
            require(abs(blen - ref) <= 1e-10 * ref, f"|boundary| {blen} vs {ref}")
            dens = surfaces.density_at_infinity(M, plane, rho_max)
            require(dens.converged, "density did not converge")
            require(abs(dens.theta - refs.PLANE_DENSITY) <= 1e-4, f"Theta {dens.theta}")
            rep = surfaces.boundary_bound_check(M, plane, rho_max)
            require(rep.defect_value <= 1e-6, f"defect {rep.defect_value}")
            require(rep.bound_satisfied, "bound not satisfied")

        return check

    def same_as_plane(plane, plane500):
        def check():
            for rho in rhos:
                a = surfaces.mu_integral(M, plane, rho)
                b = surfaces.mu_integral(M, plane0, rho)
                require(a == b, f"rotated mu {a!r} vs {b!r} at rho = {rho}")
            a = surfaces.boundary_length(M, plane500)
            b = surfaces.boundary_length(M, inp["planes"][0][2])
            require(a == b, f"rotated |boundary| {a!r} vs {b!r}")

        return check

    def general_vs_cone(rho):
        def check():
            ref = surfaces.mu_integral(M, inp["cone"], rho)
            got = surfaces.mu_integral(M, inp["general_cone"], rho)
            require(_rel(got, ref) <= 1e-5, f"general {got} vs cone {ref} at rho = {rho}")

        return check

    flat, graph, spec, c = inp["flat"], inp["graph"], inp["flat_spec"], inp["height"]

    def flat_ratio(rho):
        def check():
            ratio = surfaces.mu_integral(flat, graph, rho, spec) / rho**2
            expected = refs.flat_graph_ratio(c, rho)
            require(_rel(ratio, expected) <= 1e-4, f"ratio {ratio} vs {expected} at rho = {rho}")

        return check

    def flat_identity():
        lo, hi = inp["rho_flat"]
        resid = surfaces.formula_residual(flat, graph, lo, hi, spec)
        scale = refs.flat_graph_ratio(c, hi)
        require(abs(resid) <= 1e-5 * scale, f"identity residual {resid}")

    out = []
    for label, plane, plane500 in inp["planes"]:
        out += [
            (f"{label}.ratios", ratios(plane)),
            (f"{label}.identity", identity(plane)),
            (f"{label}.boundary_bound", boundary(plane500)),
        ]
        if plane is not plane0:
            out.append((f"{label}.same_as_plane", same_as_plane(plane, plane500)))
    out += [(f"general.cone.rho{i + 1}", general_vs_cone(r)) for i, r in enumerate(inp["rho_general"])]
    out += [(f"flat.ratio.rho{i + 1}", flat_ratio(r)) for i, r in enumerate(inp["rho_flat"])]
    out.append(("flat.identity", flat_identity))
    return out


# ==================================================================== cli


def build_cli(seed: int) -> dict:
    rng = random.Random(seed)
    mass = ["--mass", format(MASS, "g")]
    steps = {
        "geom": ["geom", *mass],
        "stability-radius": ["stability-radius", *mass, "--output", "json"],
        "spectrum": ["spectrum", *mass, "--R", "40", "--count", "3", "--method", "both"],
        "morse-index": ["morse-index", *mass, "--R", "2000", "--kmax", "5"],
        "monotonicity": ["monotonicity", *mass, "--surface", f"plane:rotated:{rng.randrange(0, 10**6)}"],
        "boundary-bound": ["boundary-bound", *mass],
        "riccati": ["riccati", *mass, "--c", "0"],
    }
    assert tuple(steps) == CLI_STEPS
    return {"steps": steps, "usage_error": ["spectrum", *mass, "--R", "0.5"]}


def _csv(text: bytes):
    lines = text.decode("utf-8").strip().split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _cli_references() -> dict:
    """Reference values for the CLI outputs, computed once per run."""
    import numpy as np

    m = MASS
    geom_r = np.concatenate([[0.0], np.geomspace(0.01 * m, 1e4, 64)])
    mono_rho = np.geomspace(0.1 * m, 100.0 * m, 40)
    return {
        "R_star": float(refs.rstar_over_m()) * m,
        "geom_r": [float(r) for r in geom_r],
        "geom_h": [refs.areal_from_distance(m, float(r)) for r in geom_r],
        "mono_h": [refs.areal_from_distance(m, float(r)) for r in mono_rho],
        "R_c": refs.riccati_blowup(m, 0.0),
    }


def _verify_geom(out, ref):
    m = MASS
    header, rows = _csv(out)
    require(header == ["rho_iso", "s", "r", "h", "f"], f"header {header}")
    require(len(rows) == len(ref["geom_r"]), f"{len(rows)} rows")
    for row, r_ref, h_ref in zip(rows, ref["geom_r"], ref["geom_h"]):
        rho, s, r, h, f = (float(row[k]) for k in header)
        require(r == r_ref, f"grid point {r} vs {r_ref}")
        require(h == s, f"h {h} != s {s}")
        require(_rel(s, h_ref) <= 1e-10, f"s {s} vs {h_ref} at r = {r}")
        require(_rel(rho * (1.0 + 0.5 * m / rho) ** 2, s) <= 1e-10, f"rho_iso {rho} vs s {s}")
    first = {k: float(v) for k, v in rows[0].items()}
    require(first["r"] == 0.0 and first["f"] == 0.0 and first["s"] == 2.0 * m, f"horizon row {first}")
    f_far = math.sqrt(1.0 - 2.0 * m / ref["geom_h"][-1])
    require(_rel(float(rows[-1]["f"]), f_far) <= 1e-12, f"far f {rows[-1]['f']} vs {f_far}")


def _verify_stability_radius(out, ref):
    doc = json.loads(out)
    require(doc["mass"] == MASS, f"mass {doc['mass']}")
    require(_rel(doc["R_star"], ref["R_star"]) <= 1e-12, f"R* {doc['R_star']} vs {ref['R_star']}")
    require(5.50 <= doc["ratio"] <= 5.52, f"ratio {doc['ratio']}")
    require(abs(doc["residual"]) <= 1e-12, f"residual {doc['residual']}")


def _verify_spectrum(out, ref):
    header, rows = _csv(out)
    require(len(rows) == 3, f"{len(rows)} rows")
    lams = [float(r["lambda_shooting"]) for r in rows]
    require(lams[0] < 0.0 < lams[1] < lams[2], f"spectrum {lams}")
    for row in rows:
        require(float(row["rel_diff"]) <= 1e-3, f"shooting vs FD rel_diff {row['rel_diff']}")


def _verify_morse_index(out, ref):
    header, rows = _csv(out)
    require(len(rows) == 11, f"{len(rows)} rows")
    for row in rows:
        expect = 1 if int(row["k"]) == 0 else 0
        require(int(row["negative_count"]) == expect, f"mode {row['k']}: {row['negative_count']}")
        require(int(row["morse_index"]) == 1, f"index {row['morse_index']}")


def _verify_monotonicity(out, ref):
    m = MASS
    header, rows = _csv(out)
    require(len(rows) == len(ref["mono_h"]), f"{len(rows)} rows")
    for i, (row, h) in enumerate(zip(rows, ref["mono_h"])):
        ratio = float(row["ratio"])
        expected = refs.plane_ratio(m, h)
        require(abs(ratio - expected) <= 1e-8 * expected, f"ratio {ratio} vs {expected} at rho = {row['rho']}")
        if i > 0:
            require(abs(float(row["pair_residual"])) <= 1e-7, f"pair residual {row['pair_residual']}")
    last = rows[-1]
    require(last["monotone"] == "true" and float(last["max_backstep"]) == 0.0, "trace not monotone")
    blen = float(last["boundary_length"])
    require(_rel(blen, refs.plane_boundary_length(m)) <= 1e-14, f"|boundary| {blen}")


def _verify_boundary_bound(out, ref):
    m = MASS
    header, rows = _csv(out)
    row = rows[0]
    require(abs(float(row["lhs"]) - refs.PLANE_DENSITY) <= 1e-4, f"Theta {row['lhs']}")
    require(abs(float(row["equality_defect"])) <= 1e-4, f"equality defect {row['equality_defect']}")
    require(_rel(float(row["boundary_term"]), 1.0) <= 1e-12, f"boundary term {row['boundary_term']}")
    require(float(row["defect_integral"]) <= 1e-6, f"defect {row['defect_integral']}")
    require(row["bound_satisfied"] == "true", "bound not satisfied")
    blen = float(row["boundary_len"])
    require(_rel(blen, refs.plane_boundary_length(m)) <= 1e-12, f"|boundary| {blen}")


def _verify_riccati(out, ref):
    header, rows = _csv(out)
    require(len(rows) == 65, f"{len(rows)} rows")
    R_c = float(rows[0]["R_c"])
    require(_rel(R_c, ref["R_c"]) <= 1e-12, f"R_c {R_c} vs {ref['R_c']}")
    require(float(rows[0]["r"]) == 0.5 * MASS, f"first radius {rows[0]['r']}")
    require(all(abs(float(row["psi"])) < 1e3 for row in rows), "psi trace left [-1e3, 1e3]")


VERIFY = {
    "geom": _verify_geom,
    "stability-radius": _verify_stability_radius,
    "spectrum": _verify_spectrum,
    "morse-index": _verify_morse_index,
    "monotonicity": _verify_monotonicity,
    "boundary-bound": _verify_boundary_bound,
    "riccati": _verify_riccati,
}


def cli_step(ctx: Context, label: str, argv, expect_code: int, verify=None):
    """One CLI child as a check: exit code, references, and stdout bytes
    identical to this step's first run."""
    first = ctx.state.setdefault("stdout", {})

    def check():
        with ctx.tracer.span(f"cli.{label}") as extra:
            run = run_child([sys.executable, "-m", "schwsurf.cli", *argv], ctx.env, ctx.root)
            mismatch = label in first and run.stdout != first[label]
            extra.update(bytes=len(run.stdout), mismatch=int(mismatch))
        first.setdefault(label, run.stdout)
        require(
            run.code == expect_code,
            f"exit code {run.code}, expected {expect_code}: {run.stderr.decode(errors='replace')[-300:]}",
        )
        require(not mismatch, "stdout differs from the first run")
        if verify is not None:
            verify(run.stdout, ctx.state["refs"])

    return check


def checks_cli(inp: dict, ctx: Context) -> list:
    ctx.state["refs"] = _cli_references()
    out = [(f"cli.{name}", cli_step(ctx, name, argv, 0, VERIFY[name])) for name, argv in inp["steps"].items()]
    out.append(("cli.usage_error", cli_step(ctx, "usage_error", inp["usage_error"], 2)))
    return out


def startup_cli(inp: dict, ctx: Context) -> list:
    """Bare interpreter and import-only children, timed in traced runs."""

    def child(label, code):
        def run():
            with ctx.tracer.span(f"cli.{label}"):
                res = run_child([sys.executable, "-c", code], ctx.env, ctx.root)
            require(res.code == 0, f"{label} child exited {res.code}")

        return run

    return [("startup.python", child("python", "pass")), ("startup.import", child("import", "import schwsurf.cli"))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("index-sweep", "schwsurf", build_index_sweep, checks_index_sweep),
        Workload("mode-profiles", "schwsurf", build_mode_profiles, checks_mode_profiles),
        Workload("surfaces", "schwsurf", build_surfaces, checks_surfaces),
        Workload("cli", "schwsurf.cli", build_cli, checks_cli, startup_cli),
    )
}
