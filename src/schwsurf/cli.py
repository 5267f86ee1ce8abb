"""Command-line front end: every verification as a reproducible command.

Text outputs are CSV (comma separator, 17 significant digits, LF
endings) or JSON carrying the same numbers plus a provenance header with
the package version and the one tolerance the subcommand reads.  Exit
codes: 0 success, 2 usage or configuration error, 3 numerical failure
(diagnostics on stderr).  Every subcommand is registered through
:func:`command`, which carries the shared flags, that tolerance flag, the
config merge and that exit-code mapping.

Only ``spectrum --method fd|both`` imports scipy (for the FD oracle's
LAPACK solver, on its first solve); every other subcommand starts
without it.

Eigenvalues are reported in mass-squared units throughout; radius flags
(``--R``, ``--rho-max``, ``--r-max``) are raw lengths in the same units
as the mass.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click
import numpy as np

from . import __version__, fd_oracle, spectral, surfaces
from .errors import NUMERICAL_ERRORS, DomainError, PreconditionError
from .geometry import (
    DEFAULT_ROOT_TOL,
    SchwarzschildModel,
    areal_from_distance,
    distance_from_areal,
    isotropic_from_areal,
    static_potential,
)
from .mode_odes import DEFAULT_ODE_TOL, psi_c, singularity_radius
from .quadrature import QuadSpec

_MONO_GRID_SIZE = 40

# the tolerance flags by name, each defaulting to the library constant
_TOLERANCE_FLAGS = {
    "ode_tol": click.option("--ode-tol", type=float, default=DEFAULT_ODE_TOL, show_default=True, help="Shooting integrator tolerance."),
    "root_tol": click.option("--root-tol", type=float, default=DEFAULT_ROOT_TOL, show_default=True, help="Root-finding residual tolerance."),
    "quad_tol": click.option("--quad-tol", type=float, default=QuadSpec.rel_tol, show_default=True, help="Quadrature relative tolerance."),
}


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _emit(config, rows, header, scalars=None, payload_key="rows"):
    """Write one report: CSV rows in table mode, a keyed object in JSON.

    ``scalars`` are constant summary values; in CSV they repeat as extra
    trailing columns so the file stays rectangular.
    """
    scalars = scalars or {}
    if config["output"] == "json":
        doc = {
            "tool": "schwsurf",
            "version": __version__,
            "mass": config["mass"],
            "tolerances": {key: config[key] for key in _TOLERANCE_FLAGS if key in config},
        }
        doc.update(scalars)
        if rows is not None:
            doc[payload_key] = [
                {name: row[i] for i, name in enumerate(header)} for row in rows
            ]
        text = json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    else:
        lines = []
        cols = list(header) + list(scalars.keys())
        lines.append(",".join(cols))
        if rows is None:
            lines.append(",".join(_fmt(v) for v in scalars.values()))
        else:
            for row in rows:
                vals = [_fmt(v) for v in row] + [_fmt(v) for v in scalars.values()]
                lines.append(",".join(vals))
        text = "\n".join(lines) + "\n"

    if config["out"] is not None:
        with open(config["out"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise click.UsageError(
                        f"config line {ln} is not key=value: {line!r}"
                    )
                key, _, val = line.partition("=")
                out[key.strip()] = val.strip()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    return out


def _resolve_config(kwargs, tol: str) -> dict:
    """Merge the config file (if any), keyed by the subcommand's flags,
    under those flags; a file value is converted and checked by its flag."""
    ctx = click.get_current_context()
    cfg = {key: kwargs.pop(key) for key in ("mass", tol, "output", "out")}
    path = kwargs.pop("config")
    if path is not None:
        params = {p.name: p for p in ctx.command.params}
        for key, raw in _read_config_file(path).items():
            if key not in cfg:
                raise click.UsageError(f"unknown config key {key!r} in {path}")
            if ctx.get_parameter_source(key) == click.core.ParameterSource.DEFAULT:
                try:
                    cfg[key] = params[key].type.convert(raw, params[key], ctx)
                except click.BadParameter as exc:
                    raise click.UsageError(f"config value for {key!r}: {exc.message}")
    if cfg["mass"] < 0.0:
        raise click.UsageError(f"mass must be nonnegative, got {cfg['mass']}")
    if not (0.0 < cfg[tol] < math.inf):
        raise click.UsageError(f"{tol} must be positive and finite, got {cfg[tol]}")
    return cfg


def command(name: str, tol: str):
    """Register ``fn`` as the subcommand ``name``, called as
    ``fn(config, model, **own_options)``.

    Adds the shared flags and the flag of the tolerance ``tol`` (a key of
    ``_TOLERANCE_FLAGS``), and merges the config file under them.  Bad
    parameter values (the mass included) are usage errors (exit 2);
    solver failures are numerical errors (exit 3) with stderr diagnostics.
    """

    def register(fn):
        @main.command(name)
        @click.option("--mass", type=float, default=1.0, show_default=True, help="ADM mass m.")
        @_TOLERANCE_FLAGS[tol]
        @click.option("--output", type=click.Choice(["table", "json"]), default="table", show_default=True, help="Output format.")
        @click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None, help="Write output to this file instead of stdout.")
        @click.option("--config", type=click.Path(exists=False), default=None, help="key=value file merged under the flags.")
        @functools.wraps(fn)
        def run(**kwargs):
            config = _resolve_config(kwargs, tol)
            try:
                return fn(config, SchwarzschildModel(config["mass"]), **kwargs)
            except (DomainError, PreconditionError) as exc:
                raise click.UsageError(str(exc))
            except NUMERICAL_ERRORS as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(3)

        return run

    return register


def _surface(model: SchwarzschildModel, spec_text: str, rho_max: float, claim: str):
    """Mini-grammar: plane | plane:rotated:<seed> | cone:<theta0>, built out
    to the chart length the integrals up to ``rho_max`` need.

    A cone off the equator is not minimal: stderr gets a warning that ends
    in ``claim``."""
    t_max = 2.0 * surfaces.clip_radius(model, rho_max)
    parts = spec_text.split(":")
    if parts[0] == "plane":
        if len(parts) == 1:
            return surfaces.make_plane(model, t_max)
        if len(parts) == 3 and parts[1] == "rotated":
            try:
                rot_seed = int(parts[2])
            except ValueError:
                raise click.UsageError(f"bad rotation seed in {spec_text!r}")
            rot = surfaces.random_rotation(rot_seed)
            return surfaces.make_plane(model, t_max, rotation=rot)
        raise click.UsageError(f"bad surface spec {spec_text!r}")
    if parts[0] == "cone" and len(parts) == 2:
        try:
            theta0 = float(parts[1])
        except ValueError:
            raise click.UsageError(f"bad colatitude in {spec_text!r}")
        if not (0.0 < theta0 < math.pi):
            raise click.UsageError(f"colatitude must be in (0, pi), got {theta0}")
        cone = surfaces.make_cone(model, surfaces.latitude_circle(theta0), t_max)
        if abs(theta0 - 0.5 * math.pi) >= 1e-15:
            click.echo(f"warning: surface {spec_text!r} is not minimal; {claim}", err=True)
        return cone
    raise click.UsageError(
        f"unknown surface spec {spec_text!r}; use plane, plane:rotated:<seed>, cone:<theta0>"
    )


@click.group()
@click.version_option(version=__version__, prog_name="schwsurf")
def main():
    """Desk-scale numerical checks for minimal surfaces outside a horizon."""


@command("geom", "root_tol")
@click.option("--r-max", type=float, default=1e4, show_default=True, help="Largest horizon distance in the grid.")
@click.option("--n", "n_rows", type=int, default=65, show_default=True, help="Number of grid rows.")
def geom(config, model, r_max, n_rows):
    """Coordinate table: isotropic radius, areal radius, distance, potential."""
    if not (0.0 < r_max < math.inf) or n_rows < 2:
        raise click.UsageError("need a finite --r-max > 0 and --n >= 2")
    m = model.mass
    lo = 0.01 * m if m > 0.0 else r_max * 1e-4
    grid = np.concatenate([[0.0], np.geomspace(lo, r_max, n_rows - 1)])
    rows = []
    for r in grid:
        s = areal_from_distance(model, r, tol=config["root_tol"])
        rows.append(
            (
                isotropic_from_areal(model, s),
                s,
                r,
                s,
                static_potential(model, r, tol=config["root_tol"]),
            )
        )
    _emit(config, rows, ("rho_iso", "s", "r", "h", "f"))


@command("stability-radius", "root_tol")
def stability_radius_cmd(config, model):
    """Largest radius of a stable truncated plane, with the equation residual."""
    m = model.mass
    R = spectral.stability_radius(model, tol=config["root_tol"])
    residual = 0.5 * math.log(2.0 * R / m) - (2.0 * R + m) / (2.0 * R - m)
    _emit(
        config,
        None,
        (),
        scalars={"mass": m, "R_star": R, "ratio": R / m, "residual": residual},
    )


@command("spectrum", "ode_tol")
@click.option("--k", type=int, default=0, show_default=True, help="Fourier mode number.")
@click.option("--R", "radius", type=float, required=True, help="Truncation radius (isotropic).")
@click.option("--count", type=int, default=1, show_default=True, help="How many eigenvalues.")
@click.option("--method", type=click.Choice(["shooting", "fd", "both"]), default="shooting", show_default=True)
def spectrum(config, model, k, radius, count, method):
    """Lowest eigenvalues of one truncated mode, in mass-squared units."""
    scalars = {"R": radius, "method": method}
    if method in ("shooting", "both"):
        shoot = spectral.eigenvalues_shooting(
            model, k, radius, count, ode_tol=config["ode_tol"]
        )
    if method in ("fd", "both"):
        fd_vals = fd_oracle.richardson_lowest(model, k, radius, 1024, count)
    if method == "shooting":
        rows = [(e.k, e.n, e.lam) for e in shoot.entries]
        _emit(config, rows, ("k", "n", "lambda"), scalars, payload_key="entries")
    elif method == "fd":
        rows = [(k, i + 1, v) for i, v in enumerate(fd_vals)]
        _emit(config, rows, ("k", "n", "lambda"), scalars, payload_key="entries")
    else:
        rows = []
        for e, v in zip(shoot.entries, fd_vals):
            denom = max(abs(e.lam), abs(v), 1e-300)
            rows.append((e.k, e.n, e.lam, float(v), abs(e.lam - v) / denom))
        _emit(
            config,
            rows,
            ("k", "n", "lambda_shooting", "lambda_fd", "rel_diff"),
            scalars,
            payload_key="entries",
        )


@command("morse-index", "ode_tol")
@click.option("--R", "radius", type=float, required=True, help="Truncation radius (isotropic).")
@click.option("--kmax", type=int, default=5, show_default=True, help="Largest Fourier mode swept.")
def morse_index_cmd(config, model, radius, kmax):
    """Morse index of the truncated plane: per-mode counts and the sum."""
    rep = spectral.morse_index(model, R=radius, kmax=kmax, ode_tol=config["ode_tol"])
    rows = [(k, c) for k, c in rep.per_mode_negative_counts.items()]
    _emit(
        config,
        rows,
        ("k", "negative_count"),
        {"R": radius, "kmax": kmax, "morse_index": rep.morse_index},
        payload_key="per_mode",
    )


@command("monotonicity", "quad_tol")
@click.option("--surface", "surface_spec", type=str, default="plane", show_default=True, help="plane | plane:rotated:<seed> | cone:<theta0>.")
@click.option("--rho-max", type=float, default=None, help="Largest horizon distance [default: 100 mass].")
def monotonicity(config, model, surface_spec, rho_max):
    """Weighted-area ratio trace over a log-spaced grid of ball radii."""
    m = model.mass
    if rho_max is None:
        rho_max = 100.0 * m if m > 0.0 else 100.0
    if rho_max <= 0.0:
        raise click.UsageError(f"--rho-max must be > 0, got {rho_max}")
    spec = QuadSpec(rel_tol=config["quad_tol"])
    surface = _surface(model, surface_spec, rho_max, "the monotonicity identity is not expected to hold")
    lo = 0.1 * m if m > 0.0 else rho_max * 1e-3
    grid = np.geomspace(lo, rho_max, _MONO_GRID_SIZE)
    rep = surfaces.monotonicity_report(model, surface, grid, spec)
    rows = []
    for i, rho in enumerate(rep.rhos):
        resid = float(rep.formula_residuals[i - 1]) if i > 0 else None
        rows.append((float(rho), float(rep.mu_values[i]), float(rep.ratios[i]), resid))
    _emit(
        config,
        rows,
        ("rho", "mu", "ratio", "pair_residual"),
        {
            "surface": surface_spec,
            "boundary_length": rep.boundary_length,
            "monotone": rep.monotone,
            "max_backstep": rep.max_backstep,
        },
    )


@command("boundary-bound", "quad_tol")
@click.option("--surface", "surface_spec", type=str, default="plane", show_default=True, help="plane | plane:rotated:<seed> | cone:<theta0>.")
@click.option("--rho-max", type=float, default=None, help="Truncation distance for the tail [default: 500 mass].")
def boundary_bound(config, model, surface_spec, rho_max):
    """Boundary length against density at infinity, with the defect split."""
    m = model.mass
    if rho_max is None:
        rho_max = 500.0 * m if m > 0.0 else 500.0
    spec = QuadSpec(rel_tol=config["quad_tol"])
    surface = _surface(model, surface_spec, rho_max, "the boundary-length bound applies to minimal surfaces")
    rep = surfaces.boundary_bound_check(model, surface, rho_max, spec)
    blen = surfaces.boundary_length(model, surface)
    _emit(
        config,
        None,
        (),
        {
            "surface": surface_spec,
            "boundary_len": blen,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "equality_defect": rep.equality_defect,
            "boundary_term": rep.boundary_term,
            "defect_integral": rep.defect_value,
            "defect_tail_bound": rep.defect_tail_bound,
            "bound_satisfied": rep.bound_satisfied,
        },
    )


@command("riccati", "root_tol")
@click.option("--c", "c_value", type=float, required=True, help="Integration constant of the comparison solution.")
@click.option("--n", "n_rows", type=int, default=65, show_default=True, help="Trace rows.")
def riccati(config, model, c_value, n_rows):
    """Comparison-solution trace and its blow-up radius."""
    m = model.mass
    if n_rows < 2:
        raise click.UsageError("need --n >= 2")
    R_c = singularity_radius(model, c_value, tol=config["root_tol"])
    grid = np.linspace(0.5 * m, 0.98 * R_c, n_rows)
    rows = [(r, psi_c(model, c_value, r)) for r in grid]
    _emit(
        config,
        rows,
        ("r", "psi"),
        {"c": c_value, "R_c": R_c},
        payload_key="trace",
    )


if __name__ == "__main__":
    main()
