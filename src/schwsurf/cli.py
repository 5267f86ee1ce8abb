"""Command-line front end: every verification as a reproducible command.

Text outputs are CSV (comma separator, 17 significant digits, LF
endings) or JSON carrying the same numbers plus a provenance header with
the package version and the one tolerance the subcommand reads.  Exit
codes: 0 success, 2 usage error, 3 numerical failure (diagnostics on
stderr).  Every subcommand is registered through :func:`command`, which
carries the shared flags, that tolerance flag and that exit-code mapping.
Reports go to stdout.

The parser is the standard library's ``argparse``, built with
``allow_abbrev=False`` so that a flag is taken only by its full name.
Before parsing, each flag that takes a value is joined to the token after
it (``--c -1e6`` is read as ``--c=-1e6``), so that a value beginning with
``-`` is a value and not an option string.

A subcommand loads only the modules it calls.  This module imports only
``errors`` and ``geometry`` at module level: every subcommand uses them,
and ``geometry`` holds the tolerance defaults.  Each subcommand imports
the solver modules it calls.  Every subcommand but ``geom`` needs
nothing beyond the standard library: the shooting solvers, the FD
oracle's 1024- and 2048-cell solves of ``spectrum --method fd|both``, the
cone integrals and the surface reports run on plain floats
(``monotonicity`` builds its grid with :func:`_geomspace`).  Only
``geom`` loads numpy, for its grid, which is ``np.geomspace``'s to the
bit.  No subcommand loads scipy.

Eigenvalues are reported in mass-squared units throughout; radius flags
(``--R``, ``--rho-max``, ``--r-max``) are raw lengths in the same units
as the mass.
"""

from __future__ import annotations

import argparse
import math
import numbers
import sys

from . import __version__
from .errors import NUMERICAL_ERRORS, DomainError, PreconditionError
from .geometry import (
    DEFAULT_ODE_TOL,
    DEFAULT_QUAD_TOL,
    DEFAULT_ROOT_TOL,
    SchwarzschildModel,
    areal_from_isotropic,
    isotropic_from_distance,
    static_potential,
)

_MONO_GRID_SIZE = 40
# caps on the size flags, each in its --help: a larger value is a usage
# error, found before anything of that size is built
_MAX_ROWS = 100_000  # --n of geom and riccati
_MAX_COUNT = 1000  # --count of spectrum
_MAX_KMAX = 1000  # --kmax of morse-index

# the tolerance flags by name: flag, default (the library constant), help
_TOLERANCE_FLAGS = {
    "ode_tol": ("--ode-tol", DEFAULT_ODE_TOL, "Shooting integrator tolerance"),
    "root_tol": ("--root-tol", DEFAULT_ROOT_TOL, "Root-finding residual tolerance"),
    "quad_tol": ("--quad-tol", DEFAULT_QUAD_TOL, "Quadrature relative tolerance"),
}

_PARSER = argparse.ArgumentParser(
    prog="schwsurf",
    description="Desk-scale numerical checks for minimal surfaces outside a horizon.",
    allow_abbrev=False,
)
_PARSER.add_argument("--version", action="version", version=f"schwsurf, version {__version__}")
_SUBCOMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True)
# every flag of every subcommand takes one value
_VALUE_FLAGS = set()


class UsageError(Exception):
    """A flag value the subcommand cannot use (exit 2)."""


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def _at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise UsageError(f"{flag} must be <= {cap}, got {value}")


def _linspace(start: float, stop: float, n: int) -> list:
    """The ``n >= 2`` nodes of ``np.linspace(start, stop, n)``, to the bit:
    ``start + i step``, the last one ``stop``."""
    step = (stop - start) / (n - 1)
    return [start + i * step for i in range(n - 1)] + [stop]


def _geomspace(start: float, stop: float, n: int) -> list:
    """``n >= 2`` nodes from ``start`` to ``stop > start > 0``, equally
    spaced in ``log``: the grid of ``np.geomspace`` up to rounding, with
    both ends exact."""
    a = math.log(start)
    step = (math.log(stop) - a) / (n - 1)
    return [start] + [math.exp(a + i * step) for i in range(1, n - 1)] + [stop]


def _emit(config, rows, header, scalars=None, payload_key="rows"):
    """Write one report to stdout: CSV rows in table mode, a keyed object
    in JSON.

    ``scalars`` are constant summary values; in CSV they repeat as extra
    trailing columns so the table stays rectangular.
    """
    scalars = scalars or {}
    if config["output"] == "json":
        import json

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
    sys.stdout.write(text)


def option(flag: str, **kwargs) -> tuple:
    """One flag of a subcommand: ``flag`` with its ``add_argument`` keywords."""
    return flag, kwargs


def command(name: str, tol: str, *options):
    """Register ``fn`` as the subcommand ``name``, called as
    ``fn(config, model, **own_options)``; ``options`` are its own flags,
    each an :func:`option`.

    Adds the shared flags and the flag of the tolerance ``tol`` (a key of
    ``_TOLERANCE_FLAGS``); ``config`` holds their values.  Bad parameter
    values (the mass included) are usage errors (exit 2); solver failures
    are numerical errors (exit 3) with stderr diagnostics.
    """

    def register(fn):
        sub = _SUBCOMMANDS.add_parser(name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        tol_flag, tol_default, tol_help = _TOLERANCE_FLAGS[tol]
        shared = (
            option("--mass", type=float, default=1.0, help="ADM mass m (default: %(default)s)."),
            option(tol_flag, dest=tol, type=float, default=tol_default, help=tol_help + " (default: %(default)s)."),
            option("--output", choices=("table", "json"), default="table", help="Output format (default: %(default)s)."),
        )
        for flag, kwargs in shared + options:
            sub.add_argument(flag, **kwargs)
            _VALUE_FLAGS.add(flag)

        def run(args: dict) -> int:
            config = {key: args.pop(key) for key in ("mass", tol, "output")}
            try:
                if config["mass"] < 0.0:
                    raise UsageError(f"mass must be nonnegative, got {config['mass']}")
                if not (0.0 < config[tol] < math.inf):
                    raise UsageError(f"{tol} must be positive and finite, got {config[tol]}")
                fn(config, SchwarzschildModel(config["mass"]), **args)
            except (UsageError, DomainError, PreconditionError) as exc:
                sub.error(str(exc))
            except NUMERICAL_ERRORS as exc:
                print(f"numerical failure: {exc}", file=sys.stderr)
                return 3
            return 0

        sub.set_defaults(run=run)
        return fn

    return register


def _attach_values(argv) -> list:
    """``argv`` with each value flag joined to the token after it, as
    ``--flag=value``: argparse reads a separate ``-1e6``, ``-1e-3`` or
    ``-inf`` as an option string, and a joined value as the flag's value,
    whatever it begins with."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    """Run the subcommand that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit code; usage errors exit 2 from the parser."""
    args = vars(_PARSER.parse_args(_attach_values(sys.argv[1:] if argv is None else argv)))
    return args.pop("run")(args)


def _surface(model: SchwarzschildModel, spec_text: str, rho_max: float, claim: str):
    """Mini-grammar: plane | plane:rotated:<seed> | cone:<theta0>, built out
    to the chart length ``2 clip_radius(rho_max)`` the integrals up to
    ``rho_max`` need; a ``--rho-max`` for which that length is not finite
    and positive is a usage error.

    A cone off the equator is not minimal: stderr gets a warning that ends
    in ``claim``."""
    from . import surfaces

    t_max = 2.0 * surfaces.clip_radius(model, rho_max) if 0.0 < rho_max < math.inf else math.nan
    if not t_max < math.inf:
        raise UsageError(f"--rho-max must be > 0 and give a finite chart length, got {rho_max}")
    parts = spec_text.split(":")
    if parts[0] == "plane":
        if len(parts) == 1:
            return surfaces.make_plane(model, t_max)
        if len(parts) == 3 and parts[1] == "rotated":
            try:
                rot_seed = int(parts[2])
            except ValueError:
                raise UsageError(f"bad rotation seed in {spec_text!r}")
            rot = surfaces.random_rotation(rot_seed)
            return surfaces.make_plane(model, t_max, rotation=rot)
        raise UsageError(f"bad surface spec {spec_text!r}")
    if parts[0] == "cone" and len(parts) == 2:
        try:
            theta0 = float(parts[1])
        except ValueError:
            raise UsageError(f"bad colatitude in {spec_text!r}")
        if not (0.0 < theta0 < math.pi):
            raise UsageError(f"colatitude must be in (0, pi), got {theta0}")
        cone = surfaces.make_cone(model, surfaces.latitude_circle(theta0), t_max)
        if abs(theta0 - 0.5 * math.pi) >= 1e-15:
            print(f"warning: surface {spec_text!r} is not minimal; {claim}", file=sys.stderr)
        return cone
    raise UsageError(
        f"unknown surface spec {spec_text!r}; use plane, plane:rotated:<seed>, cone:<theta0>"
    )


_SURFACE_HELP = "plane | plane:rotated:<seed> | cone:<theta0> (default: %(default)s)."


@command(
    "geom",
    "root_tol",
    option("--r-max", type=float, default=1e4, help="Largest horizon distance in the grid (default: %(default)s)."),
    option("--n", dest="n_rows", type=int, default=65, help=f"Number of grid rows, at most {_MAX_ROWS} (default: %(default)s)."),
)
def geom(config, model, r_max, n_rows):
    """Coordinate table: isotropic radius, areal radius, distance, potential."""
    import numpy as np

    if not (0.0 < r_max < math.inf) or n_rows < 2:
        raise UsageError("need a finite --r-max > 0 and --n >= 2")
    _at_most("--n", n_rows, _MAX_ROWS)
    m = model.mass
    lo = 0.01 * m if m > 0.0 else r_max * 1e-4
    if lo == 0.0:
        raise UsageError(
            f"the first row after the horizon, {'0.01 m' if m > 0.0 else '1e-4 --r-max'}, underflows to 0"
        )
    if not r_max > lo:
        raise UsageError(f"--r-max must be > 0.01 m = {lo}, the first row after the horizon, got {r_max}")
    # plain floats: numpy scalars would warn where a quotient overflows
    grid = [0.0, *np.geomspace(lo, r_max, n_rows - 1).tolist()]
    rows = []
    for r in grid:
        rho = isotropic_from_distance(model, r, tol=config["root_tol"])
        s = areal_from_isotropic(model, rho)
        rows.append((rho, s, r, s, static_potential(model, r, tol=config["root_tol"])))
    _emit(config, rows, ("rho_iso", "s", "r", "h", "f"))


@command("stability-radius", "root_tol")
def stability_radius_cmd(config, model):
    """Largest radius of a stable truncated plane, with the equation residual."""
    from . import spectral

    m = model.mass
    R = spectral.stability_radius(model, tol=config["root_tol"])
    _emit(
        config,
        None,
        (),
        scalars={"mass": m, "R_star": R, "ratio": R / m, "residual": spectral.stability_residual(model, R)},
    )


@command(
    "spectrum",
    "ode_tol",
    option("--k", type=int, default=0, help="Fourier mode number (default: %(default)s)."),
    option("--R", dest="radius", type=float, required=True, help="Truncation radius (isotropic)."),
    option("--count", type=int, default=1, help=f"How many eigenvalues, at most {_MAX_COUNT} (default: %(default)s)."),
    option("--method", choices=("shooting", "fd", "both"), default="shooting", help="Solver route (default: %(default)s)."),
)
def spectrum(config, model, k, radius, count, method):
    """Lowest eigenvalues of one truncated mode, in mass-squared units."""
    from . import spectral

    _at_most("--count", count, _MAX_COUNT)
    scalars = {"R": radius, "method": method}
    if method in ("shooting", "both"):
        shoot = spectral.eigenvalues_shooting(
            model, k, radius, count, ode_tol=config["ode_tol"]
        )
    if method in ("fd", "both"):
        from . import fd_oracle

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


@command(
    "morse-index",
    "ode_tol",
    option("--R", dest="radius", type=float, required=True, help="Truncation radius (isotropic)."),
    option("--kmax", type=int, default=5, help=f"Largest Fourier mode swept, at most {_MAX_KMAX} (default: %(default)s)."),
)
def morse_index_cmd(config, model, radius, kmax):
    """Morse index of the truncated plane: per-mode counts and the sum."""
    from . import spectral

    _at_most("--kmax", kmax, _MAX_KMAX)
    rep = spectral.morse_index(model, R=radius, kmax=kmax, ode_tol=config["ode_tol"])
    rows = [(k, c) for k, c in rep.per_mode_negative_counts.items()]
    _emit(
        config,
        rows,
        ("k", "negative_count"),
        {"R": radius, "kmax": kmax, "morse_index": rep.morse_index},
        payload_key="per_mode",
    )


@command(
    "monotonicity",
    "quad_tol",
    option("--surface", dest="surface_spec", default="plane", help=_SURFACE_HELP),
    option("--rho-max", type=float, default=None, help="Largest horizon distance (default: 100 mass)."),
)
def monotonicity(config, model, surface_spec, rho_max):
    """Weighted-area ratio trace over a log-spaced grid of ball radii."""
    from . import surfaces
    from .quadrature import QuadSpec

    m = model.mass
    if rho_max is None:
        rho_max = 100.0 * m if m > 0.0 else 100.0
    spec = QuadSpec(rel_tol=config["quad_tol"])
    surface = _surface(model, surface_spec, rho_max, "the monotonicity identity is not expected to hold")
    lo = 0.1 * m if m > 0.0 else rho_max * 1e-3
    if lo == 0.0:
        raise UsageError(f"the grid start, {'0.1 m' if m > 0.0 else '1e-3 --rho-max'}, underflows to 0")
    if not rho_max > lo:
        raise UsageError(f"--rho-max must be > 0.1 m = {lo}, where the grid starts, got {rho_max}")
    rep = surfaces.monotonicity_report(model, surface, _geomspace(lo, rho_max, _MONO_GRID_SIZE), spec)
    rows = []
    for i, rho in enumerate(rep.rhos):
        resid = rep.formula_residuals[i - 1] if i > 0 else None
        rows.append((rho, rep.mu_values[i], rep.ratios[i], resid))
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


@command(
    "boundary-bound",
    "quad_tol",
    option("--surface", dest="surface_spec", default="plane", help=_SURFACE_HELP),
    option("--rho-max", type=float, default=None, help="Truncation distance for the tail (default: 500 mass)."),
)
def boundary_bound(config, model, surface_spec, rho_max):
    """Boundary length against density at infinity, with the defect split."""
    from . import surfaces
    from .quadrature import QuadSpec

    m = model.mass
    if rho_max is None:
        rho_max = 500.0 * m if m > 0.0 else 500.0
    spec = QuadSpec(rel_tol=config["quad_tol"])
    surface = _surface(model, surface_spec, rho_max, "the boundary-length bound applies to minimal surfaces")
    if not rho_max > m:
        raise UsageError(f"--rho-max must be > m = {m} for a tail estimate, got {rho_max}")
    rep = surfaces.boundary_bound_check(model, surface, rho_max, spec)
    _emit(
        config,
        None,
        (),
        {
            "surface": surface_spec,
            "boundary_len": rep.boundary_length,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "equality_defect": rep.equality_defect,
            "boundary_term": rep.boundary_term,
            "defect_integral": rep.defect_value,
            "defect_tail_bound": rep.defect_tail_bound,
            "bound_satisfied": rep.bound_satisfied,
        },
    )


@command(
    "riccati",
    "root_tol",
    option("--c", dest="c_value", type=float, required=True, help="Integration constant of the comparison solution."),
    option("--n", dest="n_rows", type=int, default=65, help=f"Trace rows, at most {_MAX_ROWS} (default: %(default)s)."),
)
def riccati(config, model, c_value, n_rows):
    """Comparison-solution trace and its blow-up radius."""
    from .mode_odes import psi_c, singularity_radius

    m = model.mass
    if n_rows < 2:
        raise UsageError("need --n >= 2")
    _at_most("--n", n_rows, _MAX_ROWS)
    R_c = singularity_radius(model, c_value, tol=config["root_tol"])
    if 0.98 * R_c < 0.5 * m:
        raise UsageError(
            f"--c {c_value} puts R_c = {R_c} below m/1.96 = {m / 1.96}: the trace would end"
            " at 0.98 R_c, inside the horizon; take a smaller --c"
        )
    rows = [(r, psi_c(model, c_value, r)) for r in _linspace(0.5 * m, 0.98 * R_c, n_rows)]
    _emit(
        config,
        rows,
        ("r", "psi"),
        {"c": c_value, "R_c": R_c},
        payload_key="trace",
    )


if __name__ == "__main__":
    sys.exit(main())
