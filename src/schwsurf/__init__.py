"""Numerical checks for free-boundary minimal surfaces outside a horizon.

The package verifies, at desk scale, a family of statements about the
totally geodesic plane through the center of the conformally flat
static black-hole slice: its Morse index, the largest radius of
stability, the monotone weighted-area ratio, and the boundary-length
bound with its equality case.  Two independent solver routes (adaptive
shooting and a finite-difference eigensolver) cross-check each other,
and closed-form solutions anchor both.

The names below are imported from their modules on first use (PEP 562),
so ``import schwsurf`` loads none of the solver modules and no numpy.
"""

import importlib

__version__ = "0.1.0"

# exported names by the module that defines them
_EXPORTS = {
    "errors": (
        "DomainError",
        "GeometryError",
        "IntegrationError",
        "NoSingularityError",
        "PreconditionError",
        "QuadratureError",
        "SearchError",
        "SingularityError",
    ),
    "geometry": (
        "SchwarzschildModel",
        "areal_from_distance",
        "areal_from_isotropic",
        "asymptotic_defect",
        "conformal_exponent",
        "distance_from_areal",
        "distance_from_isotropic",
        "isotropic_from_areal",
        "isotropic_from_distance",
        "static_potential",
        "static_potential_from_isotropic",
    ),
    "mode_odes": (
        "ModeParams",
        "RadialSolution",
        "barrier_envelope",
        "barrier_psi_k",
        "cbar",
        "closed_form_v0",
        "closed_form_v1",
        "integrate_v",
        "log_barrier_envelope",
        "psi_c",
        "singularity_radius",
        "v_coefficient",
    ),
    "ode": (),
    "quadrature": ("QuadSpec",),
    "roots": (),
    "spectral": (
        "IndexReport",
        "Spectrum",
        "SpectrumEntry",
        "eigenfunction",
        "eigenvalues_shooting",
        "morse_index",
        "negative_count",
        "rayleigh_quotient",
        "stability_radius",
    ),
    "fd_oracle": (
        "DiscreteModeProblem",
        "assemble",
        "lowest_eigenvalues",
        "negative_count_fd",
        "richardson_lowest",
    ),
    "surfaces": (
        "BoundaryBoundReport",
        "DensityReport",
        "MonotonicityReport",
        "ParamSurface",
        "SphereCurve",
        "boundary_bound_check",
        "boundary_length",
        "cone_mean_curvature",
        "defect_integral",
        "density_at_infinity",
        "formula_residual",
        "great_circle",
        "latitude_circle",
        "make_cone",
        "make_general",
        "make_plane",
        "monotonicity_report",
        "mu_integral",
        "area_integral",
        "radial_normal_component",
        "random_rotation",
        "rotate_curve",
        "rotate_surface",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
