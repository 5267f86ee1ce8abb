"""The package's frozen records against ``dataclasses`` as the reference.

Every record type gets a ``dataclass(frozen=True)`` twin here, built
from the same field names and defaults.  The record and its twin must
print the same ``repr``, agree on ``==`` and ``hash``, refuse assignment
and deletion alike, and construct the same way by position, by keyword
and from defaults.  The validating records keep their checks and their
coercion.
"""

import ast
import dataclasses
import functools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schwsurf
from schwsurf import DomainError, SchwarzschildModel
from schwsurf.fd_oracle import DiscreteModeProblem
from schwsurf.mode_odes import ModeParams
from schwsurf.ode import Trajectory
from schwsurf.quadrature import QuadSpec
from schwsurf.spectral import IndexReport, Spectrum, SpectrumEntry
from schwsurf.surfaces import (
    BoundaryBoundReport,
    DensityReport,
    MonotonicityReport,
    ParamSurface,
    SphereCurve,
)

# hashable values without NaN, whose == is the same field by field and
# tuple-wise (dataclasses compares fields one by one from Python 3.13)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.tuples(st.integers(-3, 3), st.floats(-1.0, 1.0)),
)
MASSES = st.floats(0.0, 1e6)
MODELS = st.builds(SchwarzschildModel, st.floats(0.1, 10.0))


def _mode_params(model, k, lam, stretch):
    return (model, k, lam, model.horizon_rho * (1.0 + stretch))


# each record: its fields in order, the strategy of one tuple of field
# values, its defaults and the fields its repr hides
RECORDS = {
    SchwarzschildModel: (("mass",), st.tuples(MASSES), {}, ()),
    ModeParams: (
        ("model", "k", "lam", "R"),
        st.builds(_mode_params, MODELS, st.integers(-6, 6), st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
        {},
        (),
    ),
    QuadSpec: (("rel_tol",), st.tuples(st.floats(1e-300, 1e300)), {"rel_tol": 1e-8}, ()),
    Trajectory: (("coefficients", "tol", "x", "theta", "log_rho", "stages", "rejected_steps"), None, {}, ()),
    SpectrumEntry: (("k", "n", "lam"), None, {}, ()),
    Spectrum: (("model", "R", "entries", "method", "probes"), None, {}, ()),
    IndexReport: (("model", "R", "kmax", "per_mode_negative_counts", "morse_index"), None, {}, ()),
    DiscreteModeProblem: (
        ("model", "k", "R", "n", "grid", "stiffness_diag", "stiffness_off", "mass_weights"),
        None,
        {},
        (),
    ),
    SphereCurve: (("alpha", "alpha_d", "alpha_dd", "period"), None, {}, ()),
    ParamSurface: (
        ("chart", "t_range", "s_period", "free_boundary", "chart_t", "chart_s", "curve"),
        None,
        {"curve": None},
        ("curve",),
    ),
    MonotonicityReport: (
        ("rhos", "mu_values", "ratios", "boundary_length", "monotone", "max_backstep", "formula_residuals"),
        None,
        {},
        (),
    ),
    DensityReport: (("theta", "rhos", "ratios", "converged", "note"), None, {}, ()),
    BoundaryBoundReport: (
        (
            "lhs",
            "rhs",
            "boundary_length",
            "equality_defect",
            "boundary_term",
            "defect_value",
            "defect_tail_bound",
            "bound_satisfied",
        ),
        None,
        {},
        (),
    ),
}


@functools.cache
def twin(cls):
    """The ``dataclass(frozen=True)`` with ``cls``'s name, fields and
    defaults, and no checks."""
    names, _, defaults, hidden = RECORDS[cls]
    specs = []
    for name in names:
        keywords = {"repr": name not in hidden}
        if name in defaults:
            keywords["default"] = defaults[name]
        specs.append((name, object, dataclasses.field(**keywords)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def field_values(cls):
    names, values, _, _ = RECORDS[cls]
    return values if values is not None else st.tuples(*[VALUES] * len(names))


def test_every_record_has_a_twin():
    assert len(RECORDS) == 13
    for cls in RECORDS:
        assert not dataclasses.is_dataclass(cls)
        assert twin(cls).__qualname__ == cls.__qualname__


def test_no_package_module_imports_dataclasses():
    imported = []
    for path in sorted(pathlib.Path(schwsurf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, a.name) for a in node.names if a.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                imported.append((path.name, node.module))
    assert imported == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_record_matches_its_dataclass_twin(cls, data):
    names = RECORDS[cls][0]
    values = data.draw(field_values(cls))
    other = data.draw(st.one_of(st.just(values), field_values(cls)))
    rec, ref = cls(*values), twin(cls)(*values)
    assert repr(rec) == repr(ref)
    assert hash(rec) == hash(ref)
    assert (rec == cls(*other)) == (ref == twin(cls)(*other))
    assert (rec != cls(*other)) == (ref != twin(cls)(*other))
    assert rec == cls(*values) and rec != ref
    assert cls(**dict(zip(names, values))) == rec
    assert tuple(getattr(rec, name) for name in names) == values
    for name in (*names, "not_a_field"):
        for target in (rec, ref):
            with pytest.raises(AttributeError):
                setattr(target, name, 0.0)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert tuple(getattr(rec, name) for name in names) == values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_errors_match_the_twin(cls):
    names, _, defaults, _ = RECORDS[cls]
    required = [name for name in names if name not in defaults]
    for make in (cls, twin(cls)):
        with pytest.raises(TypeError):
            make(*[0.5] * (len(names) + 1))
        with pytest.raises(TypeError):
            make(not_a_field=0.5)
        if required:
            with pytest.raises(TypeError):
                make(*[0.5] * (len(required) - 1))
            with pytest.raises(TypeError):
                make(0.5, **{required[0]: 0.5})


def test_defaults_match_the_twin():
    assert repr(QuadSpec()) == repr(twin(QuadSpec)()) == "QuadSpec(rel_tol=1e-08)"
    assert QuadSpec() == QuadSpec(1e-8) == QuadSpec(rel_tol=1e-8)
    assert QuadSpec.rel_tol == 1e-8
    values = ("chart", (0.0, 1.0), 2.0 * math.pi, True, "chart_t", "chart_s")
    surface = ParamSurface(*values)
    assert surface.curve is None and not surface.is_cone
    assert repr(surface) == repr(twin(ParamSurface)(*values))
    cone = ParamSurface(*values, curve="curve")
    assert repr(cone) == repr(surface) and cone != surface and cone.is_cone


def test_records_of_two_types_differ():
    """Equal field tuples make equal records only within one type."""
    assert SchwarzschildModel(1e-8) != QuadSpec(1e-8)
    assert twin(SchwarzschildModel)(1e-8) != twin(QuadSpec)(1e-8)
    assert SpectrumEntry(1, 2, 0.5) != (1, 2, 0.5)


def test_mode_params_coerces_a_numpy_lam():
    params = ModeParams(SchwarzschildModel(2.0), 1, np.float64(-0.25), 40.0)
    assert type(params.lam) is float and params.lam == -0.25
    assert repr(params) == "ModeParams(model=SchwarzschildModel(mass=2.0), k=1, lam=-0.25, R=40.0)"


def test_validating_records_still_raise():
    with pytest.raises(DomainError):
        SchwarzschildModel(-1.0)
    with pytest.raises(DomainError):
        ModeParams(SchwarzschildModel(2.0), 1.5, 0.0, 40.0)
    with pytest.raises(DomainError):
        ModeParams(SchwarzschildModel(2.0), 1, math.nan, 40.0)
    with pytest.raises(ValueError, match=r"^invalid quadrature spec QuadSpec\(rel_tol=0\)$"):
        QuadSpec(rel_tol=0)


def test_trajectory_cached_property():
    traj = Trajectory(None, 1e-8, [0.0, 1.0], [0.0, 0.5], [0.0, 0.0], [(0.0,) * 8], 0)
    first = traj._dense
    assert first == [None] and traj._dense is first and traj.__dict__["_dense"] is first
    assert traj.radau_steps == 1 and traj.dop853_steps == 0
