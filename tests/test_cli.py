"""Command-line interface: formats, determinism, exit codes.

In-process invocations call ``main`` through ``conftest.run_cli``;
exit-code and byte-determinism checks go through a real subprocess so
the mapping in the entry point is what is actually exercised.
"""

import json
import math
import subprocess
import sys
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schwsurf
from schwsurf import SchwarzschildModel
from schwsurf.mode_odes import singularity_radius
from conftest import R_STAR_M2, exact_radii, run_cli, stebz_lowest

F_AT_R1E4_M2 = 0.99979965105436941


def run_proc(*args):
    return subprocess.run(
        [sys.executable, "-m", "schwsurf.cli", *args], capture_output=True, text=True
    )


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ------------------------------------------------------------------- geom


def test_geom_table_reaches_far_field():
    result = run_cli("geom", "--mass", "2")
    assert result.exit_code == 0
    header, rows = parse_csv(result.stdout)
    assert header == ["rho_iso", "s", "r", "h", "f"]
    assert len(rows) == 65
    last = dict(zip(header, map(float, rows[-1])))
    assert last["r"] == 1e4
    assert last["f"] == pytest.approx(F_AT_R1E4_M2, rel=1e-12)
    assert last["h"] == last["s"]
    first = dict(zip(header, map(float, rows[0])))
    assert first["r"] == 0.0 and first["f"] == 0.0 and first["s"] == 4.0


def test_geom_rows_against_mpmath():
    """Every row within 1e-15 relative of the exact radii at its distance."""
    header, rows = parse_csv(run_cli("geom", "--mass", "2").stdout)
    assert [float(x) for x in rows[0]] == [1.0, 4.0, 0.0, 4.0, 0.0]
    for row in rows[1:]:
        got = dict(zip(header, map(float, row)))
        rho, s, f = exact_radii(2.0, got["r"])
        for key, want in (("rho_iso", rho), ("s", s), ("f", f)):
            assert abs(got[key] - want) <= 1e-15 * want, (got["r"], key)


@pytest.mark.parametrize(
    "argv",
    [
        "monotonicity --mass 2 --rho-max 9e153",
        "boundary-bound --mass 2 --rho-max 9e153",
        "monotonicity --mass 0 --rho-max 1e154",
    ],
)
def test_overflowing_cone_integral_is_a_numerical_failure(argv):
    """A cone integral whose product with the period overflows exits 3
    with one stderr line, where an inf or nan row used to pass."""
    result = run_cli(*argv.split())
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("numerical failure: cone integral ") and result.stderr.count("\n") == 1


def test_geom_root_tol_finer_than_doubles_is_a_numerical_failure():
    result = run_cli("geom", "--mass", "2", "--root-tol", "1e-20")
    assert result.exit_code == 3
    assert "numerical failure: no isotropic radius at distance" in result.stderr


def test_geom_json_provenance_header():
    result = run_cli("geom", "--mass", "2", "--n", "5", "--output", "json")
    doc = json.loads(result.stdout)
    assert doc["tool"] == "schwsurf"
    assert doc["version"] == schwsurf.__version__
    assert doc["mass"] == 2.0
    assert set(doc["tolerances"]) == {"root_tol"}
    assert set(doc) == {"tool", "version", "mass", "tolerances", "rows"}
    assert len(doc["rows"]) == 5
    assert doc["rows"][0]["rho_iso"] == 1.0


def test_geom_validation():
    assert run_cli("geom", "--mass", "2", "--n", "1").exit_code == 2
    assert run_cli("geom", "--mass", "-3").exit_code == 2
    assert run_cli("geom", "--mass", "2", "--output", "yaml").exit_code == 2
    # below the first row after the horizon, 0.01 m, the grid would descend
    result = run_cli("geom", "--mass", "2", "--r-max", "0.001")
    assert result.exit_code == 2
    assert "--r-max" in result.stderr


@pytest.mark.parametrize("argv", ["geom --mass 5e-324", "geom --mass 0 --r-max 5e-324"])
def test_geom_first_row_that_underflows_is_usage_error(argv):
    """0.01 m (or 1e-4 --r-max at m = 0) rounds to 0, where the geometric
    grid cannot start."""
    result = run_cli(*argv.split())
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith("underflows to 0")


def test_geom_at_a_subnormal_mass_runs_without_warning():
    """At m = 1e-320 the first rows are subnormal, and d / (m/2) in the
    distance overflows to inf: on the plain floats the rows are handed as,
    that saturates quietly (a numpy scalar warned, which this suite's
    filterwarnings turns into an error)."""
    result = run_cli("geom", "--mass", "1e-320", "--n", "5")
    assert result.exit_code == 0 and result.stderr == ""
    header, rows = parse_csv(result.stdout)
    assert header == ["rho_iso", "s", "r", "h", "f"] and len(rows) == 5
    assert rows[0][2:] == ["0", rows[0][1], "0"]  # the horizon row
    assert rows[-1] == ["10000", "10000", "10000", "10000", "1"]  # flat far out


@pytest.mark.parametrize(
    "command, flag, value, cap",
    [
        ("geom --mass 2", "--n", 2**31, 100_000),
        ("riccati --mass 2 --c 0", "--n", 2**31, 100_000),
        ("spectrum --mass 2 --R 40 --method both", "--count", 1001, 1000),
        ("morse-index --mass 2 --R 40", "--kmax", 2**31, 1000),
    ],
)
def test_size_flags_above_their_caps_are_usage_errors(command, flag, value, cap, monkeypatch):
    """A size flag above the cap its ``--help`` states exits 2 before
    anything of that size is built: the routines that would build it
    refuse to run."""
    import numpy as np

    from schwsurf import cli, fd_oracle, spectral

    def refuse(*args, **kwargs):
        raise AssertionError("called with a size above its cap")

    for owner, name in (
        (np, "geomspace"),
        (cli, "_linspace"),
        (spectral, "eigenvalues_shooting"),
        (spectral, "morse_index"),
        (fd_oracle, "richardson_lowest"),
    ):
        monkeypatch.setattr(owner, name, refuse)
    result = run_cli(*command.split(), flag, str(value))
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith(f"error: {flag} must be <= {cap}, got {value}")
    # argparse wraps the help to the terminal's width
    assert f"at most {cap}" in " ".join(run_cli(command.split()[0], "--help").stdout.split())


# -------------------------------------------------------------- stability


def test_stability_radius_fields():
    result = run_cli("stability-radius", "--mass", "2", "--output", "json")
    doc = json.loads(result.stdout)
    assert set(doc) >= {"mass", "R_star", "ratio", "residual"}
    assert doc["R_star"] == pytest.approx(R_STAR_M2, rel=1e-12)
    assert 5.50 <= doc["ratio"] <= 5.52
    assert abs(doc["residual"]) <= 1e-12


@pytest.mark.parametrize(
    "mass, R_star",
    [("1e307", 5.508e307), ("1e-320", None), ("1.7e308", None)],
)
def test_stability_radius_at_extreme_masses(mass, R_star):
    """R* is m X for the root X of the m = 1 equation: exact at m = 1e307,
    a numerical failure where m X overflows (1.7e308) or keeps too few
    digits to meet --root-tol (1e-320, a subnormal)."""
    result = run_cli("stability-radius", "--mass", mass)
    if R_star is None:
        assert result.exit_code == 3 and result.stdout == ""
        assert result.stderr.startswith("numerical failure: ") and result.stderr.count("\n") == 1
    else:
        assert result.exit_code == 0
        assert float(parse_csv(result.stdout)[1][0][1]) == pytest.approx(R_star, rel=1e-4)


# --------------------------------------------------------------- spectrum


_EXTREME_MASSES = ("1e-300", "1e-154", "1e-100", "1e100", "1e154", "1e200", "1e300")


@pytest.mark.parametrize("ratio", ["10", "1000"])
@pytest.mark.parametrize(
    "argv",
    ["spectrum --count 2", "spectrum --count 2 --method fd", "spectrum --count 2 --method both", "morse-index"],
)
def test_mode_commands_at_extreme_masses_print_the_unit_mass_numbers(argv, ratio):
    """Both routes solve the m = 1 problem on R/m, in mass-squared units:
    from m = 1e-300 to 1e300 each run exits 0 and prints the numbers of
    m = 1 at R = R/m within 1e-12 relative, and R itself raw.  (Tiny
    masses ended in a ZeroDivisionError, huge ones in an OverflowError or
    a step size underflow, and FD printed wrong values past |log10 m| of
    about 80.)"""
    unit = run_cli(*argv.split(), "--R", ratio)
    header, want = parse_csv(unit.stdout)
    column = header.index("R")
    for mass in _EXTREME_MASSES:
        R = float(ratio) * float(mass)
        result = run_cli(*argv.split(), "--mass", mass, "--R", repr(R))
        assert result.exit_code == 0 and result.stderr == "", (mass, result.stderr)
        got_header, got = parse_csv(result.stdout)
        assert got_header == header and len(got) == len(want)
        for row, ref in zip(got, want):
            assert float(row[column]) == R
            for i, (x, y) in enumerate(zip(row, ref)):
                if header[i] == "method":
                    assert x == y
                elif i != column:
                    assert float(x) == pytest.approx(float(y), rel=1e-12, abs=0.0), mass


@pytest.mark.parametrize(
    "argv",
    [
        "morse-index --mass 1e-154 --R 1.55e-6",
        "morse-index --mass 1e-300 --R 4.1e5 --kmax 1",
        "spectrum --mass 1e-300 --R 87352 --k 2 --method both",
        "spectrum --mass 1e-300 --R 1e-298 --method fd",
    ],
)
def test_mode_commands_at_tiny_masses_keep_the_exit_code_contract(argv):
    """Argv on which a random CLI fuzz ended in a ZeroDivisionError: each
    now succeeds, or fails as a numerical failure on one stderr line that
    names a raw radius (R/m of 4.1e305 and 8.7e304 outruns the m = 1
    shot)."""
    result = run_cli(*argv.split())
    assert result.exit_code in (0, 3), result.stderr
    if result.exit_code == 3:
        assert result.stderr.startswith("numerical failure: step size underflow at r = ")
        assert result.stderr.count("\n") == 1
        r = float(result.stderr.split("r = ")[1])
        assert 0.5e-300 <= r <= float(argv.split("--R ")[1].split()[0])
    else:
        assert "nan" not in result.stdout and "inf" not in result.stdout


@pytest.mark.parametrize("argv", ["morse-index --mass 1e-300 --R 4.1e5 --kmax 1", "morse-index --R 4.1e305 --kmax 1"])
def test_lambda_zero_sweeps_run_to_the_end_of_the_double_range(argv):
    """At lam = 0 the Prufer coefficients keep w = 0 where (r + m/2)^2
    overflows, so a Morse sweep at R/m = 4.1e305 finds index 1."""
    result = run_cli(*argv.split(), "--output", "json")
    assert result.exit_code == 0, result.stderr
    assert "nan" not in result.stdout and "inf" not in result.stdout
    doc = json.loads(result.stdout)
    assert doc["morse_index"] == 1
    assert {row["k"]: row["negative_count"] for row in doc["per_mode"]} == {-1: 0, 0: 1, 1: 0}


@pytest.mark.parametrize(
    "argv",
    [
        "monotonicity --mass 5e-324 --surface cone:87.3",
        "boundary-bound --mass 5e-324",
        "riccati --mass 5e-324 --c 0",
        "monotonicity --mass 1e-323",
        "monotonicity --mass 0 --rho-max 5e-324",
    ],
)
def test_surface_commands_at_subnormal_masses_are_usage_errors(argv):
    """A positive mass whose half underflows has no horizon radius, and a
    monotonicity grid cannot start at 0.1 m (or 1e-3 --rho-max) where that
    underflows: exit 2, as for geom's first row, not a traceback."""
    result = run_cli(*argv.split())
    assert result.exit_code == 2 and result.stdout == ""
    assert result.stderr.splitlines()[-1].endswith("underflows to 0")


@pytest.mark.parametrize("mass", ["1e-300", "1e-320"])
def test_riccati_trace_whose_parts_underflow_is_a_numerical_failure(mass):
    """Near the horizon at m = 1e-300 both parts of the plain quotient
    underflowed to 0 (exit 3); in q = m/r they are of order one, and the
    horizon row is within 1e-12 of 50 digits.  At m = 1e-320, psi at the
    horizon (about 1e323) is past the double range: exit 3 on one line,
    not a ZeroDivisionError."""
    result = run_cli("riccati", "--mass", mass, "--c", "0", "--output", "json")
    if mass == "1e-320":
        assert result.exit_code == 3 and result.stdout == ""
        assert result.stderr.startswith("numerical failure: ") and result.stderr.count("\n") == 1
        return
    assert result.exit_code == 0, result.stderr
    row = json.loads(result.stdout)["trace"][0]
    assert row["r"] == 5e-301
    with mpmath.workdps(50):
        m, r = mpmath.mpf(1e-300), mpmath.mpf(row["r"])
        A = 4 * mpmath.log(r) + 8
        ref = 1 / (2 * r) + (4 * r * m * A + 16 * r * r - 4 * m * m) / (
            r * (4 * r * r - m * m) * A - 8 * r * (2 * r + m) ** 2
        )
        assert abs(row["psi"] - ref) <= 1e-12 * abs(ref)


def test_spectrum_both_methods_agree():
    result = run_cli(
        "spectrum", "--mass", "2", "--R", "20", "--count", "2",
        "--method", "both", "--output", "json",
    )
    doc = json.loads(result.stdout)
    assert doc["method"] == "both"
    assert doc["R"] == 20.0
    assert len(doc["entries"]) == 2
    for entry in doc["entries"]:
        assert entry["rel_diff"] <= 1e-3
    assert doc["entries"][0]["lambda_shooting"] < 0.0


def test_spectrum_table_columns():
    result = run_cli("spectrum", "--mass", "2", "--R", "12", "--count", "2")
    header, rows = parse_csv(result.stdout)
    assert header == ["k", "n", "lambda", "R", "method"]
    assert [row[1] for row in rows] == ["1", "2"]
    lams = [float(row[2]) for row in rows]
    assert lams[0] < lams[1]


def test_spectrum_inside_horizon_is_usage_error():
    assert run_cli("spectrum", "--mass", "2", "--R", "0.5").exit_code == 2


# ------------------------------------------------------------- morse-index


def test_morse_index_command():
    result = run_cli(
        "morse-index", "--mass", "2", "--R", "100", "--kmax", "3", "--output", "json"
    )
    doc = json.loads(result.stdout)
    assert doc["morse_index"] == 1
    assert len(doc["per_mode"]) == 7  # k = -3..3
    counts = {row["k"]: row["negative_count"] for row in doc["per_mode"]}
    assert counts[0] == 1
    assert all(c == 0 for k, c in counts.items() if k != 0)


# ------------------------------------------------------------ monotonicity


def test_monotonicity_table():
    result = run_cli("monotonicity", "--mass", "2")
    assert result.exit_code == 0
    header, rows = parse_csv(result.stdout)
    assert header[:4] == ["rho", "mu", "ratio", "pair_residual"]
    assert len(rows) == 40
    assert rows[0][3] == ""  # no pair residual on the first row
    ratios = [float(row[2]) for row in rows]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    scalars = dict(zip(header[4:], rows[0][4:]))
    assert scalars["monotone"] == "true"


def test_monotonicity_warns_for_non_minimal_surface():
    result = run_cli("monotonicity", "--mass", "2", "--surface", "cone:0.6")
    assert result.exit_code == 0
    assert "not minimal" in result.stderr


def test_monotonicity_bad_surface_spec():
    assert run_cli("monotonicity", "--mass", "2", "--surface", "torus").exit_code == 2
    assert run_cli("monotonicity", "--mass", "2", "--surface", "cone:9").exit_code == 2
    assert run_cli("monotonicity", "--mass", "2", "--surface", "plane:rotated:-5").exit_code == 2


@pytest.mark.parametrize("spec", ["plane:rotated:x", "plane:tilted", "cone:abc"])
@pytest.mark.parametrize("name", ["monotonicity", "boundary-bound"])
def test_malformed_surface_spec_is_named_in_the_usage_error(name, spec):
    """A seed or colatitude that does not parse, or an unknown plane
    variant: exit 2, nothing on stdout, the spec quoted on stderr."""
    result = run_cli(name, "--mass", "2", "--surface", spec)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert repr(spec) in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--R", "inf"),
        ("spectrum", "--R", "inf", "--method", "fd"),
        ("morse-index", "--R", "inf"),
        ("monotonicity", "--rho-max", "inf"),
        ("boundary-bound", "--rho-max", "inf"),
        ("riccati", "--c", "nan"),
        ("geom", "--r-max", "nan"),
        ("geom", "--r-max", "inf"),
        ("monotonicity", "--quad-tol", "nan"),
        ("boundary-bound", "--quad-tol", "inf"),
        ("spectrum", "--R", "20", "--ode-tol", "inf"),
        ("stability-radius", "--root-tol", "nan"),
        ("monotonicity", "--rho-max", "1e308"),
        ("boundary-bound", "--rho-max", "1e308"),
    ],
    ids=" ".join,
)
def test_non_finite_input_is_usage_error(argv):
    result = run_cli(*argv, "--mass", "2")
    assert result.exit_code == 2
    assert result.stdout == ""


# -------------------------------------------------------- tolerance flags

# each subcommand with its required options, and the tolerance it reads
SUBCOMMANDS = {
    "geom": (("geom",), "--root-tol"),
    "stability-radius": (("stability-radius",), "--root-tol"),
    "riccati": (("riccati", "--c", "0"), "--root-tol"),
    "spectrum": (("spectrum", "--R", "20"), "--ode-tol"),
    "morse-index": (("morse-index", "--R", "100"), "--ode-tol"),
    "monotonicity": (("monotonicity",), "--quad-tol"),
    "boundary-bound": (("boundary-bound",), "--quad-tol"),
}
# flags a subcommand does not take: another subcommand's tolerance,
# --config and --out
FOREIGN_FLAGS = [
    (name, flag)
    for name, (_, own) in SUBCOMMANDS.items()
    for flag in ("--ode-tol", "--root-tol", "--quad-tol", "--config", "--out")
    if flag != own
]


@pytest.mark.parametrize("name, flag", FOREIGN_FLAGS, ids=" ".join)
def test_foreign_tolerance_flag_is_usage_error(name, flag):
    argv, _ = SUBCOMMANDS[name]
    result = run_cli(*argv, "--mass", "2", flag, "1e-3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "unrecognized arguments" in result.stderr and flag in result.stderr


# ---------------------------------------------------------- boundary-bound


def test_boundary_bound_plane():
    result = run_cli("boundary-bound", "--mass", "2", "--output", "json")
    doc = json.loads(result.stdout)
    assert doc["bound_satisfied"] is True
    assert doc["lhs"] == pytest.approx(1.0, abs=1e-3)
    assert doc["rhs"] == pytest.approx(1.0, abs=1e-3)
    assert doc["boundary_len"] == pytest.approx(8.0 * 3.141592653589793, rel=1e-12)


@pytest.mark.parametrize("rho_max", ["1e308", "-5", "nan", "0", "0.2"])
@pytest.mark.parametrize("name", ["monotonicity", "boundary-bound"])
def test_rho_max_is_checked_by_name(name, rho_max):
    """Not positive, not finite, a chart length 2 clip_radius(rho_max)
    that overflows, or not above where the grid starts (0.1 m) or the tail
    estimate needs (m): one usage error that names the flag."""
    result = run_cli(name, "--mass", "2", "--rho-max", rho_max)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--rho-max" in result.stderr


# ---------------------------------------------------------------- riccati


def test_riccati_blow_up_matches_critical_radius():
    result = run_cli("riccati", "--mass", "2", "--c", "-8", "--output", "json")
    doc = json.loads(result.stdout)
    assert doc["R_c"] == pytest.approx(R_STAR_M2, rel=1e-12)
    assert len(doc["trace"]) == 65
    assert doc["trace"][0]["psi"] == 0.5  # horizon value 1/m
    assert all(abs(row["psi"]) < 1e3 for row in doc["trace"])


def test_riccati_blow_up_ordering_in_c():
    high = json.loads(run_cli("riccati", "--mass", "2", "--c", "-20", "--output", "json").stdout)
    low = json.loads(run_cli("riccati", "--mass", "2", "--c", "0", "--output", "json").stdout)
    assert high["R_c"] > R_STAR_M2 > low["R_c"]


def test_riccati_flat_model_is_usage_error():
    assert run_cli("riccati", "--mass", "0", "--c", "-8").exit_code == 2


def test_riccati_trace_inside_the_horizon_is_usage_error():
    """At c = 1e3 the blow-up radius is 1.016 < m/1.96, so the trace's end
    0.98 R_c lies inside the horizon."""
    result = run_cli("riccati", "--mass", "2", "--c", "1e3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "--c" in result.stderr


def test_riccati_needs_two_rows():
    result = run_cli("riccati", "--mass", "2", "--c", "0", "--n", "1")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "need --n >= 2" in result.stderr


@pytest.mark.parametrize(
    "argv, code",
    [
        ("riccati --mass 1e-9 --c 0", 0),
        ("riccati --mass 1.24e-160 --c 1.39374 --n 38", 0),
        ("riccati --mass 2 --c -1105.24", 0),
        ("riccati --mass 3.67e-98 --c 5487.79", 2),
    ],
)
def test_riccati_exit_codes_at_every_scale(argv, code):
    """The plain quotient's blow-up test compared parts of order m^3 with
    parts of order m^2: at m = 1e-9, c = 0 it reported a blow-up near the
    horizon where the blow-up lies near r = 1 (exit 3), and at m = 1.24e-160
    its parts underflowed to a ZeroDivisionError (exit 1).  A blow-up near
    1e120 lay past the bracket's 200 doublings (exit 3), and at m =
    3.67e-98 the stopping width 1e-15 swamped a root of order 1e-98, whose
    residual test failed (exit 3): R_c lies below m/1.96, a usage error."""
    result = run_cli(*argv.split())
    assert result.exit_code == code, result.stderr
    if code == 0:
        assert result.stderr == "" and "nan" not in result.stdout and "inf" not in result.stdout
    else:
        assert result.stdout == "" and "R_c" in result.stderr


def test_riccati_with_a_subnormal_blow_up_radius_fails_on_its_trace():
    """At m = 7.0673e-319 the blow-up radius 5.8e-318 is subnormal and
    failed its residual test (exit 3, 'blow-up radius residual').  The
    radius is now found, and the trace, psi of about 1/r = 2.8e318 at the
    horizon, is past the double range, as at ``--mass 1e-320``: still
    exit 3, on one stderr line that names the trace."""
    proc = run_proc("riccati", "--mass", "7.0673e-319", "--c", "2922.8768444212565")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == "numerical failure: psi_c at r = 3.53366e-319 lies past the double range\n"


def _riccati(m, c):
    """``riccati --mass m --c c --output json`` in process: the exit code,
    the parsed document of an exit-0 run (else None) and stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_cli("riccati", "--mass", repr(m), "--c", repr(c), "--output", "json")
    assert result.exit_code in (0, 2, 3) and "Traceback" not in result.stderr, result
    if result.exit_code != 0:
        return result.exit_code, None, result.stderr
    assert "nan" not in result.stdout and "inf" not in result.stdout
    return 0, json.loads(result.stdout), result.stderr


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    log_m=st.floats(math.log(1e-320), math.log(1e300)),
    c=st.floats(-3000.0, 3000.0),
)
def test_riccati_exit_codes_and_scale_covariance(log_m, c):
    """``(m, c)`` is the ``m = 1`` problem at ``c + 4 log m`` on lengths in
    units of m: the same exit code (0, 2 or 3, with no traceback, no
    RuntimeWarning and no nan or inf printed), ``R_c/m`` within 1e-12 and
    ``m psi`` within 1e-9 at the rows up to 0.97 R_c.

    The exceptions are exit-3 runs whose numbers, in their own unit, leave
    the range of doubles where the other unit's do not: a blow-up radius
    or a trace value past the largest double, or a blow-up radius below
    the normal range, whose few bits cannot meet the residual test."""
    m = math.exp(log_m)
    c1 = c + 4.0 * math.log(m)
    code, doc, err = _riccati(m, c)
    code1, doc1, err1 = _riccati(1.0, c1)
    if code != code1:
        if code == 3 and "residual" in err:
            assert m * singularity_radius(SchwarzschildModel(1.0), c1) < sys.float_info.min
            return
        assert {code, code1} == {0, 3}
        # the exit-0 run's numbers carried to the other unit
        ok, log_scale = (doc1, log_m) if code == 3 else (doc, -log_m)
        logs = [math.log(ok["R_c"]) + log_scale]
        logs += [math.log(abs(row["psi"])) - log_scale for row in ok["trace"] if row["psi"] != 0.0]
        assert max(logs) > math.log(sys.float_info.max) - 1e-9, (err, err1)
        return
    if code == 0:
        R_c, R_1 = doc["R_c"], doc1["R_c"]
        assert abs(R_c / m - R_1) <= 1e-12 * R_1
        for row, row1 in zip(doc["trace"], doc1["trace"]):
            if row["r"] <= 0.97 * R_c:
                assert abs(m * row["psi"] - row1["psi"]) <= 1e-9 * max(1.0, abs(row1["psi"]))


def _spectrum(*argv):
    """``spectrum ... --output json`` in process: the exit code and the
    parsed document of an exit-0 run (else None)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = run_cli("spectrum", *argv, "--output", "json")
    assert result.exit_code in (0, 2, 3) and "Traceback" not in result.stderr, result
    if result.exit_code != 0:
        return result.exit_code, None
    assert "nan" not in result.stdout.lower() and "inf" not in result.stdout.lower()
    return 0, json.loads(result.stdout)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    j=st.integers(-990, 1000),
    log_x=st.floats(math.log(0.55), math.log(1e4)),
    k=st.integers(0, 3),
    count=st.integers(1, 3),
    method=st.sampled_from(["fd", "both"]),
)
def test_fd_spectra_exit_codes_and_scale_covariance(j, log_x, k, count, method):
    """The FD routes pose the ``m = 1`` problem on ``R/m``: at ``m = 2^j``
    and ``R = m X`` (both exact), ``spectrum --method fd|both`` exits as
    ``--mass 1 --R X`` does (0, 2 or 3, with no traceback, no
    RuntimeWarning and no nan or inf printed) and prints the same
    eigenvalues, in units of ``m^2``, bit for bit."""
    m = 2.0**j
    X = math.exp(log_x)
    rest = ("--k", str(k), "--count", str(count), "--method", method)
    code, doc = _spectrum("--mass", repr(m), "--R", repr(m * X), *rest)
    code1, doc1 = _spectrum("--mass", "1", "--R", repr(X), *rest)
    assert code == code1
    if code == 0:
        assert doc["entries"] == doc1["entries"]


def test_fd_cells_whose_squared_width_overflows_are_a_numerical_failure():
    """At R/m = 1.8e271 the squared width of the 32 coarse FD cells is past
    the double range: ``dx**2`` raised a bare OverflowError (exit 1 with a
    traceback).  Now exit 3 with one stderr line."""
    proc = run_proc("spectrum", "--mass", "2.06", "--R", "3.76e271", "--method", "fd")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("numerical failure: the squared width of 32 FD cells")
    assert proc.stderr.count("\n") == 1


# ------------------------------------------------------------------- misc


def test_seed_is_not_an_option():
    """Rotations are seeded by the surface spec, ``plane:rotated:<seed>``."""
    assert run_cli("geom", "--seed", "5").exit_code == 2


def test_version_flag():
    result = run_cli("--version")
    assert result.exit_code == 0
    assert result.stdout == f"schwsurf, version {schwsurf.__version__}\n"


def test_bare_command_is_usage_error():
    result = run_cli()
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage: schwsurf")


def test_value_beginning_with_a_minus_is_the_flags_value():
    """``-1e-3`` is read as the value of the flag before it, not as an
    option string; a negative mass reaches the mass check."""
    result = run_cli("riccati", "--mass", "2", "--c", "-1e-3")
    assert result.exit_code == 0
    assert result.stdout == run_cli("riccati", "--mass", "2", "--c=-1e-3").stdout
    result = run_cli("geom", "--mass", "-1e-3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "mass must be nonnegative" in result.stderr


@pytest.mark.parametrize("argv", [("geom", "--mass", "2", "--r-m", "5"), ("geom", "--ma", "2")], ids=" ".join)
def test_abbreviated_flag_is_usage_error(argv):
    result = run_cli(*argv)
    assert result.exit_code == 2
    assert result.stdout == ""


# ----------------------------------------------- subprocess-level contracts


def test_exit_code_zero_and_determinism():
    args = ("monotonicity", "--mass", "2", "--output", "json")
    first = run_proc(*args)
    second = run_proc(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical reruns


def test_exit_code_usage_error():
    proc = run_proc("spectrum", "--mass", "2", "--R", "0.4")
    assert proc.returncode == 2


def test_exit_code_numerical_failure():
    # a blow-up radius far past the double range
    proc = run_proc("riccati", "--mass", "2", "--c", "-1e6")
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


def test_overflowing_area_is_a_numerical_failure():
    # the area of the sphere of radius h, about pi h^2, overflows once h
    # passes about 1.3e154: the quadrature stops at its first estimate
    proc = run_proc("monotonicity", "--mass", "2", "--rho-max", "1e160")
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: ")
    assert proc.stderr.count("\n") == 1  # one line: no numpy warning before it
    assert "is not finite" in proc.stderr


@pytest.mark.parametrize("name", ["monotonicity", "boundary-bound"])
def test_underflowing_mass_is_a_numerical_failure(name):
    """At m = 1e-170 the ratios over h^2 cannot be formed in doubles: exit 3
    with one stderr line (monotonicity printed nan rows and exited 0,
    boundary-bound died on a ZeroDivisionError)."""
    result = run_cli(name, "--mass", "1e-170")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("numerical failure: ") and result.stderr.count("\n") == 1


@pytest.mark.parametrize("name", ["monotonicity", "boundary-bound"])
def test_subnormal_ratio_parts_are_a_numerical_failure(name):
    """At m = 1e-160 h^2 (about 4e-320) and mu are subnormal: monotonicity
    printed a first ratio 2.5 % off and nan residuals, boundary-bound a
    tail of 2.4e-8, both at exit 0.  Now exit 3 with one stderr line."""
    result = run_cli(name, "--mass", "1e-160")
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("numerical failure: ") and result.stderr.count("\n") == 1
    assert "underflows" in result.stderr


# scale-free columns, compared relatively or absolutely
_SCALE_FREE = {
    "monotonicity": {"ratio": "rel", "pair_residual": "abs", "max_backstep": "abs", "monotone": "same"},
    "boundary-bound": {
        "lhs": "rel",
        "rhs": "rel",
        "boundary_term": "rel",
        "equality_defect": "abs",
        "defect_integral": "abs",
        "defect_tail_bound": "abs",
        "bound_satisfied": "same",
    },
}


@pytest.mark.parametrize("name", ["monotonicity", "boundary-bound"])
def test_surface_reports_at_a_tiny_normal_mass_print_the_unit_mass_numbers(name):
    """At m = 1e-150 every value a report forms a ratio from is a normal
    double: exit 0, and the scale-free columns equal those at m = 1
    within 1e-12."""
    header, want = parse_csv(run_cli(name, "--mass", "1").stdout)
    result = run_cli(name, "--mass", "1e-150")
    assert result.exit_code == 0 and result.stderr == ""
    got_header, got = parse_csv(result.stdout)
    assert got_header == header and len(got) == len(want)
    for row, ref in zip(got, want):
        for column, kind in _SCALE_FREE[name].items():
            i = header.index(column)
            if kind == "same" or ref[i] == "":
                assert row[i] == ref[i], column
            elif kind == "rel":
                assert float(row[i]) == pytest.approx(float(ref[i]), rel=1e-12, abs=0.0), column
            else:
                assert abs(float(row[i]) - float(ref[i])) <= 1e-12, column


@pytest.mark.parametrize("warnings", [[], ["-W", "error::RuntimeWarning"]], ids=["default", "warnings-as-errors"])
def test_infinite_cone_limit_is_a_numerical_failure(warnings):
    """At m = 1e-10 a clip level near 1e300 is about 1e310 horizon radii
    out: log(t/t0) is inf, and the cone integral stops before it forms a
    node, with one stderr line and no warning."""
    argv = ["boundary-bound", "--mass", "1e-10", "--rho-max", "1e300"]
    proc = subprocess.run(
        [sys.executable, *warnings, "-m", "schwsurf.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "numerical failure: cone integral over [0.0, inf] in log(t/t0) is not finite\n"


_IMPORT_PROBE = """
import json, sys
import schwsurf.cli, schwsurf
from schwsurf import SchwarzschildModel, assemble, lowest_eigenvalues
vals = lowest_eigenvalues(assemble(SchwarzschildModel(2.0), 0, 40.0, 256), 3).lambdas()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"loaded": loaded, "vals": [float(v) for v in vals]}))
"""


def test_import_loads_no_scipy():
    # scipy costs about 0.2 s of interpreter start: neither the import nor
    # an FD solve may load it, and the solve must still give LAPACK's
    # values (stebz, called here) within 8 eps ||T||_inf of the standard form
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stdout)
    assert probe["loaded"] == []
    direct, bound = stebz_lowest(schwsurf.assemble(schwsurf.SchwarzschildModel(2.0), 0, 40.0, 256), 3)
    assert max(abs(g - w) for g, w in zip(probe["vals"], direct)) <= bound


_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import runpy
sys.argv = ["schwsurf", *sys.argv[1:]]
runpy.run_module("schwsurf.cli", run_name="__main__")
"""


@pytest.mark.parametrize("method", ["both", "fd"])
def test_spectrum_fd_runs_without_scipy(method):
    """The FD routes print the same bytes when scipy cannot be imported."""
    argv = ["spectrum", "--mass", "2", "--R", "40", "--count", "3", "--method", method]
    blocked = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, *argv], capture_output=True, text=True
    )
    plain = run_proc(*argv)
    assert blocked.returncode == plain.returncode == 0, blocked.stderr
    assert blocked.stdout == plain.stdout
    assert len(parse_csv(blocked.stdout)[1]) == 3


# the benchmark's eight children, the FD-only spectrum and its usage error:
# argv, exit code, and the modules each must not load; none loads click,
# scipy or dataclasses, only geom loads numpy and with it inspect, and each
# loads only the solver modules it calls
_NO_CHILD = ("click", "scipy", "dataclasses")
_NO_ARRAYS = _NO_CHILD + ("numpy", "inspect", "schwsurf.surfaces", "schwsurf.fd_oracle")
_NO_SHOOTING = _NO_CHILD + ("schwsurf.ode", "schwsurf.mode_odes", "schwsurf.spectral", "schwsurf.fd_oracle")
_CHILD_MODULES = {
    "geom": (["geom", "--mass", "2"], 0, _NO_SHOOTING + ("schwsurf.surfaces", "schwsurf.roots", "schwsurf.quadrature")),
    "stability-radius": (
        ["stability-radius", "--mass", "2", "--output", "json"],
        0,
        _NO_ARRAYS + ("schwsurf.ode", "schwsurf.quadrature"),
    ),
    "spectrum": (
        ["spectrum", "--mass", "2", "--R", "40", "--count", "3", "--method", "both"],
        0,
        _NO_CHILD + ("numpy", "inspect", "schwsurf.surfaces"),
    ),
    "spectrum-fd": (
        ["spectrum", "--mass", "2", "--R", "40", "--count", "3", "--method", "fd"],
        0,
        _NO_CHILD + ("numpy", "inspect", "schwsurf.surfaces"),
    ),
    "morse-index": (["morse-index", "--mass", "2", "--R", "2000", "--kmax", "5"], 0, _NO_ARRAYS + ("schwsurf.quadrature",)),
    "monotonicity": (["monotonicity", "--mass", "2", "--surface", "plane:rotated:5"], 0, _NO_SHOOTING + ("numpy", "inspect")),
    "boundary-bound": (["boundary-bound", "--mass", "2"], 0, _NO_SHOOTING + ("numpy", "inspect")),
    "riccati": (
        ["riccati", "--mass", "2", "--c", "0"],
        0,
        _NO_ARRAYS + ("schwsurf.ode", "schwsurf.spectral", "schwsurf.quadrature"),
    ),
    "usage-error": (["spectrum", "--mass", "2", "--R", "0.5"], 2, _NO_ARRAYS + ("schwsurf.ode", "schwsurf.quadrature")),
    "usage-error-fd": (
        ["spectrum", "--mass", "2", "--R", "0.5", "--method", "fd"],
        2,
        _NO_CHILD + ("numpy", "inspect", "schwsurf.surfaces", "schwsurf.quadrature"),
    ),
}

_MODULE_PROBE = """
import json, runpy, sys
sys.argv = ["schwsurf", *sys.argv[1:]]
try:
    runpy.run_module("schwsurf.cli", run_name="__main__")
    code = 0
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


@pytest.mark.parametrize("child", _CHILD_MODULES)
def test_subcommand_loads_only_what_it_calls(child):
    argv, code, absent = _CHILD_MODULES[child]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stderr.splitlines()[-1])
    assert probe["code"] == code
    loaded = set(probe["modules"])
    assert "schwsurf.geometry" in loaded
    assert loaded.isdisjoint(absent), sorted(loaded & set(absent))


def test_morse_index_at_loose_ode_tol():
    """At --ode-tol 1e-6 the stiff stretches of the k = 3, 4, 5 shots of a
    2000 m sweep take Radau steps: the index is still 1, exit 0, and the
    child still loads no numpy."""
    argv = ["morse-index", "--mass", "2", "--R", "2000", "--kmax", "5", "--ode-tol", "1e-6"]
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, *argv], capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stderr.splitlines()[-1])
    assert probe["code"] == 0
    header, rows = parse_csv(proc.stdout)
    assert len(rows) == 11 and {row[header.index("morse_index")] for row in rows} == {"1"}
    assert "numpy" not in probe["modules"]
    params = schwsurf.ModeParams(schwsurf.SchwarzschildModel(2.0), 3, 0.0, 2000.0)
    assert schwsurf.integrate_v(params, tol=1e-6)._traj.radau_steps > 0


def test_import_package_loads_no_numpy():
    code = "import sys, schwsurf; print(sorted(m for m in sys.modules if m.startswith(('numpy', 'schwsurf'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "['schwsurf']"


def test_import_cli_loads_only_what_every_subcommand_uses():
    code = "import sys, schwsurf.cli; print(sorted(m for m in sys.modules if m.startswith('schwsurf')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == str(
        ["schwsurf", "schwsurf._record", "schwsurf.cli", "schwsurf.errors", "schwsurf.geometry"]
    )


def test_package_exports_resolve_to_their_modules():
    from schwsurf import spectral

    assert schwsurf.morse_index is spectral.morse_index
    assert "morse_index" in dir(schwsurf) and "ode" in schwsurf.__all__
    with pytest.raises(AttributeError):
        schwsurf.no_such_name


def test_every_module_level_import_is_used():
    """Each name a package module imports at module level is referenced
    in it (``from __future__`` aside)."""
    import ast
    import pathlib

    unused = []
    for path in sorted(pathlib.Path(schwsurf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_geomspace_nodes_match_numpy_to_rounding():
    """The monotonicity grid without numpy: both ends exact, increasing,
    and every node within rounding of np.geomspace, which for both grids
    grows with the size of the logarithms they exponentiate."""
    import math
    import random

    import numpy as np

    from schwsurf.cli import _geomspace

    rng = random.Random(17)
    for _ in range(500):
        a = 10.0 ** rng.uniform(-300, 10)
        b = a * 10.0 ** rng.uniform(1e-6, 300)
        n = rng.randint(2, 100)
        got = _geomspace(a, b, n)
        assert got[0] == a and got[-1] == b and len(got) == n
        assert all(x < y for x, y in zip(got, got[1:]))
        rtol = 1e-15 * (1.0 + max(abs(math.log(a)), abs(math.log(b))))
        assert np.allclose(got, np.geomspace(a, b, n), rtol=rtol, atol=0.0)


def test_linspace_nodes_match_numpy_to_the_bit():
    import random

    import numpy as np

    from schwsurf.cli import _linspace

    rng = random.Random(13)
    for _ in range(2000):
        a = rng.uniform(-1e3, 1e3)
        b = a + rng.choice([0.0, rng.uniform(0.0, 10.0) * 10.0 ** rng.randint(-6, 6)])
        n = rng.randint(2, 200)
        assert _linspace(a, b, n) == np.linspace(a, b, n).tolist()


def test_unconverged_areal_radius_is_a_numerical_failure(monkeypatch):
    from schwsurf import geometry

    monkeypatch.setattr(geometry, "_distance", lambda m, d: float("nan"))
    result = run_cli("geom", "--mass", "2", "--n", "3")
    assert result.exit_code == 3
    assert "numerical failure" in result.stderr
