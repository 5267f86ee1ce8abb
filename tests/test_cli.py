"""Command-line interface: formats, config merging, determinism, exit codes.

In-process invocations use click's test runner; exit-code and
byte-determinism checks go through a real subprocess so the mapping in
the entry point is what is actually exercised.
"""

import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

import schwsurf
from conftest import R_STAR_M2
from schwsurf.cli import main

F_AT_R1E4_M2 = 0.99979965105436941


def run_cli(*args):
    result = CliRunner().invoke(main, list(args), catch_exceptions=False)
    return result


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
    header, rows = parse_csv(result.output)
    assert header == ["rho_iso", "s", "r", "h", "f"]
    assert len(rows) == 65
    last = dict(zip(header, map(float, rows[-1])))
    assert last["r"] == 1e4
    assert last["f"] == pytest.approx(F_AT_R1E4_M2, rel=1e-12)
    assert last["h"] == last["s"]
    first = dict(zip(header, map(float, rows[0])))
    assert first["r"] == 0.0 and first["f"] == 0.0 and first["s"] == 4.0


def test_geom_json_provenance_header():
    result = run_cli("geom", "--mass", "2", "--n", "5", "--output", "json")
    doc = json.loads(result.output)
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


# -------------------------------------------------------------- stability


def test_stability_radius_fields():
    result = run_cli("stability-radius", "--mass", "2", "--output", "json")
    doc = json.loads(result.output)
    assert set(doc) >= {"mass", "R_star", "ratio", "residual"}
    assert doc["R_star"] == pytest.approx(R_STAR_M2, rel=1e-12)
    assert 5.50 <= doc["ratio"] <= 5.52
    assert abs(doc["residual"]) <= 1e-12


# --------------------------------------------------------------- spectrum


def test_spectrum_both_methods_agree():
    result = run_cli(
        "spectrum", "--mass", "2", "--R", "20", "--count", "2",
        "--method", "both", "--output", "json",
    )
    doc = json.loads(result.output)
    assert doc["method"] == "both"
    assert doc["R"] == 20.0
    assert len(doc["entries"]) == 2
    for entry in doc["entries"]:
        assert entry["rel_diff"] <= 1e-3
    assert doc["entries"][0]["lambda_shooting"] < 0.0


def test_spectrum_table_columns():
    result = run_cli("spectrum", "--mass", "2", "--R", "12", "--count", "2")
    header, rows = parse_csv(result.output)
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
    doc = json.loads(result.output)
    assert doc["morse_index"] == 1
    assert len(doc["per_mode"]) == 7  # k = -3..3
    counts = {row["k"]: row["negative_count"] for row in doc["per_mode"]}
    assert counts[0] == 1
    assert all(c == 0 for k, c in counts.items() if k != 0)


# ------------------------------------------------------------ monotonicity


def test_monotonicity_table():
    result = run_cli("monotonicity", "--mass", "2")
    assert result.exit_code == 0
    header, rows = parse_csv(result.output)
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
FOREIGN_FLAGS = [
    (name, flag)
    for name, (_, own) in SUBCOMMANDS.items()
    for flag in ("--ode-tol", "--root-tol", "--quad-tol")
    if flag != own
]


@pytest.mark.parametrize("name, flag", FOREIGN_FLAGS, ids=" ".join)
def test_foreign_tolerance_flag_is_usage_error(name, flag):
    argv, _ = SUBCOMMANDS[name]
    result = run_cli(*argv, "--mass", "2", flag, "1e-3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "No such option" in result.stderr


def test_config_rejects_foreign_tolerance_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mass = 2\nquad_tol = 1e-9\n")
    result = run_cli("stability-radius", "--config", str(cfg))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "unknown config key 'quad_tol'" in result.stderr


# ---------------------------------------------------------- boundary-bound


def test_boundary_bound_plane():
    result = run_cli("boundary-bound", "--mass", "2", "--output", "json")
    doc = json.loads(result.output)
    assert doc["bound_satisfied"] is True
    assert doc["lhs"] == pytest.approx(1.0, abs=1e-3)
    assert doc["rhs"] == pytest.approx(1.0, abs=1e-3)
    assert doc["boundary_len"] == pytest.approx(8.0 * 3.141592653589793, rel=1e-12)


# ---------------------------------------------------------------- riccati


def test_riccati_blow_up_matches_critical_radius():
    result = run_cli("riccati", "--mass", "2", "--c", "-8", "--output", "json")
    doc = json.loads(result.output)
    assert doc["R_c"] == pytest.approx(R_STAR_M2, rel=1e-12)
    assert len(doc["trace"]) == 65
    assert doc["trace"][0]["psi"] == 0.5  # horizon value 1/m
    assert all(abs(row["psi"]) < 1e3 for row in doc["trace"])


def test_riccati_blow_up_ordering_in_c():
    high = json.loads(run_cli("riccati", "--mass", "2", "--c", "-20", "--output", "json").output)
    low = json.loads(run_cli("riccati", "--mass", "2", "--c", "0", "--output", "json").output)
    assert high["R_c"] > R_STAR_M2 > low["R_c"]


def test_riccati_flat_model_is_usage_error():
    assert run_cli("riccati", "--mass", "0", "--c", "-8").exit_code == 2


# ------------------------------------------------------------- config file


def test_config_file_fills_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample\nmass = 2\nroot_tol = 1e-11\n")
    result = run_cli("stability-radius", "--config", str(cfg), "--output", "json")
    doc = json.loads(result.output)
    assert doc["mass"] == 2.0
    assert doc["tolerances"] == {"root_tol": 1e-11}


def test_flags_win_over_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mass = 2\n")
    result = run_cli(
        "stability-radius", "--mass", "4", "--config", str(cfg), "--output", "json"
    )
    doc = json.loads(result.output)
    assert doc["mass"] == 4.0
    assert doc["R_star"] == pytest.approx(2.0 * R_STAR_M2, rel=1e-10)


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("masss = 2\n")
    assert run_cli("stability-radius", "--config", str(cfg)).exit_code == 2


def test_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "run.cfg"
    for line in ("mass = heavy", "output = yaml", "root_tol = nan"):
        cfg.write_text(line + "\n")
        result = run_cli("stability-radius", "--config", str(cfg))
        assert result.exit_code == 2, line
        assert result.stdout == ""


def test_seed_is_not_an_option(tmp_path):
    """Rotations are seeded by the surface spec, ``plane:rotated:<seed>``."""
    assert run_cli("geom", "--seed", "5").exit_code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    assert run_cli("geom", "--config", str(cfg)).exit_code == 2


def test_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    assert run_cli("stability-radius", "--config", str(cfg)).exit_code == 2


# ------------------------------------------------------------ out and misc


def test_out_flag_writes_identical_bytes(tmp_path):
    target = tmp_path / "table.csv"
    to_stdout = run_cli("geom", "--mass", "2", "--n", "9")
    to_file = run_cli("geom", "--mass", "2", "--n", "9", "--out", str(target))
    assert to_file.exit_code == 0
    assert target.read_text(encoding="utf-8") == to_stdout.output


def test_version_flag():
    result = run_cli("--version")
    assert schwsurf.__version__ in result.output


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
    # a blow-up radius beyond any bracket the expansion will ever reach
    proc = run_proc("riccati", "--mass", "2", "--c", "-1e6")
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


_IMPORT_PROBE = """
import json, sys
import schwsurf.cli, schwsurf
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
from schwsurf import SchwarzschildModel, assemble, lowest_eigenvalues
vals = lowest_eigenvalues(assemble(SchwarzschildModel(2.0), 0, 40.0, 256), 3).lambdas()
print(json.dumps({"at_import": loaded, "after_solve": "scipy.linalg" in sys.modules,
                  "vals": [float(v).hex() for v in vals]}))
"""


def test_import_loads_no_scipy():
    # scipy costs about 0.6 s of interpreter start: only the FD solve may
    # load it, and it must still give the values of a direct LAPACK call
    from scipy.linalg import eigvalsh_tridiagonal

    from schwsurf.fd_oracle import _standard_form

    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], capture_output=True, text=True, check=True
    )
    probe = json.loads(proc.stdout)
    assert probe["at_import"] == []
    assert probe["after_solve"]
    d, e = _standard_form(schwsurf.assemble(schwsurf.SchwarzschildModel(2.0), 0, 40.0, 256))
    direct = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 2), lapack_driver="stebz")
    assert probe["vals"] == [float(v * 4.0).hex() for v in direct]
