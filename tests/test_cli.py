import ctypes
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import ringspace as rs
from ringspace import cli
from ringspace.errors import ConvergenceError
from ringspace.geometry import boundary_angles

from oracles import horner_ring_values, node_measure_quadrature

ROOT = Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "results.schema.json").read_text())


def run_cli(args):
    return CliRunner().invoke(cli.main, args, catch_exceptions=False)


def run_json(args):
    result = run_cli(args)
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    jsonschema.validate(doc, SCHEMA)
    return doc


# ---------------------------------------------------------------- parsing

def test_parse_complex_forms():
    assert cli.parse_complex("0.7") == 0.7
    assert cli.parse_complex("0.5+0.3i") == 0.5 + 0.3j
    assert cli.parse_complex("-0.6i") == -0.6j
    polar = cli.parse_complex("2∠1.5707963267948966")
    assert polar == pytest.approx(2j)
    ascii_polar = cli.parse_complex("1@3.141592653589793")
    assert ascii_polar == pytest.approx(-1.0)


def test_parse_complex_rejects_garbage():
    with pytest.raises(cli.UsageError):
        cli.parse_complex("fish")


def test_parse_atoms():
    atoms = cli.parse_atoms("1:-1,0.5i:-0.25")
    assert atoms == ((1 + 0j, -1.0), (0.5j, -0.25))
    with pytest.raises(cli.UsageError):
        cli.parse_atoms("nonsense")


# ----------------------------------------------------------------- commands

def test_kernel_zeros_document(dom):
    doc = run_json(["kernel-zeros", "--r", "0.5", "--base", "0.7",
                    "--space", "bergman"])
    assert doc["results"]["count"] == 1
    loc = doc["results"]["locations"][0]
    assert loc["re"] == pytest.approx(-0.5050761251586438, abs=1e-7)


def test_qc_divisor_document():
    doc = run_json(["qc-divisor", "--r", "0.5", "--zeros", "0.7,0.6i"])
    # the benchmark gate exempts atom divisors by this key
    assert "atoms" not in doc["parameters"]
    res = doc["results"]
    assert res["C"] == 2.0
    assert res["boundary_modulus_min"] >= 1 - 1e-7
    assert res["boundary_modulus_max"] <= 2 + 1e-7
    assert res["division_ratio_max"] <= 2 + 1e-6


def test_qc_divisor_samples_moduli_off_the_nodes():
    # both atoms sit on quadrature nodes (angles 0 and pi/2), where |G| reads its
    # radial limit 0; the moduli are sampled half a node spacing away, and the
    # division ratios come from the moduli (e^lam, 1) in closed form
    res = run_json(["qc-divisor", "--r", "0.5", "--zeros", "0.7,0.6i",
                    "--atoms", "1:-1,0.5i:-0.25"])["results"]
    assert res["boundary_modulus_min"] > 0.9
    assert res["division_ratio_min"] == pytest.approx(0.894925, abs=1e-6)


def test_qc_divisor_ratios_do_not_read_m():
    docs = [run_json(["qc-divisor", "--r", "0.5", "--zeros", "0.7,0.6i", "--m", m])
            for m in ("9", "16", "36", "512")]
    ratios = {(doc["results"]["division_ratio_max"], doc["results"]["division_ratio_min"])
              for doc in docs}
    assert len(ratios) == 1
    # 4 nodes a circle: no pencil to go singular
    assert run_cli(["qc-divisor", "--r", "0.5", "--zeros", "0.7,0.6i", "--m", "4"]).exit_code == 0


def test_qc_divisor_with_atoms_meets_the_benchmark_gate():
    # divisor-ladder seed 3: with each atom's kernel cut off at --N 64, Gibbs
    # overshoot in the exponent put the division ratios at [2.31, 3.09]
    # against [1/C, C] = [0.589, 1.696]
    doc = run_json(["qc-divisor", "--r", "0.5894741329579944",
                    "--base", "-0.2284037034622797+0.6604280890536979i",
                    "--zeros", "-0.6485426130930246+0.4054512737015564i,"
                    "0.17881733017726115-0.7267691201281496i,"
                    "-0.3705939202784716+0.8582201134503409i",
                    "--atoms", "-0.7138124882769095+0.7003368700703447i:-0.8801026198425506,"
                    "-0.49928464840443315-0.31336016545540835i:-0.6181982136634966"])
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from jobs import INVARIANTS
    finally:
        sys.path.pop(0)
    res, tol = doc["results"], doc["tolerances"]
    assert [name for name, holds in INVARIANTS["qc-divisor"] if not holds(res, tol, doc)] == []
    # the atom-free bound 1 <= |G| <= C now holds on every node, atoms included
    assert 1 - 1e-7 <= res["boundary_modulus_min"] <= res["boundary_modulus_max"] <= res["C"]


def test_extremal_marks_the_kernel_product_report_only():
    tol = run_json(["extremal", "--r", "0.5", "--base", "0.7", "--zeros", "0.6i",
                    "--N", "32"])["tolerances"]
    assert tol == {"equivalence": 1e-9, "kernel_product": "report-only"}
    tol = run_json(["extremal", "--r", "0.5", "--base", "0.7", "--zeros", "0.6i,-0.6",
                    "--N", "32"])["tolerances"]
    assert tol == {"equivalence": 1e-9}


def test_singular_modulus_is_constant_off_its_atom():
    doc = run_json(["singular", "--r", "0.5", "--base", "0.7", "--atoms", "1@0.3:-0.5"])
    assert doc["results"]["inner_by_constant_modulus"]
    assert doc["results"]["modulus_deviation_outer"] <= 1e-10


def test_singular_atoms_on_nodes_take_the_radial_limit():
    # the README's atoms sit on the node angles 0 and pi/2, where |S| is 0;
    # verify_inner samples half a spacing off the nodes, so the document reads inner
    res = run_json(["singular", "--r", "0.5", "--atoms", "1:-1,0.5i:-0.25"])["results"]
    d = rs.make_annulus(0.5, 0.5**0.5)
    S = rs.singular_inner(d, rs.AtomicSingularMeasure(atoms=((1.0, -1.0), (0.5j, -0.25))))
    assert np.all(S(np.array([1.0, 0.5j])) == 0.0)
    assert res["inner_by_constant_modulus"]
    assert max(res["modulus_deviation_outer"], res["modulus_deviation_inner"]) <= 1e-10
    assert res["ring_zero_count"] == 0


def test_green_document():
    doc = run_json(["green", "--r", "0.5", "--pole", "0.7"])
    assert doc["results"]["boundary_residual_max"] <= 1e-10
    assert doc["results"]["measure_mass"] == pytest.approx(1.0, abs=1e-10)
    assert doc["results"]["interior_min"] > 0


def test_green_mass_is_the_poles_measure():
    # the mass is harmonic measure at the pole, which is green's base point
    doc = run_json(["green", "--r", "0.5", "--pole", "0.55-0.2j"])
    _, w = node_measure_quadrature(rs.make_annulus(0.5, 0.55 - 0.2j), 512, N_green=64)
    assert abs(doc["results"]["measure_mass"] - np.sum(w)) <= 1e-13


def test_green_meets_its_stated_tolerance():
    # the closed form's series length depends on r alone, so the residual
    # meets the document's own tolerance; green takes no --N
    args = ["green", "--r", "0.5", "--pole", "0.55-0.2j"]
    doc = run_json(args)
    assert doc["status"] == "ok"
    assert doc["results"]["boundary_residual_max"] <= doc["tolerances"]["boundary_residual"]
    assert run_cli([*args, "--N", "16"]).exit_code == 2


def test_biharmonic_disk_document(tmp_path):
    grid = tmp_path / "grid.csv"
    doc = run_json(["biharmonic", "--r", "0.5", "--disk", "--pole", "0.3",
                    "--n-rho", "32", "--n-theta", "32",
                    "--grid-out", str(grid)])
    assert doc["results"]["min_value"] >= -1e-6 * doc["results"]["max_value"]
    lines = grid.read_text().splitlines()
    assert lines[0] == "rho,theta,re,im"
    assert len(lines) == 1 + 32 * 32
    assert doc["grids"][0]["path"] == str(grid)


@pytest.mark.parametrize("args, n_rho, n_theta", [
    (["green", "--r", "0.5", "--pole", "0.7"], 64, 64),
    (["kernel", "--r", "0.5", "--base", "0.7"], 48, 48),
    (["biharmonic", "--r", "0.5", "--pole", "0.7", "--n-rho", "32", "--n-theta", "40"], 32, 40),
], ids=["green", "kernel", "biharmonic"])
def test_grid_out_reads_back_as_numbers(tmp_path, args, n_rho, n_theta):
    path = tmp_path / "grid.csv"
    run_json([*args, "--grid-out", str(path)])
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (n_rho * n_theta, 4)
    assert np.isfinite(rows).all()
    rho, theta = rows[:, 0].reshape(n_rho, n_theta), rows[:, 1].reshape(n_rho, n_theta)
    assert (rho == rho[:, :1]).all() and (np.diff(rho[:, 0]) > 0).all()
    assert np.array_equal(theta, np.broadcast_to(boundary_angles(n_theta), theta.shape))
    if args[0] == "biharmonic":  # every value written as its repr, so read back exactly
        sol = rs.biharmonic_green(rs.make_annulus(0.5, 0.7), 0.7, n_rho, n_theta)
        assert np.array_equal(rho[:, 0], sol.grid.radii)
        assert np.array_equal(rows[:, 2], sol.grid.values.ravel())


def test_usage_error_exit_code():
    result = run_cli(["blaschke", "--r", "0.5"])
    assert result.exit_code == 2


def test_rejected_geometry_exit_code():
    result = run_cli(["green", "--r", "1.5", "--pole", "0.7"])
    assert result.exit_code == 3


@pytest.mark.parametrize("argv", [
    pytest.param(["green", "--r", "0.5", "--pole", "0.7", "--m", "0"], id="0"),
    pytest.param(["green", "--r", "0.5", "--pole", "0.7", "--m", "2"], id="2"),
    pytest.param(["kernel-zeros", "--r", "0.5", "--m", "0"], id="kernel-zeros"),
    pytest.param(["blaschke", "--r", "0.5", "--zeros", "0.7", "--m", "0"], id="blaschke"),
    pytest.param(["singular", "--r", "0.5", "--m", "0"], id="singular"),
    pytest.param(["extremal", "--r", "0.5", "--m", "0"], id="extremal"),
])
def test_too_few_boundary_nodes_exit_code(argv):
    result = run_cli(argv)
    assert result.exit_code == 3
    assert result.stderr.startswith("rejected:")


@pytest.mark.parametrize("m", ["1", "3"])
@pytest.mark.parametrize("argv", [["qc-divisor", "--zeros", "0.7,0.6i"], ["inner-verify"],
                                  ["blaschke", "--zeros", "0.7"], ["singular"]],
                         ids=["qc-divisor", "inner-verify", "blaschke", "singular"])
def test_too_few_offset_nodes_name_the_given_m(argv, m):
    # the moduli are sampled half a node spacing off the quadrature nodes, on every
    # other node of a doubled ring; the rejection names the --m given, not 2m
    result = run_cli([argv[0], "--r", "0.5", *argv[1:], "--m", m])
    assert result.exit_code == 3
    assert result.stderr == f"rejected: need at least 4 nodes per ring, got {m}\n"


@pytest.mark.parametrize("disk", [True, False], ids=["disk", "ring"])
def test_biharmonic_document_states_its_clamped_tolerance(disk):
    argv = ["--disk", "--pole", "0.3"] if disk else ["--r", "0.5", "--pole", "0.7"]
    doc = run_json(["biharmonic", *argv, "--n-rho", "96", "--n-theta", "96"])
    assert doc["tolerances"] == {"positivity_floor": 1e-6, "clamped": 1e-10}
    assert doc["results"]["clamped_residual"] <= 1e-12
    assert set(doc["results"]) == {"disk", "min_value", "max_value", "sign_change_cell_count",
                                   "clamped_residual"}


@pytest.mark.parametrize("flag", [["--trials", "4"], ["--seed", "1"]], ids=["trials", "seed"])
def test_qc_divisor_takes_no_trials_or_seed(flag):
    # its division ratios are exact extremes, with nothing drawn
    result = run_cli(["qc-divisor", "--r", "0.5", "--zeros", "0.7", *flag])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["kernel", "extremal"])
def test_negative_window_exit_code(command):
    result = run_cli([command, "--r", "0.5", "--N", "-3"])
    assert result.exit_code == 3
    assert result.stderr.startswith("rejected:")


def test_convergence_failure_exit_code(monkeypatch, tmp_path):
    def broken(config):
        raise ConvergenceError("did not settle")
    monkeypatch.setitem(cli._HANDLERS, "hmeasure", broken)
    out = tmp_path / "doc.json"
    result = run_cli(["hmeasure", "--r", "0.5", "--base", "0.7", "--j", "1",
                      "--out", str(out)])
    assert result.exit_code == 4
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["status"] == "unverified"


def test_extremal_past_the_double_range_exits_unverified(tmp_path):
    out = tmp_path / "doc.json"
    result = run_cli(["extremal", "--r", "0.05", "--base", "0.06", "--zeros", "0.5",
                      "--space", "smirnov", "--N", "300", "--m", "1204", "--out", str(out)])
    assert result.exit_code == 4
    assert result.stderr.startswith("unverified: z^n / ||z^n|| at (0.06+0j)")
    assert "Traceback" not in result.output
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["status"] == "unverified"


def test_prime_function_window_past_the_cap_exits_unverified(tmp_path):
    # r = 0.9999999 would need 3.9e8 prime-function terms; the window is refused first
    out = tmp_path / "doc.json"
    for argv in (["blaschke", "--r", "0.9999999", "--zeros", "0.99999995"],
                 ["green", "--r", "0.9999999", "--pole", "0.99999995"]):
        result = run_cli([*argv, "--out", str(out)])
        assert result.exit_code == 4
        assert result.stderr.startswith("unverified: prime-function series r^N reaches 1e-17")
        assert json.loads(out.read_text())["status"] == "unverified"


def test_non_finite_results_exit_unverified(monkeypatch, tmp_path):
    def not_a_number(config):
        results = {"value": float("nan"), "point": {"re": 0.0, "im": float("inf")}}
        return results, [(8, 1.0), (16, float("nan"))], {"tol": 1.0}, None
    monkeypatch.setitem(cli._HANDLERS, "hmeasure", not_a_number)
    out = tmp_path / "doc.json"
    result = run_cli(["hmeasure", "--r", "0.5", "--out", str(out)])
    assert result.exit_code == 4
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["status"] == "unverified"
    for key in ("results.value", "results.point.im", "ladder.1.1"):
        assert key in doc["results"]["error"]


# 1e999 parses to an infinite real part
@pytest.mark.parametrize("flags", [["--base", "nan"], ["--base", "1e999"],
                                   ["--atoms", "1:nan"]])
def test_non_finite_parameters_are_rejected(flags):
    result = run_cli(["singular", "--r", "0.5", *flags])
    assert result.exit_code == 3
    assert result.stderr.startswith("rejected: non-finite values at parameters.")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extremal_past_the_double_range_of_the_norms():
    # ||z^-300||^2 at r = 0.3 is past 1.8e308; the solvers read its logarithm
    doc = run_json(["extremal", "--r", "0.3", "--base", "0.65", "--zeros", "0.5i",
                    "--space", "smirnov", "--N", "300", "--m", "1204"])
    assert doc["results"]["formulation_equivalence"] <= 1e-9
    assert abs(doc["results"]["value_at_base"]["re"] - 1.0) <= 1e-12


@pytest.mark.parametrize("argv", [["extremal", "--zeros", "0.6i"],
                                  ["schottky-fit", "--zeros", "0.6i"],
                                  ["kernel", "--space", "hardy"]])
def test_windows_past_the_default_nodes_take_the_node_floor(argv):
    # --N 160 needs 4N+4 = 644 nodes, above the default --m 512
    run_json([*argv, "--r", "0.5", "--base", "0.7", "--N", "160"])


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"r": 0.5, "base": "0.7", "j": 2, "m": 128}))
    doc = run_json(["hmeasure", "--config", str(cfg)])
    assert doc["results"]["component"] == 2
    assert doc["parameters"]["j"] == 2
    # hmeasure takes no --m: the key is ignored and not echoed
    assert "m" not in doc["parameters"]
    # explicit flag wins over the file
    doc2 = run_json(["hmeasure", "--config", str(cfg), "--base", "0.8"])
    assert doc2["parameters"]["base"]["re"] == pytest.approx(0.8)


def test_missing_radius_is_usage_error():
    result = run_cli(["hmeasure", "--base", "0.7"])
    assert result.exit_code == 2


def test_biharmonic_needs_a_radius_only_off_the_disk():
    # the disk solve reads no inner radius, so --r is optional there and the
    # schema excuses only a biharmonic document on the disk from parameters.r
    grid = ["--n-rho", "32", "--n-theta", "32"]
    disk = run_json(["biharmonic", "--disk", "--pole", "0.3", *grid])
    assert "r" not in disk["parameters"] and disk["results"]["disk"] is True
    assert disk["results"] == run_json(["biharmonic", "--r", "0.5", "--disk", "--pole", "0.3",
                                        *grid])["results"]
    assert run_cli(["biharmonic", "--pole", "0.7", *grid]).exit_code == 2
    ring = run_json(["biharmonic", "--r", "0.5", "--pole", "0.7", *grid])
    for doc in (ring, run_json(["hmeasure", "--r", "0.5"])):
        del doc["parameters"]["r"]
        with pytest.raises(jsonschema.ValidationError, match="'r' is a required property"):
            jsonschema.validate(doc, SCHEMA)


def test_csv_format(tmp_path):
    out = tmp_path / "res.csv"
    result = run_cli(["hmeasure", "--r", "0.5", "--base", "0.7", "--j", "1",
                      "--format", "csv", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("c0,") for line in lines)


# a divisor-ladder geometry whose candidate divisor dips below 1e-10 on the
# outer counting circle, so quasicontract_estimate cannot count it: exit 4
QC_ESTIMATE_UNVERIFIED = ["qc-estimate", "--r", "0.6893046228590225",
                          "--base", "-0.6493103795246503+0.6351763126453396i",
                          "--zeros", "-0.29992573373215337+0.7047364954006582i"]


@pytest.mark.parametrize("args", [
    ["kernel-zeros", "--r", "0.5", "--base", "0.7"],
    ["qc-estimate", "--r", "0.5", "--base", "0.6", "--zeros", "0.8", "--m", "256"],
    QC_ESTIMATE_UNVERIFIED,
])
def test_csv_rows_read_back(args):
    # a CSV reader sees two fields a row: the results, then the status, the
    # tolerances and any ladder; complex values parse back with parse_complex
    # and lists and dicts with json.loads, all to the JSON document's value
    import csv
    code = 4 if args is QC_ESTIMATE_UNVERIFIED else 0
    json_run, csv_run = run_cli(args), run_cli([*args, "--format", "csv"])
    assert json_run.exit_code == csv_run.exit_code == code, csv_run.output
    doc = json.loads(json_run.stdout)
    jsonschema.validate(doc, SCHEMA)
    results = doc["results"]
    rows = list(csv.reader(csv_run.stdout.splitlines()))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    fields = dict(rows[1:])
    documented = [k for k in ("status", "tolerances", "ladder") if k in doc]
    assert sorted(fields) == sorted([*results, *documented])
    assert fields["status"] == doc["status"] == ("ok" if code == 0 else "unverified")
    assert json.loads(fields["tolerances"]) == doc["tolerances"]
    assert ("ladder" in fields) == (args[0] == "qc-estimate" and code == 0)
    if "ladder" in fields:
        assert json.loads(fields["ladder"]) == doc["ladder"]
    complex_keys = [k for k, v in results.items() if isinstance(v, dict)]
    list_keys = [k for k, v in results.items() if isinstance(v, list)]
    assert complex_keys or list_keys or code == 4
    for key in complex_keys:
        assert cli.parse_complex(fields[key]) == complex(results[key]["re"], results[key]["im"])
    for key in list_keys:
        assert json.loads(fields[key]) == results[key]
    if code == 4:
        assert fields["error"] == results["error"]


def test_schottky_fit_document():
    doc = run_json(["schottky-fit", "--r", "0.5", "--base", "0.7",
                    "--zeros", "0.6i", "--N", "96"])
    res = doc["results"]
    assert res["fit_residual"] <= 1e-6
    assert res["reproducing_residual"] <= 1e-7
    assert not res["inner_by_constant_modulus"]
    assert max(res["modulus_deviation_outer"], res["modulus_deviation_inner"]) > 1e-3


def test_repeat_runs_identical():
    args = ["qc-divisor", "--r", "0.5", "--zeros", "0.7"]
    d1, d2 = run_json(args), run_json(args)
    assert json.dumps(d1["results"], sort_keys=True) == json.dumps(d2["results"], sort_keys=True)


def test_qc_estimate_ladder_and_flags():
    doc = run_json(["qc-estimate", "--r", "0.5", "--base", "0.6",
                    "--zeros", "0.8", "--m", "256"])
    assert [entry["N"] for entry in doc["ladder"]] == [8, 16, 24, 32]
    assert doc["results"]["flags"] == ""
    doc_raw = run_json(["qc-estimate", "--r", "0.5", "--base", "0.6",
                        "--zeros", "0.8", "--m", "256", "--undivided"])
    assert "EXTRANEOUS_ZERO" in doc_raw["results"]["flags"]
    raw_ladder = [entry["estimate"] for entry in doc_raw["ladder"]]
    assert all(b > a for a, b in zip(raw_ladder, raw_ladder[1:]))


def test_qc_estimate_without_a_kernel_zero_exits_unverified(tmp_path):
    # a divisor-ladder seed-3 geometry with no extra kernel zero: K_I(., z0)
    # counts only z1 at every window, so there is nothing to divide out
    out = tmp_path / "doc.json"
    result = run_cli(["qc-estimate", "--r", "0.3942202296243591",
                      "--base", "0.6288790129871104+0.1797656040007157i",
                      "--zeros", "-0.8043390525490887+0.38334320042113557i", "--out", str(out)])
    assert result.exit_code == 4
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["status"] == "unverified"
    assert doc["results"]["error"] == ("argument principle counted 1 where 2 ring zeros "
                                       "were expected at windows 96, 192, 384, 768")


def test_qc_estimate_divides_a_kernel_zero_the_weighted_section_missed():
    # divisor-ladder seed 3: the |B_z1|^2-weighted section at N=96 did not
    # count the one zero this needs (exit 4); K_I(., z0) counts z1 and w*
    doc = run_json(["qc-estimate", "--r", "0.5894741329579944",
                    "--base", "-0.2284037034622797+0.6604280890536979i",
                    "--zeros", "-0.6485426130930246+0.4054512737015564i"])
    assert doc["status"] == "ok"
    assert doc["results"]["flags"] == ""


@pytest.mark.parametrize("argv, passes", [
    (["kernel-zeros", "--r", "0.5", "--base", "0.7"], 2),            # the section
    (["candidate-divisor", "--r", "0.6", "--zeros", "0.8"], 4),      # section, candidate
    (["qc-estimate", "--r", "0.5", "--base", "0.6", "--zeros", "0.8"], 4),  # the same
])
def test_each_function_is_counted_once(monkeypatch, argv, passes):
    # a count is one winding pass per circle; locating reuses the count
    from ringspace import kernels
    calls = []
    winding = kernels._winding_on_circle
    monkeypatch.setattr(kernels, "_winding_on_circle",
                        lambda *args: calls.append(args[1]) or winding(*args))
    run_json(argv)
    assert len(calls) == passes


def test_remaining_command_surfaces():
    doc = run_json(["singular", "--r", "0.5", "--base", "0.7", "--atoms", "1:-1"])
    assert doc["results"]["ring_zero_count"] == 0
    assert doc["results"]["atom_count"] == 1

    doc = run_json(["inner-verify", "--r", "0.5", "--base", "0.7",
                    "--zeros", "0.7,0.6i"])
    assert doc["results"]["inner_by_constant_modulus"]

    doc = run_json(["blaschke", "--r", "0.5", "--base", "0.7", "--zeros", "0.7,0.6i"])
    assert doc["results"]["ring_zero_count"] == 2
    assert doc["results"]["factors_used"] == 2

    doc = run_json(["kernel", "--r", "0.5", "--base", "0.7", "--space", "smirnov"])
    assert doc["results"]["reproduce_residual"] <= 1e-9
    assert doc["results"]["value_at_base"] > 0

    doc = run_json(["extremal", "--r", "0.5", "--base", "0.7", "--zeros", "0.6i",
                    "--space", "bergman", "--N", "32"])
    assert doc["results"]["max_value_at_zeros"] <= 1e-10
    assert doc["results"]["formulation_equivalence"] <= 1e-9
    assert doc["results"]["kernel_product_deviation"] <= 1e-6

    doc = run_json(["candidate-divisor", "--r", "0.5", "--base", "0.6",
                    "--zeros", "0.8"])
    assert doc["results"]["zero_location"]["re"] == pytest.approx(0.8, abs=1e-7)
    assert not doc["results"]["inner_by_constant_modulus"]

    doc = run_json(["decomposition", "--r", "0.5", "--base", "0.7",
                    "--zeros", "-0.6", "--N", "48"])
    assert doc["results"]["residual"] <= 1e-5
    assert doc["results"]["log_radial_moment"] == pytest.approx(-0.6337007225202719)


@pytest.mark.parametrize("zeros", [[], ["--zeros", "-0.6"]])
def test_decomposition_evaluates_g_at_no_quadrature_node(monkeypatch, zeros):
    # the gauge and every pairing of |G|^2 come from G's Laurent coefficients:
    # no area rule is built and G is neither called nor summed on rings
    from ringspace import spaces
    from ringspace.laurent import LaurentPolynomial
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(spaces, "area_quadrature", counted("area_quadrature",
                                                           spaces.area_quadrature))
    for name in ("__call__", "on_rings"):
        monkeypatch.setattr(LaurentPolynomial, name,
                            counted(name, getattr(LaurentPolynomial, name)))
    doc = run_json(["decomposition", "--r", "0.5", "--base", "0.7", *zeros])
    assert doc["results"]["residual"] <= 1e-5
    assert calls == []


# ------------------------------------------------------------ flag surface

# Every flag: its option, type name and default; the booleans are the on/off flags.
OPTIONS = {
    "r": ("--r", "float", None), "base": ("--base", "complex", None),
    "zeros": ("--zeros", "zeros", ()), "atoms": ("--atoms", "atoms", ()),
    "N": ("--N", "integer", 64), "m": ("--m", "integer", 512), "j": ("--j", "integer", 1),
    "space": ("--space", "choice", "bergman"), "undivided": ("--undivided", "boolean", False),
    "pole": ("--pole", "complex", None), "disk": ("--disk", "boolean", False),
    "n_rho": ("--n-rho", "integer", 64), "n_theta": ("--n-theta", "integer", 64),
    "grid_out": ("--grid-out", "text", None), "out": ("--out", "text", None),
    "format": ("--format", "choice", "json"), "config_path": ("--config", "file", None),
}
COMMON = ["r", "out", "format", "config_path"]
# The flags each subcommand takes beyond COMMON: exactly the ones it reads.
FLAGS = {
    "green": ["m", "pole", "grid_out"],
    "hmeasure": ["base", "j"],
    "blaschke": ["base", "zeros", "m"],
    "singular": ["base", "atoms", "m"],
    "inner-verify": ["base", "zeros", "atoms", "m"],
    "kernel": ["base", "N", "m", "space", "grid_out"],
    "kernel-zeros": ["base", "N", "m", "space"],
    "extremal": ["base", "zeros", "N", "m", "space"],
    "candidate-divisor": ["base", "zeros", "N"],
    "qc-divisor": ["base", "zeros", "atoms", "m"],
    "qc-estimate": ["base", "zeros", "N", "m", "undivided"],
    "schottky-fit": ["base", "zeros", "N", "m"],
    "decomposition": ["base", "zeros", "N"],
    "biharmonic": ["pole", "disk", "n_rho", "n_theta", "grid_out"],
}


def test_flag_surface():
    # the parser maps every flag a subcommand takes, and only those, to None
    # when none is given
    assert sorted(cli._COMMANDS) == sorted(FLAGS)
    assert sorted(cli._HANDLERS) == sorted(FLAGS)
    for name in FLAGS:
        taken = list(cli._parse_flags(name, []))
        assert taken == COMMON + FLAGS[name], name
        assert [(cli._FLAGS[flag][0], cli._FLAGS[flag][1].name, cli._FLAGS[flag][2])
                for flag in taken] == [OPTIONS[flag] for flag in taken], name
    assert sorted(cli._FLAGS) == sorted(OPTIONS)
    on_off = {flag for flag, (_, kind, _, _) in cli._FLAGS.items() if kind is cli._BOOLEAN}
    assert on_off == {flag for flag, (_, kind, _) in OPTIONS.items() if kind == "boolean"}
    assert sorted(cli._FLAGS["space"][1].choices) == ["arclength", "bergman", "hardy", "smirnov"]
    assert list(cli._FLAGS["format"][1].choices) == ["json", "csv"]
    assert sum(len(cli._parse_flags(name, [])) for name in FLAGS) == 109


# Flags with no default: a document echoes them only when they are given.
UNSET_UNLESS_GIVEN = {"base", "zeros", "atoms", "pole", "grid_out"}
MINIMAL_ARGV = {
    "green": ["--pole", "0.7"],
    "hmeasure": [],
    "blaschke": ["--zeros", "0.7"],
    "singular": [],
    "inner-verify": [],
    "kernel": [],
    "kernel-zeros": [],
    "extremal": [],
    "candidate-divisor": ["--base", "0.6", "--zeros", "0.8"],
    "qc-divisor": ["--zeros", "0.7", "--atoms", "1:-0.5"],
    "qc-estimate": ["--base", "0.6", "--zeros", "0.8", "--m", "256"],
    "schottky-fit": ["--base", "0.7", "--zeros", "0.6i"],
    "decomposition": [],
    "biharmonic": ["--disk", "--pole", "0.3", "--n-rho", "32", "--n-theta", "32"],
}


@pytest.mark.parametrize("name", sorted(MINIMAL_ARGV))
def test_documents_echo_the_flags_taken(name):
    argv = MINIMAL_ARGV[name]
    doc = run_json([name, "--r", "0.5", *argv])
    taken = {flag: cli._FLAGS[flag][0] for flag in cli._parse_flags(name, [])}
    expected = {flag for flag, opt in taken.items() if flag not in ("out", "config_path")
                and (flag not in UNSET_UNLESS_GIVEN or opt in argv)}
    assert set(doc["parameters"]) == expected


@pytest.mark.parametrize("argv", [
    ["green", "--r", "0.5", "--pole", "0.7", "--N", "16"],
    ["green", "--r", "0.5", "--pole", "0.7", "--base", "0.8"],
    ["hmeasure", "--r", "0.5", "--m", "128"],
    ["biharmonic", "--r", "0.5", "--pole", "0.7", "--base", "0.7"],
    ["singular", "--r", "0.5", "--tol", "1e-2"],
    ["singular", "--r", "0.5", "--N", "64"],
], ids=["green-N", "green-base", "hmeasure-m", "biharmonic-base", "singular-tol", "singular-N"])
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv):
    result = run_cli(argv)
    assert result.exit_code == 2
    assert "No such option" in result.output


# ------------------------------------------------ config file vs explicit flags

def test_config_file_supplies_subcommand_flags(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"disk": True, "pole": "0.3", "n_rho": 32, "n_theta": 32}))
    doc = run_json(["biharmonic", "--r", "0.5", "--config", str(cfg)])
    assert doc["results"]["disk"] is True
    assert doc["parameters"]["n_theta"] == 32
    # an explicit subcommand flag wins over the file
    doc = run_json(["biharmonic", "--r", "0.5", "--config", str(cfg), "--n-theta", "64"])
    assert doc["results"]["disk"] is True
    assert doc["parameters"]["n_theta"] == 64
    assert doc["parameters"]["n_rho"] == 32


@pytest.mark.parametrize("content", [
    pytest.param("[0.5, 0.7]", id="json-list"),
    pytest.param(None, id="missing-file"),
    pytest.param('{"r": "abc"}', id="bad-float"),
    pytest.param('{"r": 0.5, "zeros": [[1, 2]]}', id="list-zeros"),
])
def test_config_file_errors_are_usage_errors(tmp_path, content):
    cfg = tmp_path / "run.json"
    if content is not None:
        cfg.write_text(content)
    result = CliRunner().invoke(cli.main, ["blaschke", "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.mark.parametrize("argv", [["singular", "--r", "0.5", "--atoms", "1:abc"],
                                  ["hmeasure", "--r", "0.5", "--base", "abc@1"]],
                         ids=["atom-mass", "polar-modulus"])
def test_unreadable_flag_values_are_usage_errors(argv):
    # the parsers' float errors surface as the flag's usage error, not a traceback
    result = run_cli(argv)
    assert result.exit_code == 2
    assert "Invalid value for" in result.output


def test_explicit_zero_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"r": 0.5, "base": "0.7", "j": 1}))
    assert run_cli(["hmeasure", "--config", str(cfg)]).exit_code == 0
    assert run_cli(["hmeasure", "--config", str(cfg), "--j", "0"]).exit_code == 3


# ------------------------------------------------------------ README examples

def readme_cli_examples():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("ringspace ")]


def test_readme_examples_run(tmp_path, monkeypatch):
    examples = readme_cli_examples()
    assert len(examples) == 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"base": "0.7", "m": 128}))
    for args in examples:
        doc = run_json(args)
        assert doc["command"] == args[0]


@pytest.mark.parametrize("args, keys", [
    (["qc-divisor", "--r", "0.5", "--zeros", "0.7,0.6i"],
     ["boundary_modulus_min", "boundary_modulus_max"]),
    (["extremal", "--r", "0.5", "--base", "0.7", "--zeros", "-0.6", "--space", "hardy",
      "--N", "32"], ["formulation_equivalence", "norm"]),
])
def test_subcommand_grids_on_rings_match_horner(args, keys, monkeypatch):
    # qc-divisor's boundary moduli and extremal's equivalence grid take one FFT
    # a ring; the documents' values agree with point values by numpy Horner
    got = run_json(args)["results"]
    monkeypatch.setattr(cli, "ring_values", horner_ring_values)
    oracle = run_json(args)["results"]
    for key in keys:
        assert abs(got[key] - oracle[key]) <= 1e-13 * max(1.0, abs(oracle[key])), key


# ------------------------------------------------------------ parser parity

def test_flag_value_after_an_equals_sign():
    doc = run_json(["hmeasure", "--r=0.5"])
    assert doc["parameters"]["r"] == 0.5


def test_flag_given_twice_takes_the_last_value():
    doc = run_json(["hmeasure", "--r", "0.4", "--r", "0.5"])
    assert doc["parameters"]["r"] == 0.5


def test_space_is_read_case_insensitively():
    doc = run_json(["kernel", "--r", "0.5", "--space", "HARDY", "--N", "8", "--m", "64"])
    assert doc["parameters"]["space"] == doc["results"]["space"] == "hardy"


@pytest.mark.parametrize("argv, phrase", [
    (["hmeasure", "--r"], "requires an argument"),
    (["nosuch"], "No such command"),
    (["hmeasure", "--r", "0.5", "stray"], "unexpected extra argument"),
    (["hmeasure", "--r", "0.5", "--config", "{tmp}/nonexistent.json"],
     "Invalid value for '--config'"),
    (["hmeasure", "--r", "abc"], "Invalid value for '--r'"),
    (["kernel", "--r", "0.5", "--space", "fish"], "Invalid value for '--space'"),
    (["hmeasure", "--r", "0.5", "--format", "xml"], "Invalid value for '--format'"),
    (["hmeasure", "--r", "0.5", "--j", "1.5"], "Invalid value for '--j'"),
    (["biharmonic", "--r", "0.5", "--disk=1", "--pole", "0.3"], "does not take a value"),
], ids=["missing-value", "no-command", "extra-argument", "missing-config", "bad-float",
        "bad-choice", "bad-format", "bad-integer", "flag-value"])
def test_parse_errors_exit_2_with_their_phrase(tmp_path, argv, phrase):
    result = CliRunner().invoke(cli.main, [a.format(tmp=tmp_path) for a in argv])
    assert result.exit_code == 2
    assert phrase in result.output
    assert "Traceback" not in result.output


def test_no_arguments_lists_the_subcommands():
    result = CliRunner().invoke(cli.main, [])
    assert result.exit_code == 2
    listed = [line.split()[0] for line in result.output.split("Commands:", 1)[1].splitlines()
              if line.strip()]
    assert listed == sorted(cli._COMMANDS)
    assert len(listed) == 14


def test_version():
    result = CliRunner().invoke(cli.main, ["--version"])
    assert result.exit_code == 0
    assert result.output == "ringspace, version 0.1.0\n"


@pytest.mark.parametrize("name", sorted(FLAGS))
def test_subcommand_help_lists_its_flags(name):
    result = CliRunner().invoke(cli.main, [name, "--help"])
    assert result.exit_code == 0
    listed = [line.split()[0] for line in result.output.splitlines() if line.startswith("  --")]
    assert listed == [OPTIONS[flag][0] for flag in COMMON + FLAGS[name]] + ["--help"]


def _exit_code(argv) -> int:
    """The code ``main.main`` exits with outside standalone mode, as the benchmark calls it."""
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=argv, prog_name="ringspace", standalone_mode=False)
    return exc.value.code


def test_main_outside_standalone_mode_raises_the_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps({"base": "0.7", "m": 128}))
    out = str(tmp_path / "doc.json")
    for args in readme_cli_examples():
        assert _exit_code([*args, "--out", out]) == 0, args
    assert _exit_code(["green", "--r", "1.5", "--pole", "0.7", "--out", out]) == 3

    def broken(config):
        raise ConvergenceError("did not settle")
    monkeypatch.setitem(cli._HANDLERS, "hmeasure", broken)
    assert _exit_code(["hmeasure", "--r", "0.5", "--out", out]) == 4


# ---------------------------------------------------------------- heap policy

def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def _repeat_call_faults(tmp_path, **env) -> int:
    """Minor page faults of the third of three identical ``kernel-zeros`` calls in a
    fresh interpreter: the first two warm the heap up."""
    code = ("import resource, sys\n"
            "from ringspace import cli\n"
            "argv = ['kernel-zeros', '--r', '0.5', '--base', '0.7', '--space', 'hardy',\n"
            "        '--N', '96', '--out', sys.argv[1]]\n"
            "def call():\n"
            "    try:\n"
            "        cli.main.main(args=argv, standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        if exc.code != 0:\n"
            "            raise\n"
            "call(); call()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "call()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    base = {k: v for k, v in os.environ.items()
            if not (k.startswith("MALLOC_") or k == "GLIBC_TUNABLES")}
    child = dict(base, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                 OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", **env)
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "doc.json")], env=child,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_calls_fault_no_freed_blocks_back_in(tmp_path):
    # the CLI keeps freed blocks of the N = 96 Gram and kernel algebra in the heap,
    # so a repeated call does not page-fault them in again (about 880 without)
    assert _repeat_call_faults(tmp_path) < 300


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_users_malloc_setting_wins_over_the_heap_policy(tmp_path):
    # a glibc MALLOC_*_ variable the user set leaves the allocator alone
    assert _repeat_call_faults(tmp_path, MALLOC_TRIM_THRESHOLD_="131072") > 300
