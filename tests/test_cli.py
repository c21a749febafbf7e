import csv
import logging
import warnings

import numpy as np
import pytest
import yaml

from helpers import grid_rows, random_panel
from irrvis import (Dataset, ModelMatrixSpec, balance_report, cli, export_csv,
                    load_csv)
from irrvis.cli import main
from irrvis.riskset import RiskStructure


def write_config(path, payload):
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


def panel_csv(tmp_path, seed=1, **kw):
    path = tmp_path / "panel.csv"
    kw.setdefault("n_patients", 12)
    kw.setdefault("p_visit", 0.4)
    export_csv(random_panel(seed, **kw), path)
    return str(path)


def run(*argv):
    return main(list(argv))


def test_analyze_unweighted(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.yaml", {
        "input": panel_csv(tmp_path),
        "analyze": {"x_terms": ["1", "z1"]},
    })
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    assert (out / "sweep.csv").exists()
    assert (out / "manifest.txt").exists()
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header.startswith("phi,term,estimate")
    assert not list(out.glob("weights_phi*"))


def test_analyze_weighted_writes_per_phi_artifacts(tmp_path):
    cfg = write_config(tmp_path / "a.yaml", {
        "input": panel_csv(tmp_path, n_patients=16),
        "analyze": {"weight_kind": "mle", "z_terms": ["z1"],
                    "x_terms": ["1", "z1"], "phi_grid": [0.0, 0.5]},
    })
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    for tag in ("0", "0.5"):
        assert (out / f"cox_phi{tag}.csv").exists()
        assert (out / f"weights_phi{tag}.csv").exists()
    assert not list(out.glob("balance_phi*"))
    cox_lines = (out / "cox_phi0.csv").read_text().splitlines()
    assert cox_lines[0] == "section,key,value"
    assert any(l.startswith("coef,z1,") for l in cox_lines)
    assert any(l.startswith("breslow,") for l in cox_lines)
    w_lines = (out / "weights_phi0.csv").read_text().splitlines()
    assert w_lines[0] == "patient_id,visit_time,weight,kind"


def test_analyze_balancing_writes_balance_table(tmp_path):
    cfg = write_config(tmp_path / "a.yaml", {
        "input": panel_csv(tmp_path, n_patients=16),
        "analyze": {"weight_kind": "balancing", "z_terms": ["z1"],
                    "h_terms": ["1", "z1"], "x_terms": ["1", "z1"]},
    })
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    lines = (out / "balance_phi0.csv").read_text().splitlines()
    assert lines[0] == "term,residual,standardized_residual,zero_sd"
    resid = [abs(float(l.split(",")[1])) for l in lines[1:]]
    assert max(resid) < 1e-6


def test_term_lists_accept_bare_yaml_numbers(tmp_path):
    # `x_terms: [1, z1]` parses the 1 as an int, not the string "1"
    cfg = write_config(tmp_path / "a.yaml", {
        "input": panel_csv(tmp_path),
        "analyze": {"x_terms": [1, "z1"]},
    })
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    body = (out / "sweep.csv").read_text()
    assert ",1," in body


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_calibrate_artifacts(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", {
        "input": panel_csv(tmp_path, n_patients=30, n_periods=6),
        "calibrate": {"z_terms": ["z1"]},
    })
    out = tmp_path / "out"
    assert run("calibrate", "--config", cfg, "--output", str(out)) == 0
    table = (out / "calibration.csv").read_text().splitlines()
    assert table[0] == "quantity,value"
    report = (out / "calibration_report.txt").read_text()
    grid = [l for l in report.splitlines()
            if l.startswith("suggested_phi_grid=")][0]
    values = grid.split("=", 1)[1].split(",")
    assert len(values) == 7
    assert float(values[0]) == 0.0


def test_simulate_outputs_identical_across_threads(tmp_path):
    payload = {
        "seed": 5,
        "simulate": {"outcome": "continuous", "gamma_z": 0.5,
                     "phi_true": 0.0, "n": 40,
                     "scenario": "s1_noSF_correctZ", "n_reps": 2},
    }
    cfg = write_config(tmp_path / "s.yaml", payload)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("simulate", "--config", cfg, "--output", str(out1),
               "--threads", "1") == 0
    assert run("simulate", "--config", cfg, "--output", str(out2),
               "--threads", "2") == 0
    for name in ("metrics.csv", "replicates.csv", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    reps = (out1 / "replicates.csv").read_text().splitlines()
    assert reps[0] == "rep,estimator,parameter,estimate"
    # 4 estimators x 2 reps x 2 parameters
    assert len(reps) == 1 + 16


def test_weights_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "w.yaml", {
        "input": panel_csv(tmp_path, n_patients=16),
        "weights": {"kind": "balancing", "z_terms": ["z1"],
                    "h_terms": ["1", "z1"], "phi": 0.25},
    })
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run("weights", "--config", cfg, "--output", str(out1)) == 0
    assert run("weights", "--config", cfg, "--output", str(out2)) == 0
    for name in ("cox_phi0.25.csv", "weights_phi0.25.csv",
                 "balance_phi0.25.csv", "manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("section", [
    {"kind": "mle", "z_terms": ["z1"]},
    {"kind": "mle", "z_terms": ["z1"], "h_terms": ["1", "z1"]},
    {"kind": "balancing", "z_terms": ["z1"], "h_terms": ["1", "z1"]},
], ids=["mle", "mle_h_terms", "balancing"])
def test_analyze_artifacts_match_weights_command(tmp_path, section):
    grid = [0.0, 0.25, 0.5]
    analyze = {"weight_kind": section["kind"], "x_terms": ["1", "z1"],
               "phi_grid": grid}
    analyze.update({k: v for k, v in section.items() if k != "kind"})
    data = panel_csv(tmp_path, n_patients=16)
    cfg = write_config(tmp_path / "a.yaml", {"input": data, "analyze": analyze})
    out = tmp_path / "analyze"
    assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    names = ["cox", "weights"] + (["balance"] if "h_terms" in section else [])
    for phi in grid:
        cfg_w = write_config(tmp_path / "w.yaml", {
            "input": data, "weights": {**section, "phi": phi}})
        out_w = tmp_path / f"weights{phi:g}"
        assert run("weights", "--config", cfg_w, "--output", str(out_w)) == 0
        for name in names:
            file = f"{name}_phi{phi:g}.csv"
            assert (out / file).read_bytes() == (out_w / file).read_bytes()
    assert len(list(out.glob("*_phi*.csv"))) == len(names) * len(grid)


def test_analyze_skips_artifacts_of_a_failed_phi(tmp_path, caplog):
    # exp(-200 y) overflows at some visit, so phi = 200 fails its point fit
    data = tmp_path / "panel.csv"
    export_csv(random_panel(1, n_patients=16, p_visit=0.4, outcome_sd=5.0),
               data)
    cfg = write_config(tmp_path / "a.yaml", {
        "input": str(data),
        "analyze": {"weight_kind": "mle", "z_terms": ["z1"],
                    "h_terms": ["1", "z1"], "x_terms": ["1", "z1"],
                    "phi_grid": [0.0, 0.5, 200.0]},
    })
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="irrvis"):
        assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    header, *lines = (out / "sweep.csv").read_text().splitlines()
    converged = header.split(",").index("converged")
    failed = [l.split(",") for l in lines if l.startswith("200.0,")]
    assert len(failed) == 2
    assert all(f[2] == "nan" and f[converged] == "0" for f in failed)
    assert all(l.split(",")[converged] == "1" for l in lines
               if not l.startswith("200.0,"))
    for name in ("cox", "weights", "balance"):
        assert not (out / f"{name}_phi200.csv").exists()
        for tag in ("0", "0.5"):
            assert (out / f"{name}_phi{tag}.csv").exists()
    warning = [r.getMessage() for r in caplog.records
               if r.levelno == logging.WARNING]
    assert len(warning) == 1
    assert "stage 'selection values' failed at phi=200" in warning[0]
    assert "no artifact files written" in warning[0]


def test_analyze_rejects_two_phis_of_one_file_name(tmp_path, capsys):
    # per-phi files are named by format(phi, "g"), six significant digits:
    # 0.1 and 0.1000001 would both write cox_phi0.1.csv, the second over
    # the first, so the grid is refused before anything is fitted
    data = panel_csv(tmp_path, n_patients=16)
    section = {"weight_kind": "mle", "z_terms": ["z1"], "x_terms": ["1", "z1"]}
    cfg = write_config(tmp_path / "a.yaml", {
        "input": data, "analyze": {**section, "phi_grid": [0.0, 0.1, 0.1000001]}})
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--output", str(out)) == 1
    assert "phi_grid values 0.1 and 0.1000001" in capsys.readouterr().err
    assert not list(out.iterdir())
    # one more digit of difference names the files apart
    cfg = write_config(tmp_path / "b.yaml", {
        "input": data, "analyze": {**section, "phi_grid": [0.1, 0.100001]}})
    assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    for tag in ("0.1", "0.100001"):
        assert (out / f"cox_phi{tag}.csv").exists()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def panel_with_visit_constant_covariate(seed=1):
    # covariate c is 1 at every visit row and z1 elsewhere, so the balance
    # solve drops the term c (constant at the visits) but reports it
    ds = random_panel(seed, n_patients=16, p_visit=0.4)
    c = np.where(ds.visit, 1.0, ds.covariates[:, 0])
    return Dataset(ds.patient_ids, ds.patient_index, ds.start, ds.end, ds.at_risk,
                   ds.visit, ds.outcome, np.column_stack([ds.covariates, c]),
                   ds.covariate_names + ("c",), ds.tau)


@pytest.mark.parametrize("kind, h_terms, visit_constant", [
    ("balancing", ["1", "z1", "t*z1"], False),
    ("mle", ["1", "z1", "t"], False),
    ("balancing", ["1", "z1", "c", "t*c"], True),
], ids=["balancing", "mle_h_terms", "balancing_drops_c"])
def test_analyze_balance_files_equal_balance_report(tmp_path, monkeypatch, kind,
                                                    h_terms, visit_constant):
    data = tmp_path / "panel.csv"
    if visit_constant:
        export_csv(panel_with_visit_constant_covariate(), data)
    else:
        export_csv(random_panel(1, n_patients=16, p_visit=0.4), data)
    grid = [0.0, 0.25, 0.5]
    cfg = write_config(tmp_path / "a.yaml", {
        "input": str(data),
        "analyze": {"weight_kind": kind, "z_terms": ["z1"], "h_terms": h_terms,
                    "x_terms": ["1", "z1"], "phi_grid": grid}})
    # count risk-structure builds once the sweep has returned: those of the
    # per-phi artifact loop
    builds = []
    init, run_sweep = RiskStructure.__init__, cli.sweep

    def counted_init(self, *args, **kw):
        builds.append(1)
        init(self, *args, **kw)

    def sweep_then_count(*args, **kw):
        result = run_sweep(*args, **kw)
        monkeypatch.setattr(RiskStructure, "__init__", counted_init)
        return result

    monkeypatch.setattr(cli, "sweep", sweep_then_count)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    assert len(builds) == 1
    monkeypatch.undo()
    dropped = [w for w in caught
               if "constant at every visit row dropped: c" in str(w.message)]
    assert len(dropped) == (len(grid) if visit_constant else 0)

    ds = load_csv(data)
    hspec = ModelMatrixSpec(h_terms)
    for phi in grid:
        tag = format(phi, "g")
        cox = read_csv(out / f"cox_phi{tag}.csv")
        breslow = ([float(r["key"]) for r in cox if r["section"] == "breslow"],
                   [float(r["value"]) for r in cox if r["section"] == "breslow"])
        w = np.array([float(r["weight"])
                      for r in read_csv(out / f"weights_phi{tag}.csv")])
        written = read_csv(out / f"balance_phi{tag}.csv")
        expected = balance_report(ds, hspec, w, breslow)
        assert [r["term"] for r in written] == [r["term"] for r in expected]
        for got, want in zip(written, expected):
            assert float(got["residual"]) == want["residual"]
            assert float(got["standardized_residual"]) == want["standardized_residual"]
            assert got["zero_sd"] == str(int(want["zero_sd"]))


@pytest.mark.parametrize("terms", [["nosuch"], [1, "z1"]])
def test_calibrate_config_error_exits_1(tmp_path, capsys, terms):
    cfg = write_config(tmp_path / "c.yaml", {
        "input": panel_csv(tmp_path, n_patients=30, n_periods=6),
        "calibrate": {"z_terms": terms},
    })
    assert run("calibrate", "--config", cfg, "--output", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert err.startswith("irrvis:")
    assert "stage" not in err


SIMULATE = {"outcome": "continuous", "gamma_z": 0.5, "phi_true": 0.0, "n": 40,
            "scenario": "s1_noSF_correctZ", "n_reps": 2}
ANALYZE = {"x_terms": ["1", "z1"]}
BOOTSTRAP = {**ANALYZE, "resampling": "bootstrap"}
WEIGHTS = {"kind": "mle", "z_terms": ["z1"]}
CALIBRATE = {"z_terms": ["z1"]}


MISTYPED = [
    ("simulate", SIMULATE, "n", "ten", "key 'n' in section 'simulate'"),
    ("simulate", SIMULATE, "n", 40.5, "key 'n' in section 'simulate'"),
    ("simulate", SIMULATE, "n", True, "key 'n' in section 'simulate'"),
    ("simulate", SIMULATE, "gamma_z", "strong", "key 'gamma_z' in section"),
    ("simulate", SIMULATE, "phi_true", [0.5], "key 'phi_true' in section"),
    ("simulate", SIMULATE, "n_reps", "many", "key 'n_reps' in section"),
    ("simulate", SIMULATE, "gamma_z", float("nan"), "gamma_z must be finite"),
    ("simulate", SIMULATE, "phi_true", float("inf"), "phi_true must be finite"),
    ("analyze", ANALYZE, "weight_kind", {"a": 1}, "unknown weight kind {'a': 1}"),
    ("analyze", ANALYZE, "weight_kind", "mlee", "unknown weight kind 'mlee'"),
    ("analyze", ANALYZE, "theta", "wide", "key 'theta' in section 'analyze'"),
    ("analyze", ANALYZE, "phi_grid", [0.0, "half"], "key 'phi_grid' in section"),
    ("analyze", ANALYZE, "phi_grid", [False, 1.0], "key 'phi_grid' in section"),
    ("analyze", BOOTSTRAP, "bootstrap_b", "many", "key 'bootstrap_b' in section"),
    ("analyze", BOOTSTRAP, "bootstrap_seed", {"a": 1}, "key 'bootstrap_seed'"),
    ("calibrate", CALIBRATE, "time_spline_df", "five", "key 'time_spline_df'"),
    ("calibrate", CALIBRATE, "target_rho2", "high", "key 'target_rho2'"),
    ("weights", WEIGHTS, "phi", "half", "key 'phi' in section 'weights'"),
    ("simulate", SIMULATE, "seed", True, "'seed' must be a non-negative integer"),
    ("analyze", ANALYZE, "input", ["panel.csv"], "needs an 'input' CSV path"),
    ("analyze", ANALYZE, "output", 5, "no output directory"),
]


@pytest.mark.parametrize("command, section, key, value, message", MISTYPED,
                         ids=[f"{c[0]}-{c[2]}={c[3]!r}" for c in MISTYPED])
def test_mistyped_config_value_exits_1(tmp_path, capsys, command, section, key,
                                       value, message):
    payload = {command: dict(section)}
    if command != "simulate":
        payload["input"] = panel_csv(tmp_path)
    if key in ("seed", "input", "output"):
        payload[key] = value
    else:
        payload[command][key] = value
    argv = [command, "--config", write_config(tmp_path / "c.yaml", payload)]
    if key != "output":
        argv += ["--output", str(tmp_path / "o")]
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("irrvis:")
    assert message in err
    assert "Traceback" not in err


def test_unknown_section_key_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.yaml", {
        "input": panel_csv(tmp_path),
        "analyze": {"wieght_kind": "mle", "x_terms": ["1"]},
    })
    assert run("analyze", "--config", cfg, "--output", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "wieght_kind" in err
    assert err.startswith("irrvis:")


def test_missing_input_and_unreadable_input(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.yaml", {"analyze": {"x_terms": ["1"]}})
    assert run("analyze", "--config", cfg, "--output", str(tmp_path / "o")) == 1
    assert "'input'" in capsys.readouterr().err
    cfg2 = write_config(tmp_path / "b.yaml", {
        "input": str(tmp_path / "nope.csv"),
        "analyze": {"x_terms": ["1"]},
    })
    assert run("analyze", "--config", cfg2, "--output", str(tmp_path / "o")) == 1
    assert "cannot read input file" in capsys.readouterr().err


def test_numeric_failure_exits_2(tmp_path, capsys):
    rows = grid_rows("a", {"z1": 1.0}, {1: 0.5, 3: 0.25})
    rows += grid_rows("b", {"z1": 1.0}, {2: 0.0})
    path = tmp_path / "flat.csv"
    export_csv(Dataset.from_rows(rows, tau=4.0), path)
    cfg = write_config(tmp_path / "w.yaml", {
        "input": str(path),
        "weights": {"kind": "mle", "z_terms": ["z1"]},
    })
    assert run("weights", "--config", cfg, "--output", str(tmp_path / "o")) == 2
    assert "rank deficient" in capsys.readouterr().err


def test_missing_output_and_bad_yaml(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.yaml", {
        "input": panel_csv(tmp_path),
        "analyze": {"x_terms": ["1"]},
    })
    assert run("analyze", "--config", cfg) == 1
    assert "no output directory" in capsys.readouterr().err
    broken = tmp_path / "broken.yaml"
    broken.write_text("analyze: [unclosed\n")
    assert run("analyze", "--config", str(broken),
               "--output", str(tmp_path / "o")) == 1
    assert "not valid YAML" in capsys.readouterr().err


def test_mixing_plain_keys_into_weighted_analysis(tmp_path, capsys):
    cfg = write_config(tmp_path / "a.yaml", {
        "input": panel_csv(tmp_path),
        "analyze": {"x_terms": ["1", "z1"], "z_terms": ["z1"]},
    })
    assert run("analyze", "--config", cfg, "--output", str(tmp_path / "o")) == 1
    assert "only applies to weighted" in capsys.readouterr().err


def test_manifest_is_fixed_and_stamp_free(tmp_path):
    cfg = write_config(tmp_path / "a.yaml", {
        "input": panel_csv(tmp_path),
        "analyze": {"x_terms": ["1", "z1"]},
    })
    out = tmp_path / "out"
    assert run("analyze", "--config", cfg, "--output", str(out)) == 0
    lines = (out / "manifest.txt").read_text().splitlines()
    keys = [l.split("=", 1)[0] for l in lines]
    assert keys == ["command", "config_sha256", "seed", "irrvis",
                    "python", "numpy", "pyyaml"]
    assert lines[0] == "command=analyze"
    assert lines[2] == "seed=0"
    assert len(lines[1].split("=", 1)[1]) == 64
