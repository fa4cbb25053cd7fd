import csv
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import crmimo
from crmimo import leakage, mcharness, outage, powalloc, validation
from crmimo.cli import ConfigError, Scenario, db_to_linear, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def base_scenario(**overrides):
    raw = {
        "system": {"m": 2, "n": 3, "l_t": 2, "l_r": 2, "p_p_db": 10.0,
                   "p_max_db": 20.0, "q_db": 7.0, "gamma_th_db": 3.0},
        "geometry": {"d_st_sr": 25.0, "d_pt_sr": 56.0, "d_st_pr": [60.0, 80.0]},
        "mc": {"trials": 5000, "seed": 11},
    }
    raw.update(overrides)
    return raw


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_db_conversion_applied_once():
    scenario = Scenario(base_scenario())
    config, stats, _ = scenario.build_point()
    assert config.p_p == pytest.approx(10.0, rel=1e-12)
    assert config.p_max == pytest.approx(100.0, rel=1e-12)
    assert config.q == pytest.approx(10 ** 0.7, rel=1e-12)
    assert config.gamma_th == pytest.approx(10 ** 0.3, rel=1e-12)
    assert db_to_linear(0.0) == 1.0
    # scalar distance broadcasts over the transmitter count
    assert stats.l_t == 2 and stats.iid_z


def test_scenario_validation_errors():
    raw = base_scenario()
    raw["system"]["n"] = 1  # n < m
    with pytest.raises(ConfigError, match="SystemConfig.n must be an integer >= m"):
        Scenario(raw)
    raw = base_scenario()
    del raw["system"]["q_db"]
    with pytest.raises(ConfigError, match="system.q_db"):
        Scenario(raw)
    raw = base_scenario()
    raw["means"] = {"mean_x": 1.0, "mean_y_per_pr": [1.0], "mean_z_per_pt": [1.0]}
    with pytest.raises(ConfigError, match="exactly one"):
        Scenario(raw)
    raw = base_scenario(sweep={"parameter": "bogus", "start": 1, "stop": 2, "steps": 2})
    with pytest.raises(ConfigError, match="sweepable"):
        Scenario(raw)
    raw = base_scenario()
    raw["geometry"]["d_pt_sr"] = [50.0]  # wrong length for l_t = 2
    with pytest.raises(ConfigError, match="d_pt_sr"):
        Scenario(raw)


def test_means_block_supported():
    raw = base_scenario()
    del raw["geometry"]
    raw["means"] = {"mean_x": 256.0, "mean_y_per_pr": [1.0, 2.0],
                    "mean_z_per_pt": 10.0}
    scenario = Scenario(raw)
    config, stats, _ = scenario.build_point()
    assert stats.mean_x == 256.0
    assert stats.mean_z_per_pt == (10.0, 10.0)
    assert not stats.iid_y


def test_sweep_values_scales():
    raw = base_scenario(sweep={"parameter": "d_st_pr", "start": 30.0,
                               "stop": 100.0, "steps": 8, "scale": "linear"})
    assert len(Scenario(raw).sweep_values()) == 8
    raw = base_scenario(sweep={"parameter": "m_n", "start": 4, "stop": 64,
                               "steps": 5, "scale": "log"})
    assert Scenario(raw).sweep_values() == [4, 8, 16, 32, 64]
    raw = base_scenario(sweep={"parameter": "q_db", "start": -3.0,
                               "stop": 10.0, "steps": 5, "scale": "log"})
    with pytest.raises(ConfigError, match="log scale"):
        Scenario(raw)
    # one step is the start value alone, on either scale
    raw = base_scenario(sweep={"parameter": "q_db", "start": -3.0,
                               "stop": 10.0, "steps": 1, "scale": "log"})
    assert Scenario(raw).sweep_values() == [-3.0]


def test_config_error_exit_code(tmp_path, capsys):
    raw = base_scenario()
    raw["system"]["n"] = 1
    path = write_scenario(tmp_path, raw)
    assert main(["outage", "--config", path]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["outage", "--config", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_bad_monte_carlo_settings_exit_code(tmp_path, capsys):
    sweep = {"parameter": "d_st_pr", "start": 40.0, "stop": 80.0, "steps": 3}
    path = write_scenario(tmp_path, base_scenario(sweep=sweep))
    # the last sweep point would draw with seed 2^64
    for flags in (["--trials", "0"], ["--seed", "-1"], ["--seed", str(2 ** 64 - 2)],
                  ["--threads", "0"], ["--threads", "-3"]):
        assert main(["outage", "--config", path] + flags) == 2
        assert "configuration error" in capsys.readouterr().err
    assert main(["outage", "--config", path, "--seed", str(2 ** 64 - 3),
                 "--trials", "1000", "--out", str(tmp_path / "ok.csv")]) == 0
    for mc in ({"trials": 0, "seed": 1}, {"trials": 100, "seed": 2 ** 64},
               {"trials": "many", "seed": 1}):
        path = write_scenario(tmp_path, base_scenario(mc=mc))
        assert main(["outage", "--config", path]) == 2
        assert "configuration error" in capsys.readouterr().err
    assert main(["validate", "--seed", str(2 ** 64)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_trial_count_past_bound_exits_before_any_work(tmp_path, capsys, monkeypatch):
    def no_solve(*_):
        raise AssertionError("solved before checking the Monte-Carlo settings")

    monkeypatch.setattr(powalloc, "solve_lambda", no_solve)
    path = write_scenario(tmp_path, base_scenario())
    big = write_scenario(tmp_path, base_scenario(mc={"trials": 10 ** 30, "seed": 1}), "big.json")
    for argv in (["--config", path, "--trials", str(10 ** 30)], ["--config", big]):
        assert main(["outage"] + argv) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: trials must lie in [1, 2^62], got {10 ** 30}\n"


MEANS = {"mean_x": 1.0, "mean_y_per_pr": [1.0, 2.0], "mean_z_per_pt": 1.0}
# (field, value, what the error names): a gain past the float range is
# refused by `pathloss_gain`, which names its arguments d, d_ref and alpha
PAST_RANGE_GAINS = [
    ("geometry.d_st_sr", 1e-100, "(d, d_ref, alpha) = (1e-100, 100.0, 4.0)"),
    ("geometry.d_ref", 1e300, "(d, d_ref, alpha) = (25.0, 1e+300, 4.0)"),
    ("geometry.alpha", 1000.0, "(d, d_ref, alpha) = (25.0, 100.0, 1000.0)"),
]


@pytest.mark.parametrize("field, value", [
    ("system.m", "four"),
    ("t_g", "tight"),
    ("geometry.d_st_sr", None),
    ("sweep.steps", "many"),
    ("mc", "fast"),
    ("system.p_p_db", float("nan")),
    ("geometry.d_st_pr", [60.0, "far"]),
    ("mc.trials", 2000.7),
    ("mc.seed", 1.9),
    ("system.m", 2.6),
    ("sweep.steps", 3.5),
    ("system.m", True),
    ("mc.trials", "3000"),
    ("mc.seed", False),
    ("system.p_p_db", True),
    ("geometry.d_pt_sr", [56.0, True]),
    ("t_g", 0.0),
    ("t_g", 1.5),
    ("sweep.steps", 0),
    ("sweep.scale", "cubic"),
    ("system.p_p_db", 4000.0),
    ("sweep", {"parameter": "q_db", "start": 7.0, "stop": 4000.0, "steps": 3}),
    ("system.n", "five"),
    ("system.l_t", 0.5),
    ("system.l_r", None),
    ("system.p_max_db", "high"),
    ("system.q_db", -4000.0),  # 0.0 once linear
    ("system.gamma_th_db", [3.0]),
    ("system.n0", "1"),
    ("geometry.d_ref", "100"),
    ("geometry.alpha", None),
    ("means.mean_x", "big"),
    ("means.mean_y_per_pr", [1.0, None]),
    ("means.mean_z_per_pt", False),
    ("sweep.start", "near"),
    ("sweep.stop", None),
    *(row[:2] for row in PAST_RANGE_GAINS),
])
def test_malformed_values_exit_code(tmp_path, capsys, field, value):
    raw = base_scenario(sweep={"parameter": "d_st_pr", "start": 40.0,
                               "stop": 80.0, "steps": 3})
    if field.startswith("means."):
        del raw["geometry"]
        raw.update(means=dict(MEANS),
                   sweep={"parameter": "q_db", "start": 4.0, "stop": 10.0, "steps": 3})
    *blocks, key = field.split(".")
    section = raw[blocks[0]] if blocks else raw
    section[key] = value
    path = write_scenario(tmp_path, raw)
    assert main(["outage", "--config", path]) == 2
    err = capsys.readouterr().err
    # a bad value is reported at the field it sets, a swept one too; a path
    # gain past the float range by the path-loss arguments that give it
    named = "system.q_db" if field == "sweep" else field
    named = next((name for f, v, name in PAST_RANGE_GAINS if (f, v) == (field, value)), named)
    assert err.startswith("configuration error: ") and named in err
    assert err.count("\n") == 1


def test_integral_floats_read_as_counts(tmp_path, capsys):
    # a scenario file's integral float, such as 2.0, reads as the int 2
    outs = []
    for m, trials, steps in ((2, 2000, 3), (2.0, 2000.0, 3.0)):
        raw = base_scenario(sweep={"parameter": "d_st_pr", "start": 40.0,
                                   "stop": 80.0, "steps": steps},
                            mc={"trials": trials, "seed": 11})
        raw["system"]["m"] = m
        assert main(["outage", "--config", write_scenario(tmp_path, raw)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_document_errors_exit_code(tmp_path, capsys):
    geometry_sweep_on_means = base_scenario(
        means=MEANS, sweep={"parameter": "d_st_pr", "start": 40.0, "stop": 80.0, "steps": 3})
    del geometry_sweep_on_means["geometry"]
    cases = [
        ("[1, 2]", "scenario: top level must be an object"),
        ('{"system": ', "is not valid JSON"),
        (json.dumps(geometry_sweep_on_means),
         "sweep.parameter: 'd_st_pr' requires a geometry block"),
        (b"\xff\xfe{}", "is not valid JSON: 'utf-8' codec can't decode"),
        ("[" * 100_000, "is not valid JSON: maximum recursion depth exceeded"),
    ]
    for text, message in cases:
        path = tmp_path / "scenario.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        assert main(["outage", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err


def test_system_sweep_rows_equal_single_points(tmp_path, capsys):
    """A q_db sweep point is the scenario with system.q_db replaced: its row
    equals a single-point run at that value and the point's seed."""
    sweep = {"parameter": "q_db", "start": 4.0, "stop": 10.0, "steps": 3}
    path = write_scenario(tmp_path, base_scenario(sweep=sweep))
    assert main(["outage", "--config", path, "--trials", "1500"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [float(r["swept_value"]) for r in rows] == [4.0, 7.0, 10.0]
    for idx, row in enumerate(rows):
        raw = base_scenario(mc={"trials": 1500, "seed": 11 + idx})
        raw["system"]["q_db"] = float(row["swept_value"])
        assert main(["outage", "--config", write_scenario(tmp_path, raw)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert {key: float(value) for key, value in row.items()} \
            == {**record, "swept_value": float(row["swept_value"])}


def test_antenna_count_sweep_past_n_exits_before_monte_carlo(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Monte-Carlo work ran before the bad sweep point failed")

    monkeypatch.setattr(mcharness, "empirical_outage", refuse)
    sweep = {"parameter": "m", "start": 1, "stop": 4, "steps": 4}  # n = 3
    path = write_scenario(tmp_path, base_scenario(sweep=sweep))
    assert main(["outage", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: SystemConfig.n")


@pytest.mark.parametrize("command", ["outage", "validate"])
def test_unwritable_out_exits_before_any_work(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("work ran before the unwritable --out failed")

    monkeypatch.setattr(mcharness, "empirical_outage", refuse)
    monkeypatch.setattr(validation, "run_validation", refuse)
    out = str(tmp_path / "missing" / "x.json")
    flags = ["--config", write_scenario(tmp_path, base_scenario())] if command == "outage" else []
    assert main([command, *flags, "--trials", "2000", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: --out: cannot write {out}\n"


def test_power_command_output_bytes(tmp_path, capsys):
    # the single-point record is written through the shared JSON writer
    path = str(SCENARIOS / "outage_vs_pr_distance.json")
    out = tmp_path / "power.json"
    assert main(["power", "--config", path, "--out", str(out)]) == 0
    text = out.read_text()
    record = json.loads(text)
    assert text == json.dumps(record, indent=2, sort_keys=True) + "\n"
    assert main(["power", "--config", path]) == 0
    assert capsys.readouterr().out == text


def test_power_command_csv_format(capsys):
    # an explicit --format is honoured; without it the record is JSON
    path = str(SCENARIOS / "outage_vs_pr_distance.json")
    assert main(["power", "--config", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert main(["power", "--config", path, "--format", "csv"]) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 1
    assert {key: float(value) for key, value in rows[0].items()} == record


def test_single_point_json_output(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    out = tmp_path / "point.json"
    assert main(["outage", "--config", path, "--trials", "4000",
                 "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record) == {"swept_value", "p_out_optimal", "p_out_conventional",
                           "p_out_mc", "mc_stderr"}
    assert 0.0 <= record["p_out_optimal"] <= 1.0
    assert abs(record["p_out_mc"] - record["p_out_optimal"]) <= 5 * record["mc_stderr"]


@pytest.mark.parametrize("command, scenario, trials", [
    ("outage", "outage_vs_pr_distance.json", 20000),
    ("rate", "rate_vs_array_size.json", 1100),  # two blocks per point
    ("antennas", "antennas_vs_array_size.json", 300),
], ids=["outage", "rate", "antennas"])
def test_sweep_csv_and_thread_determinism(tmp_path, command, scenario, trials):
    path = str(SCENARIOS / scenario)
    out1, out8 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([command, "--config", path, "--trials", str(trials),
                 "--threads", "1", "--out", str(out1)]) == 0
    assert main([command, "--config", path, "--trials", str(trials),
                 "--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    rows = list(csv.DictReader(out1.read_text().splitlines()))
    assert len(rows) == len(Scenario.load(path).sweep_values())
    if command == "outage":
        p_opt = [float(r["p_out_optimal"]) for r in rows]
        assert all(b < a for a, b in zip(p_opt, p_opt[1:]))  # farther PR, lower outage
        p_conv = [float(r["p_out_conventional"]) for r in rows]
        assert all(o <= c for o, c in zip(p_opt, p_conv))


def test_power_reports_the_base_point_of_a_sweep(tmp_path, capsys):
    # the base d_st_pr is 60 m; the sweep starts at 30 m
    raw = json.loads((SCENARIOS / "outage_vs_pr_distance.json").read_text())
    assert main(["power", "--config", str(SCENARIOS / "outage_vs_pr_distance.json")]) == 0
    swept = capsys.readouterr().out
    del raw["sweep"]
    assert main(["power", "--config", write_scenario(tmp_path, raw)]) == 0
    assert swept == capsys.readouterr().out
    raw["geometry"]["d_st_pr"] = 30.0
    assert main(["power", "--config", write_scenario(tmp_path, raw)]) == 0
    assert json.loads(swept) != json.loads(capsys.readouterr().out)


def test_power_command(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    assert main(["power", "--config", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["slope"] * record["c_threshold"] == pytest.approx(
        record["offset"], rel=1e-12)
    assert record["lambda"] > 0


def test_power_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    # a multiplier equation with no bracket: the mean power never reaches the target
    monkeypatch.setattr(powalloc, "_water_fill", lambda lam, config, stats: (0.0, 0.0))
    path = write_scenario(tmp_path, base_scenario())
    assert main(["power", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver error: no bracket for multiplier")


def test_rate_numerical_error_exit_code(tmp_path, capsys, monkeypatch):
    # a quadrature that misses its gate is one stderr line, not a traceback
    def refuse(*args):
        raise ArithmeticError("exp-sinh estimate misses its gate")

    monkeypatch.setattr(outage, "ergodic_capacity", refuse)
    path = write_scenario(tmp_path, base_scenario())
    assert main(["rate", "--config", path, "--trials", "2000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical error: exp-sinh estimate misses its gate\n"


def test_rate_at_large_diversity_order(tmp_path, capsys):
    # capacity's integrand narrows like 1 / sqrt(n - m + 1): from n = 100 on,
    # the step-2^-6 rule must refine, where it once raised (exit 1)
    raw = base_scenario(sweep={"parameter": "n", "start": 80, "stop": 400, "steps": 3})
    raw["system"].update(m=4, n=80)
    raw["geometry"] = {"d_st_sr": 20.0, "d_pt_sr": [56.0, 70.0], "d_st_pr": [60.0, 60.0]}
    path = write_scenario(tmp_path, raw)
    assert main(["rate", "--config", path, "--trials", "1000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [int(r["n_value"]) for r in rows] == [80, 240, 400]
    rates = [float(r["rate_semianalytic"]) for r in rows]
    assert rates == sorted(rates) and rates[0] > 5.0


def test_antennas_trivial_threshold(tmp_path):
    raw = base_scenario(t_g=1.0,
                        sweep={"parameter": "d_st_pr", "start": 40.0,
                               "stop": 80.0, "steps": 3})
    raw["system"]["m"] = 2
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "a.csv"
    assert main(["antennas", "--config", path, "--trials", "200",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(float(r["mean_active"]) == 2.0 for r in rows)
    assert all(r["pmf"].split(";")[-1] == "1.0" for r in rows)


def test_antennas_requires_threshold(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    assert main(["antennas", "--config", path]) == 2
    assert "t_g" in capsys.readouterr().err


def test_antennas_t_g_sweep_past_one_exit_code(tmp_path, capsys, monkeypatch):
    raw = base_scenario(sweep={"parameter": "t_g", "start": 0.5, "stop": 1.5,
                               "steps": 3})
    path = write_scenario(tmp_path, raw)

    def refuse(*args):
        raise AssertionError("Monte-Carlo work ran before the bad sweep point failed")

    monkeypatch.setattr(leakage, "antenna_pmf", refuse)
    assert main(["antennas", "--config", path, "--trials", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: t_g must be finite and lie in (0, 1]")


def test_rate_command(tmp_path):
    raw = base_scenario()
    raw["mc"] = {"trials": 20000, "seed": 3}
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "r.json"
    assert main(["rate", "--config", path, "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["rate_mc"] > 0
    assert record["rate_semianalytic"] == pytest.approx(record["rate_mc"], rel=0.05)


def test_validate_rejects_corrupt_scenario(tmp_path, capsys):
    # validate runs its own grid: it takes no scenario and writes only JSON,
    # so argparse refuses both flags
    raw = base_scenario()
    raw["system"]["n"] = 1  # breaks n >= m
    path = write_scenario(tmp_path, raw)
    for flags in (["--config", path], ["--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--trials", "1000"] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_validation_grid_passes(tmp_path):
    checks, passed = validation.run_validation(trials=40000, seed=1, threads=2)
    assert passed, [c for c in checks if not c["pass"]]
    out = tmp_path / "report.json"
    assert main(["validate", "--trials", "40000", "--seed", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and len(report["checks"]) == len(checks)


@pytest.mark.parametrize("trials", [1, 3])
def test_validate_with_few_trials_fails_cleanly(tmp_path, capsys, trials):
    # every draw alike leaves a zero standard error: a FAIL row, not a crash
    out = tmp_path / "report.json"
    assert main(["validate", "--trials", str(trials), "--seed", "1",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    failed = [c for c in json.loads(out.read_text())["checks"] if not c["pass"]]
    assert captured.out.count("FAIL") == len(failed) >= 1
    assert all(c["observed"] == float("inf") for c in failed)


def test_public_namespace_is_all():
    # every exported name resolves, once, and every public non-module name
    # the package imports is exported: a deleted function cannot linger in
    # either list
    names = crmimo.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(crmimo, name) for name in names)
    imported = {name for name, value in vars(crmimo).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == imported


def test_library_import_leaves_validation_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, crmimo; "
            "print(sorted(m for m in sys.modules if m in ('crmimo.cli', 'crmimo.validation')))")
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout == "[]\n"
    assert not hasattr(outage, "_mixed_outage_quadrature")
    for name in ("DistributionCheck", "empirical_leakage", "zf_distribution_check"):
        assert not hasattr(mcharness, name)


def test_cli_import_leaves_scipy_stats_and_integrate_unloaded():
    """No scipy module at all loads with the library and the CLI: the stage
    chain needs numpy only.  scipy's `expm` loads on a lookup of
    `leakage.expm` (the benchmark tracer's name for it), the only scipy
    import outside `validation`."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = ("import sys, crmimo; from crmimo import cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "crmimo.leakage.expm; print('scipy.linalg' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout == "[]\nTrue\n"
    with pytest.raises(AttributeError):
        leakage.not_a_name
    # (module, indented) for every scipy import statement in the package
    imports = sorted((path.name, line[0].isspace()) for path in (src / "crmimo").glob("*.py")
                     for line in path.read_text().splitlines()
                     if line.lstrip().startswith(("from scipy", "import scipy")))
    assert imports == [("leakage.py", True), ("validation.py", False)]
