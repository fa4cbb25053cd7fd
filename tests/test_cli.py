import csv
import json
from pathlib import Path

import pytest

from crmimo.cli import ConfigError, Scenario, db_to_linear, main, run_validation

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
    with pytest.raises(ConfigError, match="system"):
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
    for flags in (["--trials", "0"], ["--seed", "-1"], ["--seed", str(2 ** 64 - 2)]):
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


@pytest.mark.parametrize("field, value", [
    ("system.m", "four"),
    ("t_g", "tight"),
    ("geometry.d_st_sr", None),
    ("sweep.steps", "many"),
    ("mc", "fast"),
    ("system.p_p_db", float("nan")),
    ("geometry.d_st_pr", [60.0, "far"]),
])
def test_malformed_values_exit_code(tmp_path, capsys, field, value):
    raw = base_scenario(sweep={"parameter": "d_st_pr", "start": 40.0,
                               "stop": 80.0, "steps": 3})
    *blocks, key = field.split(".")
    section = raw[blocks[0]] if blocks else raw
    section[key] = value
    path = write_scenario(tmp_path, raw)
    assert main(["outage", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and field in err


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


def test_sweep_csv_and_thread_determinism(tmp_path):
    path = str(SCENARIOS / "outage_vs_pr_distance.json")
    out1, out8 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["outage", "--config", path, "--trials", "20000",
                 "--threads", "1", "--out", str(out1)]) == 0
    assert main(["outage", "--config", path, "--trials", "20000",
                 "--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()
    rows = list(csv.DictReader(out1.read_text().splitlines()))
    assert len(rows) == 8
    p_opt = [float(r["p_out_optimal"]) for r in rows]
    assert all(b < a for a, b in zip(p_opt, p_opt[1:]))  # farther PR, lower outage
    p_conv = [float(r["p_out_conventional"]) for r in rows]
    assert all(o <= c for o, c in zip(p_opt, p_conv))


def test_power_command(tmp_path, capsys):
    path = write_scenario(tmp_path, base_scenario())
    assert main(["power", "--config", path]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["slope"] * record["c_threshold"] == pytest.approx(
        record["offset"], rel=1e-12)
    assert record["lambda"] > 0


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
    raw = base_scenario()
    raw["system"]["n"] = 1  # breaks n >= m
    path = write_scenario(tmp_path, raw)
    assert main(["validate", "--config", path, "--trials", "1000"]) == 2
    assert "n must be an integer >= m" in capsys.readouterr().err


def test_validation_grid_passes(tmp_path):
    checks, passed = run_validation(trials=40000, seed=1, threads=2)
    assert passed, [c for c in checks if not c["pass"]]
    out = tmp_path / "report.json"
    assert main(["validate", "--trials", "40000", "--seed", "1",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] and len(report["checks"]) == len(checks)
