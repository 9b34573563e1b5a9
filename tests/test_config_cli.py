import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opodimer.config import (PRESETS, RunConfig, apply_overrides,
                             load_config_file, load_preset)
from opodimer.errors import ConfigError
from opodimer.sde import load_ensemble_dump

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json")
    .read_text(encoding="ascii"))["spectrum"]

DRIVEN = {
    "params": {"J_a": 1.0, "J_b": 1.0, "pump_fraction": 0.5},
    "sde": {"n_traj": 256, "t_measure": 120.0},
}


def run_cli(*args, config=None, tmp_path=None, limit_as=None):
    argv = [sys.executable, "-m", "opodimer.cli", *args]
    if limit_as is not None:
        # an address-space limit makes an oversized allocation fail even on
        # a host that overcommits memory
        argv[1:3] = ["-c", "import resource, sys; resource.setrlimit("
                     f"resource.RLIMIT_AS, ({limit_as}, {limit_as})); "
                     "from opodimer.cli import main; sys.exit(main())"]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return subprocess.run(argv, capture_output=True, text=True)


def parse_csv(text):
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


class TestRunConfig:
    @pytest.mark.parametrize("name", PRESETS)
    def test_presets_load_and_round_trip(self, name):
        cfg = load_preset(name)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("fig7")

    def test_custom_round_trips(self):
        dicts = [
            {"params": {"eps1": [3.0, 1.0], "eps2": 2.5, "J_a": 2.0}},
            {"stability": {"mode": "pump-scan",
                           "pump_fractions": [0.2, 0.9]}},
            {"theta": {"policy": "optimize", "objective": "duan",
                       "at_omega": 1.5}},
            {"vary": [{"label": "a", "params": {"J_a": 5.0}},
                      {"params": {"J_a": 1.0},
                       "theta": {"policy": "fixed", "degrees": 113.0}}],
             "combined": False},
        ]
        for d in dicts:
            cfg = RunConfig.from_dict(d)
            assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected_everywhere(self):
        bad = [
            {"bogus": 1},
            {"params": {"J_c": 1.0}},
            {"sweep": {"omega_end": 3.0}},
            {"theta": {"policy": "fixed", "at_omeg": 0.0}},
            {"stability": {"mode": "coupling-grid", "pump_fractions": [1]}},
            {"sde": {"n_step": 10}},
            {"verify": {"freqs": [0.0]}},
            {"vary": [{"patch": {}}]},
            # sections that are not objects
            5,
            {"params": 5},
            {"sweep": 5},
            {"theta": 5},
            {"stability": 5},
            {"sde": 5},
            {"verify": 5},
            {"vary": [5]},
            {"vary": [{"params": 5}]},
            {"vary": [{"theta": 5}]},
            # SDE settings out of range fail at load time
            {"sde": {"dt": -0.01}},
            {"sde": {"n_traj": 1}},
            {"sde": {"stepper": "rk4"}},
            # values JSON admits but the model does not
            {"params": {"kappa": -1}},
            {"params": {"J_a": float("nan")}},
            {"sweep": {"omega_stop": float("inf")}},
            {"theta": {"degrees": float("nan")}},
            # vary entries are checked against params at load
            {"vary": [{"params": {"kappa": -1}}]},
            {"vary": [{"params": {"J_a": "x"}}]},
            {"vary": [{"params": {"eps": [1.0]}}]},
            {"vary": [{"params": {"pump_fraction": 0.5, "eps": 1.0}}]},
            {"vary": [{"params": {"eps1": 1.0}}]},
            # a sweep whose (n, 8, 8) complex stack passes sys.maxsize bytes
            {"sweep": {"omega_points": 2 ** 62}},
            {"sweep": {"omega_points": 0}},
        ]
        for d in bad:
            with pytest.raises(ConfigError):
                RunConfig.from_dict(d)

    def test_pump_exclusivity(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(
                {"params": {"pump_fraction": 0.5, "eps1": 1.0,
                            "eps2": 1.0}})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"params": {"eps1": 1.0}})

    def test_config_file_round_trip(self, tmp_path):
        cfg = load_preset("fig3")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert load_config_file(path) == cfg

    def test_unreadable_config_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        # not UTF-8; an integer past Python's digit limit; truncated JSON
        for data in (b"\xff{}", b'{"seed": ' + b"1" * 5000 + b"}", b"{"):
            path.write_bytes(data)
            with pytest.raises(ConfigError):
                load_config_file(path)

    def test_overrides_rewrite_values(self):
        cfg = RunConfig.from_dict(DRIVEN)
        out = apply_overrides(cfg, ["params.J_a=2", "sweep.omega_points=11",
                                    "seed=9"])
        assert out.params.J_a == 2.0
        assert out.sweep.omega_points == 11
        assert out.seed == 9
        # original untouched
        assert cfg.params.J_a == 1.0

    def test_override_displaces_pump_group(self):
        cfg = RunConfig.from_dict(
            {"params": {"eps1": [3.0, 0.0], "eps2": 3.0}})
        out = apply_overrides(cfg, ["params.pump_fraction=0.25"])
        assert out.params.pump_fraction == 0.25
        assert out.params.to_params().eps1 != 3.0 + 0j
        # a vary patch follows the same rule: eps1 keeps the base's eps2
        cfg = RunConfig.from_dict({"params": {"eps1": 3.0, "eps2": 2.0},
                                   "vary": [{"params": {"eps1": 1.0}}]})
        (_, spec, _), = cfg.variants()
        assert (spec.eps1, spec.eps2) == (1.0, 2.0)

    def test_override_switches_mode(self):
        cfg = RunConfig()
        out = apply_overrides(cfg, ["stability.mode=pump-scan"])
        assert out.stability.mode == "pump-scan"
        out = apply_overrides(cfg, ["theta.policy=optimize",
                                    "theta.objective=duan"])
        assert (out.theta.policy, out.theta.objective) == ("optimize", "duan")
        back = apply_overrides(out, ["theta.policy=fixed"])
        assert back.theta == RunConfig().theta
        # a key of the other mode, or no mode's key, is still rejected
        for bad in (["stability.mode=pump-scan", "stability.J_a=[1]"],
                    ["theta.policy=optimize", "theta.degrees=3"],
                    ["stability.mode=pump-scan", "stability.bogus=1"]):
            with pytest.raises(ConfigError):
                apply_overrides(cfg, bad)

    @pytest.mark.parametrize("argv", [
        ("stability", "--set", "stability.mode=pump-scan"),
        ("optimize-angle", "--set", "theta.policy=optimize")])
    def test_mode_switch_on_the_command_line(self, argv):
        r = run_cli(*argv)
        assert r.returncode == 0, r.stderr

    def test_echoed_config_outside_the_presets(self):
        # the echo of each mode and of a vary entry, pinned byte for byte
        default = {
            "schema": "opodimer-run/1",
            "params": {"kappa": 0.01, "gamma_a": 1.0, "gamma_b": 1.0,
                       "J_a": 0.0, "J_b": 0.0, "Delta_a": 0.0, "Delta_b": 0.0,
                       "eps": 0.0},
            "sweep": {"omega_start": -20.0, "omega_stop": 20.0,
                      "omega_points": 401},
            "theta": {"policy": "fixed", "degrees": 0.0},
            "duan_pairing": "xminus_yplus", "epr_infer_from": 1,
            "combined": False,
            "stability": {"mode": "coupling-grid",
                          "J_a": [0.0, 1.0, 2.0, 5.0, 10.0],
                          "J_b": [0.0, 1.0, 2.0, 5.0, 10.0],
                          "track_detuning": False},
            "sde": {"dt": 0.01, "t_transient": 20.0, "t_measure": 200.0,
                    "n_traj": 4096, "stepper": "semi-implicit-midpoint",
                    "record_stride": 5},
            "verify": {"omegas": [0.0, 0.5, 1.5, 3.0, 8.0]},
            "seed": 0,
        }
        cases = [
            ({}, {}),
            ({"theta": {"policy": "optimize"}},
             {"theta": {"policy": "optimize", "objective": "squeezing",
                        "at_omega": 0.0}}),
            ({"stability": {"mode": "pump-scan"}},
             {"stability": {"mode": "pump-scan",
                            "pump_fractions": [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]}}),
            ({"vary": [{"params": {"eps1": [3.0, 1.0], "eps2": 2},
                        "theta": {"policy": "optimize", "objective": "epr"}}]},
             {"vary": [{"params": {"eps1": [3.0, 1.0], "eps2": 2},
                        "theta": {"policy": "optimize", "objective": "epr",
                                  "at_omega": 0.0}}]}),
            ({"sde": {"stepper": "euler-maruyama"}},
             {"sde": {"dt": 0.01, "t_transient": 20.0, "t_measure": 200.0,
                      "n_traj": 4096, "stepper": "euler-maruyama",
                      "record_stride": 5}}),
        ]
        for d, echoed in cases:
            got = RunConfig.from_dict(d).to_dict()
            assert (json.dumps(got, sort_keys=True)
                    == json.dumps(default | echoed, sort_keys=True)), d

    def test_override_bad_key_and_value(self):
        cfg = RunConfig.from_dict(DRIVEN)
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["params.bogus=1"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["params.J_a"])
        with pytest.raises(ConfigError):
            apply_overrides(cfg, ["sweep.omega_points=many"])


class TestSpectrumCommand:
    def test_csv_contract(self, tmp_path):
        cfg = dict(DRIVEN)
        cfg["sweep"] = {"omega_start": -2.0, "omega_stop": 2.0,
                        "omega_points": 5}
        r = run_cli("spectrum", config=cfg, tmp_path=tmp_path)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        assert lines[0] == "# opodimer-csv/1"
        assert any(ln.startswith("# command: spectrum") for ln in lines)
        assert any(ln.startswith("# config:") for ln in lines)
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == ("omega,theta_deg,S_X,S_Y,cov_XY,"
                          "duan_sum,epr_product,flags")
        rows = parse_csv(r.stdout)
        assert len(rows) == 5
        assert [float(x["omega"]) for x in rows] == [-2, -1, 0, 1, 2]
        assert all(x["theta_deg"] == "0" for x in rows)

    def test_output_is_deterministic_bytes(self, tmp_path):
        cfg = dict(DRIVEN)
        cfg["sweep"] = {"omega_points": 21}
        a = run_cli("spectrum", config=cfg, tmp_path=tmp_path)
        b = run_cli("spectrum", config=cfg, tmp_path=tmp_path)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_out_file_matches_stdout_payload(self, tmp_path):
        cfg = dict(DRIVEN)
        cfg["sweep"] = {"omega_points": 3}
        out = tmp_path / "s.csv"
        r = run_cli("spectrum", "--out", str(out), config=cfg,
                    tmp_path=tmp_path)
        assert r.returncode == 0
        text = out.read_text()
        assert "# opodimer-csv/1" in text
        assert len(parse_csv(text)) == 3

    def test_undriven_cavity_rows_are_trivial(self, tmp_path):
        cfg = {"params": {"J_a": 1.0, "J_b": 1.0},
               "sweep": {"omega_points": 9}}
        r = run_cli("spectrum", config=cfg, tmp_path=tmp_path)
        assert r.returncode == 0
        for row in parse_csv(r.stdout):
            assert float(row["S_X"]) == pytest.approx(1.0, abs=1e-12)
            assert float(row["S_Y"]) == pytest.approx(1.0, abs=1e-12)
            assert float(row["cov_XY"]) == pytest.approx(0.0, abs=1e-12)
            assert float(row["duan_sum"]) == pytest.approx(4.0, abs=1e-12)
            assert float(row["epr_product"]) == pytest.approx(1.0, abs=1e-12)
            assert row["flags"] == "-"

    def test_above_threshold_exits_2_naming_critical_pump(self, tmp_path):
        cfg = {"params": {"J_a": 1.0, "J_b": 1.0, "pump_fraction": 1.2}}
        r = run_cli("spectrum", config=cfg, tmp_path=tmp_path)
        assert r.returncode == 2
        assert "200" in r.stderr

    def test_vanishing_covariance_near_threshold_exits_0(self, tmp_path):
        # cov_XY vanishes at 22.5 degrees while S is large; its imaginary
        # roundoff is judged against |c1| |S| |c2|, not against |cov_XY|
        r = run_cli("spectrum", "--set", "params.J_a=1", "--set", "params.J_b=1",
                    "--set", "params.pump_fraction=0.999",
                    "--set", "theta.degrees=22.5", "--set", "sweep.omega_start=0",
                    "--set", "sweep.omega_stop=0", "--set", "sweep.omega_points=1")
        assert r.returncode == 0, r.stderr
        assert len(parse_csv(r.stdout)) == 1

    def test_malformed_set_exits_1(self, tmp_path):
        r = run_cli("spectrum", "--set", "params.J_a", config=DRIVEN,
                    tmp_path=tmp_path)
        assert r.returncode == 1
        r = run_cli("spectrum", "--set", "params.bogus=1", config=DRIVEN,
                    tmp_path=tmp_path)
        assert r.returncode == 1
        r = run_cli("spectrum", "--set", "sweep=5", config=DRIVEN,
                    tmp_path=tmp_path)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        for args in (("spectrum", "--set", "params.kappa=-1"),
                     ("spectrum", "--set", "params.J_a=NaN"),
                     ("spectrum", "--set", "sweep.omega_stop=Infinity"),
                     ("spectrum", "--set", "theta.degrees=NaN"),
                     ("spectrum", "--set", "params.J_a=" + "1" * 5000),
                     ("optimize-angle", "--omega", "nan"),
                     ("verify", "--seed", "-1"),
                     # vary entries are checked at load, by every command
                     ("stability", "--set", 'vary=[{"params":{"kappa":-1}}]'),
                     ("verify", "--set", 'vary=[{"params":{"kappa":-1}}]'),
                     ("optimize-angle", "--set", 'vary=[{"params":{"kappa":-1}}]'),
                     ("spectrum", "--set", 'vary=[{"params":{"J_a":"x"}}]'),
                     # a label is a CSV field and part of a comment line
                     ("spectrum", "--set", 'vary=[{"label":"a,b"}]'),
                     ("spectrum", "--set", 'vary=[{"label":"a\\nb"}]'),
                     ("spectrum", "--set", 'vary=[{"label":"a\\rb"}]')):
            r = run_cli(*args, config=DRIVEN, tmp_path=tmp_path)
            assert r.returncode == 1, args
            assert "Traceback" not in r.stderr, args
        # a sweep too large to allocate, and one too large to index
        for n in ("100000000000", "4611686018427387904"):
            r = run_cli("spectrum", "--preset", "fig1",
                        "--set", f"sweep.omega_points={n}", limit_as=2 ** 33)
            assert r.returncode == 1, n
            assert "Traceback" not in r.stderr, n

    def test_complex_pump_vary_entry_gets_a_label(self):
        r = run_cli("spectrum", "--set", 'vary=[{"params":{"eps":[1.0,0.5]}}]',
                    "--set", "sweep.omega_points=3")
        assert r.returncode == 0, r.stderr
        assert "# variant eps=1+0.5j: " in r.stdout
        assert len(parse_csv(r.stdout)) == 3

    def test_multi_key_vary_label_keeps_the_row_width(self):
        r = run_cli("spectrum", "--set",
                    'vary=[{"params":{"J_a":5,"J_b":2}},{"params":{"J_a":1}}]',
                    "--set", "sweep.omega_points=2")
        assert r.returncode == 0, r.stderr
        assert "# variant J_a=5;J_b=2: " in r.stdout
        header, *rows = [ln.split(",") for ln in r.stdout.splitlines()
                         if not ln.startswith("#")]
        assert len(rows) == 4
        assert all(len(row) == len(header) for row in rows)
        assert rows[0][-1] == "J_a=5;J_b=2"

    def test_seed_only_where_it_is_read(self):
        r = run_cli("spectrum", "--preset", "fig1", "--seed", "3")
        assert r.returncode == 1
        assert "unrecognized arguments: --seed" in r.stderr

    def test_unknown_subcommand_exits_1(self):
        r = run_cli("spectro")
        assert r.returncode == 1

    @pytest.mark.parametrize("name", PRESETS)
    def test_every_preset_completes_quickly(self, name):
        start = time.perf_counter()
        r = run_cli("spectrum", "--preset", name)
        elapsed = time.perf_counter() - start
        assert r.returncode == 0, r.stderr
        assert elapsed < 60.0
        assert len(parse_csv(r.stdout)) > 100
        data = r.stdout.encode("ascii")
        assert len(data) == REFERENCE[name]["bytes"]
        assert hashlib.sha256(data).hexdigest() == REFERENCE[name]["sha256"]

    def test_fig1_strong_coupling_dip(self):
        r = run_cli("spectrum", "--preset", "fig1")
        assert r.returncode == 0
        rows = [x for x in parse_csv(r.stdout) if x["variant"] == "Ja=10"]
        assert rows
        best = min(rows, key=lambda x: float(x["S_X"]))
        assert float(best["S_X"]) < 1.0
        assert 6.1 <= abs(float(best["omega"])) <= 11.1
        assert all(x["theta_deg"] == "22" for x in rows)

    def test_fig4_combined_quadrature_at_dc(self):
        r = run_cli("spectrum", "--preset", "fig4")
        assert r.returncode == 0
        rows = parse_csv(r.stdout)
        assert "S_Yp" in rows[0]
        at0 = next(x for x in rows if float(x["omega"]) == 0.0)
        assert float(at0["S_Yp"]) == pytest.approx(2.0 / 9.0, abs=1e-6)


class TestStabilityCommand:
    def test_coupling_grid_matches_known_thresholds(self, tmp_path):
        cfg = {"params": {"pump_fraction": 0.5},
               "stability": {"mode": "coupling-grid",
                             "J_a": [0.0, 1.0], "J_b": [0.0, 1.0]}}
        r = run_cli("stability", config=cfg, tmp_path=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = {(float(x["J_a"]), float(x["J_b"])): x
                for x in parse_csv(r.stdout)}
        assert len(rows) == 4
        for key, want in (((0.0, 0.0), 100.0), ((1.0, 1.0), 200.0)):
            got = rows[key]
            assert float(got["eps_crit_analytic"]) == pytest.approx(want)
            assert float(got["eps_crit_bisect"]) == pytest.approx(
                want, rel=1e-6)

    def test_matched_detuning_thresholds_are_coupling_free(self, tmp_path):
        cfg = {"params": {"pump_fraction": 0.5},
               "stability": {"mode": "coupling-grid",
                             "J_a": [1.0, 5.0, 20.0], "J_b": [1.0],
                             "track_detuning": True}}
        r = run_cli("stability", config=cfg, tmp_path=tmp_path)
        assert r.returncode == 0, r.stderr
        for row in parse_csv(r.stdout):
            assert float(row["eps_crit_analytic"]) == pytest.approx(100.0)
            assert float(row["eps_crit_bisect"]) == pytest.approx(
                100.0, rel=1e-6)

    def test_pump_scan_crosses_zero_at_threshold(self, tmp_path):
        cfg = {"params": {"J_a": 1.0, "J_b": 1.0, "pump_fraction": 0.5},
               "stability": {"mode": "pump-scan",
                             "pump_fractions": [0.5, 0.999, 1.001]}}
        r = run_cli("stability", config=cfg, tmp_path=tmp_path)
        assert r.returncode == 0, r.stderr
        rows = parse_csv(r.stdout)
        margins = [float(x["min_re_eig"]) for x in rows]
        assert margins[0] > 0 and margins[1] > 0 and margins[2] < 0
        assert [float(x["eps"]) for x in rows] == [100.0, 199.8, 200.2]


class TestOptimizeAngleCommand:
    def test_reports_known_optimum(self, tmp_path):
        cfg = {"params": {"J_a": 1.0, "J_b": 1.0, "pump_fraction": 0.5}}
        r = run_cli("optimize-angle", "--objective", "squeezing",
                    "--omega", "0", config=cfg, tmp_path=tmp_path)
        assert r.returncode == 0, r.stderr
        row = parse_csv(r.stdout)[0]
        assert float(row["theta_deg"]) == pytest.approx(112.5, abs=1e-4)
        assert float(row["omega"]) == 0.0
        assert row["objective"] == "squeezing"

    def test_epr_near_threshold(self):
        r = run_cli("optimize-angle", "--preset", "fig1",
                    "--set", "params.pump_fraction=0.999",
                    "--objective", "epr", "--omega", "0")
        assert r.returncode == 0, r.stderr
        row = parse_csv(r.stdout)[0]
        assert float(row["value"]) <= 1.33147192209 * (1 + 1e-9)
        assert 0.0 <= float(row["theta_deg"]) < 90.0

    @pytest.mark.parametrize("preset,objective", [
        ("fig4", "epr"), ("fig5", "epr"), ("fig4", "squeezing"),
        ("fig1", "duan")])
    def test_printed_angle_inside_its_period(self, preset, objective):
        # at fig4 the EPR optimum is theta = 0, which the root finder can
        # place a hair below pi/2; 12 digits would round that to 90
        r = run_cli("optimize-angle", "--preset", preset,
                    "--set", "params.pump_fraction=0.999",
                    "--objective", objective, "--omega", "0")
        assert r.returncode == 0, r.stderr
        period = 90.0 if objective == "epr" else 180.0
        assert 0.0 <= float(parse_csv(r.stdout)[0]["theta_deg"]) < period


class TestVerifyCommand:
    def test_pass_run_and_negative_control(self, tmp_path):
        r = run_cli("verify", "--seed", "23", config=DRIVEN,
                    tmp_path=tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        assert "# verdict: PASS" in r.stdout
        assert '"seed":23' in r.stdout  # the # config: line echoes the seed used
        rows = parse_csv(r.stdout)
        assert len(rows) == 4 * 5
        assert all(abs(float(x["z"])) < 3.0 for x in rows)

        bad = dict(DRIVEN)
        bad["sde"] = {"n_traj": 64, "t_measure": 60.0}
        r = run_cli("verify", "--negative-control", "--seed", "23",
                    config=bad, tmp_path=tmp_path)
        assert r.returncode == 3
        assert "# verdict: FAIL" in r.stdout


class TestSdeDumpCommand:
    def test_dump_writes_payload_and_sidecar(self, tmp_path):
        cfg = dict(DRIVEN)
        cfg["sde"] = {"n_traj": 8, "t_transient": 1.0, "t_measure": 8.0}
        out = tmp_path / "ens.bin"
        r = run_cli("sde-dump", "--out", str(out), "--seed", "5",
                    config=cfg, tmp_path=tmp_path)
        assert r.returncode == 0, r.stderr
        states, sidecar = load_ensemble_dump(out)
        assert sidecar["config"]["seed"] == 5
        assert sidecar["n_traj"] == 8
        assert states.shape[0] == 8
        assert states.shape[2] == 8

    def test_dump_requires_out(self, tmp_path):
        r = run_cli("sde-dump", config=DRIVEN, tmp_path=tmp_path)
        assert r.returncode == 1
