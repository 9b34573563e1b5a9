import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_same_bits
from opodimer import cli, criteria, sde, spectrum
from opodimer.config import (PRESETS, RunConfig, apply_overrides,
                             load_config_file, load_preset)
from opodimer.errors import ConfigError, DomainError
from opodimer.model import SystemParams, critical_pump, min_re_eig_stack
from opodimer.sde import SdeConfig, load_ensemble_dump

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
            # scalars, lists and choices of the wrong kind, and a schema
            # this reader does not know
            {"combined": 1},
            {"stability": {"J_a": []}},
            {"theta": {"policy": "optimize", "objective": "fidelity"}},
            {"duan_pairing": "x"},
            {"epr_infer_from": 3},
            {"epr_infer_from": True},
            {"vary": {}},
            {"schema": "opodimer-run/2"},
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
        assert out.params.system.J_a == 2.0
        assert out.sweep.omega_points == 11
        assert out.seed == 9
        # original untouched
        assert cfg.params.system.J_a == 1.0

    def test_override_displaces_pump_group(self):
        cfg = RunConfig.from_dict(
            {"params": {"eps1": [3.0, 0.0], "eps2": 3.0}})
        out = apply_overrides(cfg, ["params.pump_fraction=0.25"])
        assert out.params.pump_fraction == 0.25
        assert out.params.system.eps1 != 3.0 + 0j
        # a vary patch follows the same rule: eps1 keeps the base's eps2
        cfg = RunConfig.from_dict({"params": {"eps1": 3.0, "eps2": 2.0},
                                   "vary": [{"params": {"eps1": 1.0}}]})
        (_, spec, _), = cfg.variants()
        assert (spec.system.eps1, spec.system.eps2) == (1.0, 2.0)

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
        with pytest.raises(ConfigError, match="seed is not an object"):
            apply_overrides(cfg, ["seed.x=1"])

    def test_sweep_span_must_be_finite(self):
        with pytest.raises(ConfigError, match="overflows"):
            apply_overrides(RunConfig(), ["sweep.omega_start=-1e308",
                                          "sweep.omega_stop=1e308"])


def test_row_format_matches_cell_by_cell_text():
    inf, nan = float("inf"), float("nan")
    row = (inf, -inf, nan, 0.0, -0.0, 5e-324, 1e300, -1.0 / 3.0, 7,
           "X1", "squeezed;epr", "-", "J_a=5")
    assert cli._row_format(row) % row == ",".join(
        f"{x:.12g}" if isinstance(x, float) else str(x) for x in row)


def test_flags_column_is_the_per_row_join():
    # a synthetic table that hits each of the 8 combinations of the flags
    # twice, in a mixed order
    hits = np.array(list(product([False, True], repeat=3)) * 2)
    hits = hits[np.random.default_rng(5).permutation(len(hits))]
    sq, ent, epr = hits.T
    table = {"S_X": np.where(sq, 0.5, 1.5), "S_Y": np.full(len(hits), 1.2),
             "duan_sum": np.where(ent, 3.0, 5.0),
             "epr_product": np.where(epr, 0.5, 2.0)}
    flags = criteria.witness_flags(table)
    want = [";".join(f for f in flags if flags[f][k]) or "-"
            for k in range(len(hits))]
    assert len(set(want)) == 8
    assert cli._flags_column(table) == want


# the options of each subcommand besides --config, --preset, --set and
# --out, which every subcommand takes
SUBCOMMAND_OPTIONS = {"spectrum": set(), "stability": set(),
                      "optimize-angle": {"--objective", "--omega"},
                      "verify": {"--negative-control", "--seed"},
                      "sde-dump": {"--seed"}}


@pytest.mark.parametrize("name", SUBCOMMAND_OPTIONS)
def test_subcommand_interface(name, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: opodimer {name} ")
    # main runs whatever cli.cmd_<name> holds when it is called
    ran = []
    monkeypatch.setattr(cli, "cmd_" + name.replace("-", "_"),
                        lambda args, cfg: ran.append(args.command) or 0)
    assert cli.main([name, *(("--out", "x") if name == "sde-dump" else ())]) == 0
    assert ran == [name]
    subs = next(a for a in cli._PARSER._actions
                if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(SUBCOMMAND_OPTIONS)
    sub = subs.choices[name]
    options = {s for a in sub._actions for s in a.option_strings}
    assert options == {"-h", "--help", "--config", "--preset", "--set", "--out",
                       *SUBCOMMAND_OPTIONS[name]}
    required = {s for a in sub._actions if a.required for s in a.option_strings}
    assert required == ({"--out"} if name == "sde-dump" else set())


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main parses with one parser built at import; no option of one call
    # may reach the next
    seen = []
    for name in ("cmd_stability", "cmd_verify"):
        monkeypatch.setattr(cli, name,
                            lambda args, cfg: seen.append((args, cfg)) or 0)
    assert cli.main(["stability", "--set", "params.J_a=2"]) == 0
    assert cli.main(["verify", "--seed", "5"]) == 0
    assert cli.main(["stability"]) == 0
    assert cli.main(["verify"]) == 0
    assert [args.command for args, _ in seen] == ["stability", "verify"] * 2
    assert seen[0][1].params.system.J_a == 2.0 and seen[1][1].seed == 5
    for args, cfg in seen[2:]:
        assert args.overrides == [] and cfg == RunConfig()
    assert seen[3][0].seed is None
    for argv, code in ((["--help"], 0), (["stability", "--bogus"], 1),
                       (["stability", "--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code, argv
    assert cli.main(["stability"]) == 0
    assert seen[-1][0].overrides == [] and seen[-1][1] == RunConfig()
    capsys.readouterr()


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

    def test_overflowing_drift_block_exits_1(self, capsys):
        # kappa beta_ss past the float range is a DomainError, not a failure
        # of the eigensolver
        assert cli.main(["spectrum", "--set", "params.kappa=1e300",
                         "--set", "params.eps=1e300"]) == 1
        assert capsys.readouterr().err == (
            "opodimer: error: row 0: drift matrix is not finite "
            "(an entry overflows a float)\n")

    def test_malformed_set_exits_1(self, tmp_path, capsys, monkeypatch):
        # in process, but for one run of the real entry point and the runs
        # under an address-space limit
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(DRIVEN))

        def main(*args, config=True):
            try:
                code = cli.main([*args, *(("--config", str(cfg)) if config else ())])
            except SystemExit as exc:  # argparse's exit
                code = exc.code
            return code, capsys.readouterr().err

        r = run_cli("spectrum", "--set", "params.J_a", config=DRIVEN,
                    tmp_path=tmp_path)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        for args in (("spectrum", "--set", "params.bogus=1"),
                     ("spectrum", "--set", "sweep=5"),
                     ("spectrum", "--set", "params.kappa=-1"),
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
                     ("spectrum", "--set", 'vary=[{"label":"a\\rb"}]'),
                     # the CSV is written as ASCII, and a leading quote
                     # would open a quoted field that swallows rows
                     ("spectrum", "--set", 'vary=[{"label":"é"}]'),
                     ("spectrum", "--set", 'vary=[{"label":"\\"a"}]'),
                     # linspace over this span overflows
                     ("spectrum", "--set", "sweep.omega_start=-1e308",
                      "--set", "sweep.omega_stop=1e308")):
            code, err = main(*args)
            assert code == 1, args
            assert "Traceback" not in err, args
        # SdeConfig's seed and window rules stop every command at load, before
        # the command runs, with SdeConfig's message
        def command_ran(*args):
            raise AssertionError("the command ran")

        with monkeypatch.context() as m:
            for name in ("cmd_spectrum", "cmd_stability", "cmd_verify"):
                m.setattr(cli, name, command_ran)
            for args, bad in ((("spectrum", "--set", "seed=-1"), dict(seed=-1)),
                              (("stability", "--set", "seed=-1"), dict(seed=-1)),
                              (("verify", "--seed", "-1"), dict(seed=-1)),
                              (("spectrum", "--set", "sde.t_measure=0.01"),
                               dict(t_measure=0.01))):
                with pytest.raises(ConfigError) as exc:
                    SdeConfig(**bad)
                assert main(*args) == (1, f"opodimer: error: {exc.value}\n"), args
        # a label rejected at load leaves no output file behind
        out = tmp_path / "x.csv"
        code, err = main("spectrum", "--set", 'vary=[{"label":"é"}]',
                         "--out", str(out))
        assert code == 1 and "Traceback" not in err
        assert not out.exists()
        # a critical pump past the float range: a square that overflows,
        # and a product of two finite squares
        for args in (("spectrum", "--set", "params.J_a=1e200",
                      "--set", "sweep.omega_points=3"),
                     ("stability", "--set", "stability.J_a=[1e200]",
                      "--set", "stability.J_b=[0]"),
                     ("spectrum", "--set", "params.J_a=1e150",
                      "--set", "params.J_b=1e150", "--set", "sweep.omega_points=3")):
            code, err = main(*args, config=False)
            assert code == 1, args
            assert err.startswith("opodimer: error: critical pump"), args
            assert len(err.splitlines()) == 1, args
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

    @pytest.mark.parametrize("args", [
        ("--preset", "fig4", "--set", "sweep.omega_points=201"),
        ("--preset", "fig5")])  # three variants of 2001 frequencies
    def test_frequency_block_size_changes_no_byte(self, args, tmp_path,
                                                  monkeypatch):
        texts = []
        for block in (1, 7, spectrum._OMEGA_BLOCK):
            monkeypatch.setattr(spectrum, "_OMEGA_BLOCK", block)
            out = tmp_path / f"{block}.csv"
            assert cli.main(["spectrum", *args, "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1] == texts[2]

    def test_one_variant_spectral_matrix_alive_at_a_time(self, monkeypatch):
        buffers = []  # a weak reference to the memory of each variant's S
        stack = criteria.spectral_stack

        def tracked(p, omegas):
            assert all(ref() is None for ref in buffers), \
                "an earlier variant's S is alive during this solve"
            S = stack(p, omegas)
            owner = S.S
            while owner.base is not None:
                owner = owner.base
            buffers.append(weakref.ref(owner))
            return S

        monkeypatch.setattr(criteria, "spectral_stack", tracked)
        assert cli.main(["spectrum", "--preset", "fig5", "--set",
                         "sweep.omega_points=21", "--out", os.devnull]) == 0
        assert len(buffers) == 3

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

    def test_unequal_pumps_report_the_equal_pump_threshold(self, capsys):
        # both threshold columns depend on the rates alone, as for equal real
        # pumps; min_re_eig is taken at each row's own pumps
        grid = ["--set", "stability.J_a=[0, 1, 5]", "--set", "stability.J_b=[0, 2]"]

        def table(*pumps):
            assert cli.main(["stability", *grid, *pumps]) == 0
            return parse_csv(capsys.readouterr().out)

        unequal = table("--set", "params.eps1=50", "--set", "params.eps2=40")
        equal = table("--set", "params.eps=50")
        cols = ("J_a", "J_b", "eps_crit_analytic", "eps_crit_bisect")
        assert ([[r[c] for c in cols] for r in unequal]
                == [[r[c] for c in cols] for r in equal])
        ps = [SystemParams(J_a=ja, J_b=jb, eps1=50.0, eps2=40.0)
              for ja, jb in product((0.0, 1.0, 5.0), (0.0, 2.0))]
        assert ([r["min_re_eig"] for r in unequal]
                == ["%.12g" % m for m in min_re_eig_stack(ps)])
        assert ([r["min_re_eig"] for r in unequal]
                != [r["min_re_eig"] for r in equal])

    @pytest.mark.parametrize("sets", [
        (),
        ("stability.track_detuning=true",),
        ("params.Delta_a=-3", "params.Delta_b=-3"),
        ("stability.mode=pump-scan",
         "stability.pump_fractions=[0, 0.25, 0.999, 1.5]"),
        ("params.eps=[30,5]",),
        ("params.eps=[30,5]", "stability.track_detuning=true"),
        ("params.eps=[30,5]", "stability.mode=pump-scan"),  # default fractions
        ("params.eps1=[50,3]", "params.eps2=[40,-2]"),
        ("params.eps=[50,-0.0]",),
        ("params.eps1=[50,-0.0]", "params.eps2=[40,-0.0]")])
    def test_rows_match_the_patched_route(self, sets):
        # each row is built straight from params.system; the oracle is
        # the validated route through ParamsSpec.patched
        cfg = apply_overrides(load_preset("fig1"), [
            "stability.J_a=[0, -0.0, 0.5, -2, 10]", "stability.J_b=[0, 1, -4]",
            *sets])
        spec, where = cfg.stability, f"stability {cfg.stability.mode}"
        if spec.mode == "coupling-grid":
            patches = [{"J_a": ja, "J_b": jb}
                       | ({"Delta_a": ja, "Delta_b": jb} if spec.track_detuning else {})
                       for ja, jb in product(spec.J_a, spec.J_b)]
        else:
            patches = [{"pump_fraction": f} for f in spec.pump_fractions]
        rows = cli._stability_rows(cfg.params, patches, where)
        assert len(rows) == len(patches)
        signed_zero = any("-0.0" in s for s in sets)
        for patch, got in zip(patches, rows):
            want = cfg.params.patched(patch, where).system
            for f in dataclasses.fields(SystemParams):
                g, w = getattr(got, f.name), getattr(want, f.name)
                if signed_zero and f.name.startswith("eps"):
                    # patched writes a pump with a zero imaginary part as a
                    # plain number and reads it back with +0.0; the row
                    # keeps the config's -0.0
                    assert g == w and math.copysign(1.0, g.imag) == -1.0
                    assert math.copysign(1.0, w.imag) == 1.0
                    g, w = g.real, w.real
                assert_same_bits(np.array([g]), np.array([w]))

    def test_signed_zero_pump_part_leaves_the_csv_alone(self, capsys):
        # a -0.0 imaginary pump part reaches the rows (see above), but no
        # byte of the table: the config echo writes the pump as a plain number
        grid = ["--set", "stability.J_a=[0, 1, -2]", "--set", "stability.J_b=[0, 3]"]
        for zero, plain in ((["--set", "params.eps=[50,-0.0]"],
                             ["--set", "params.eps=50"]),
                            (["--set", "params.eps1=[50,-0.0]", "--set", "params.eps2=40"],
                             ["--set", "params.eps1=50", "--set", "params.eps2=40"])):
            tables = []
            for pump in (zero, plain):
                assert cli.main(["stability", *grid, *pump]) == 0
                tables.append(capsys.readouterr().out)
            assert tables[0] == tables[1], zero

    def test_row_errors_keep_their_type_and_message(self, capsys):
        def overflow(**kw):
            with pytest.raises(DomainError) as exc:
                critical_pump(SystemParams(**kw))
            return str(exc.value)

        big = ("--set", "stability.J_a=[1e200]", "--set", "stability.J_b=[0]")
        for args, msg in (
                (("--preset", "fig1", "--set", "stability.mode=pump-scan",
                  "--set", "stability.pump_fractions=[1e308]"),
                 "stability pump-scan: eps1 must be finite, got (inf+0j)"),
                # a pump_fraction: the row's pump needs the critical pump
                (("--set", "params.pump_fraction=0.5", *big),
                 overflow(J_a=1e200)),
                # amplitude pumps: the analytic column needs it
                (("--set", "params.eps=[30,5]", *big),
                 overflow(J_a=1e200, eps1=30 + 5j, eps2=30 + 5j))):
            assert cli.main(["stability", *args]) == 1, args
            assert capsys.readouterr().err == f"opodimer: error: {msg}\n", args

    def test_threshold_out_of_float_range_exits_1(self):
        # eps_crit overflows at kappa = 1e-307 from the J_a = 2, J_b = 10 row
        # on, and underflows to 0 at gamma_a = 1e-300; neither reaches the
        # eigensolver
        for args, msg in (
                (("--set", "params.kappa=1e-307"), "critical pump overflows"),
                (("--set", "params.gamma_a=1e-300", "--set", "stability.J_a=[0]",
                  "--set", "stability.J_b=[0]"), "critical pump underflows")):
            r = subprocess.run([sys.executable, "-W", "error", "-m",
                                "opodimer.cli", "stability", *args],
                               capture_output=True, text=True)
            assert r.returncode == 1, args
            assert "Traceback" not in r.stderr and msg in r.stderr, args
            assert len(r.stderr.splitlines()) == 1, args


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

    def test_window_under_one_stride_writes_nothing(self, tmp_path):
        # one step of dt 0.01 against the default stride of 5
        out = tmp_path / "ens.bin"
        r = run_cli("sde-dump", "--set", "sde.t_measure=0.01", "--out", str(out),
                    config=DRIVEN, tmp_path=tmp_path)
        assert r.returncode == 1
        assert "t_measure shorter than one recording stride" in r.stderr
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]



class TestSdeStepLimits:
    # step counts or record buffers past sys.maxsize, once numpy errors or,
    # for the last, a run of 1e302 steps
    @pytest.mark.parametrize("args", [
        ("verify", "--set", "sde.dt=1e-300"),
        ("verify", "--set", "sde.t_measure=1e300", "--set", "sde.dt=1e-10"),
        ("sde-dump", "--set", "sde.t_transient=1e300", "--set", "sde.dt=1e-10"),
        ("sde-dump", "--set", "sde.dt=5e-17", "--set", "sde.n_traj=2"),
        ("verify", "--set", "sde.t_transient=1e300", "--set", "sde.n_traj=2"),
    ])
    def test_rejected_before_any_step(self, tmp_path, monkeypatch, capsys, args):
        def no_steps(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(sde, "integrate", no_steps)
        out = tmp_path / "x.bin"
        assert cli.main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("opodimer: error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestOutPath:
    @pytest.mark.parametrize("command", ["spectrum", "sde-dump"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, command):
        cfg = dict(DRIVEN, sde={"n_traj": 8, "t_transient": 1.0, "t_measure": 8.0})
        (tmp_path / "dir").mkdir()
        for out in (tmp_path / "missing" / "out", tmp_path / "dir"):
            r = run_cli(command, "--out", str(out), config=cfg, tmp_path=tmp_path)
            assert r.returncode == 1, r.stderr
            assert r.stderr.startswith("opodimer: error: ")
            assert len(r.stderr.splitlines()) == 1
            assert str(out) in r.stderr
        # nothing is left beside the config, such as a .part file
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json", "dir"]
