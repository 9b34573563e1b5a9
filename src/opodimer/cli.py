"""Command-line front end: sweeps, stability maps, angle optimization,
SDE verification, and raw trajectory dumps.

Exit codes: 0 success, 1 usage or runtime error, 2 above-threshold
configuration, 3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from itertools import product
from pathlib import Path

import numpy as np

from . import criteria, sde, spectrum
from .config import (_RATE_KEYS, PRESETS, ParamsSpec, RunConfig, _as_float,
                     apply_overrides, load_config_file, load_preset)
from .errors import AboveThresholdError, ConfigError, OpodimerError
from .linearized import _frozen, build_linear_model
from .model import (SystemParams, critical_pump, min_re_eig_stack,
                    steady_state, threshold_bisection_stack)

CSV_SCHEMA = "opodimer-csv/1"

_Z_LIMIT = 3.0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    above-threshold configs, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _row_format(cells) -> str:
    """The %-format of a CSV row shaped like cells: "%.12g" for a float
    (the text of f"{x:.12g}") and "%s" (str(x)) for anything else."""
    return ",".join("%.12g" if isinstance(x, float) else "%s" for x in cells)


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _header(command: str, cfg: RunConfig) -> list:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return [f"# {CSV_SCHEMA}", f"# command: {command}", f"# config: {blob}"]


# Text of the flags column for each 3-bit code, bit i set where the i-th
# flag of criteria.FLAGS holds: its names joined by ";", or "-" for none.
_FLAG_TEXT = np.array([";".join(f for i, f in enumerate(criteria.FLAGS)
                                if code >> i & 1) or "-"
                       for code in range(1 << len(criteria.FLAGS))], dtype=object)


def _flags_column(table) -> list:
    """The flags column of a witness_table: one string per row."""
    code = sum(hit.astype(np.intp) << i
               for i, hit in enumerate(criteria.witness_flags(table).values()))
    return _FLAG_TEXT[code].tolist()


def _resolve_theta(p, theta_spec, cfg: RunConfig) -> float:
    if theta_spec.policy == "fixed":
        return math.radians(theta_spec.degrees)
    t, _ = criteria.optimize_angle(p, theta_spec.at_omega, theta_spec.objective,
                                   pairing=cfg.duan_pairing,
                                   infer_from=cfg.epr_infer_from)
    return t


def cmd_spectrum(args, cfg: RunConfig) -> int:
    variants = cfg.variants()
    multi = len(variants) > 1
    lines = _header("spectrum", cfg)
    rows = []
    for label, pspec, tspec in variants:
        p = pspec.system
        theta = _resolve_theta(p, tspec, cfg)
        name = label if label is not None else "-"
        theta_deg = f"{math.degrees(theta):.12g}"  # the text of its every cell
        lines.append(f"# variant {name}: params="
                     + json.dumps(pspec.to_dict(), sort_keys=True,
                                  separators=(",", ":"))
                     + f" theta_deg={theta_deg}"
                     + f" eps_crit={critical_pump(p):.12g}")
        S = criteria.spectral_stack(p, cfg.sweep.omegas())
        n = len(S.omega)
        table = {"omega": S.omega, "theta_deg": [theta_deg] * n,
                 **criteria.witness_table(S, p.gamma_a, theta, cfg.duan_pairing,
                                          cfg.epr_infer_from)}
        table["flags"] = _flags_column(table)
        if cfg.combined:
            table.update(criteria.combined_variances(S, p.gamma_a))
        if multi:
            table["variant"] = [name] * n
        cols = [c if isinstance(c, list) else c.tolist() for c in table.values()]
        fmt = _row_format([c[0] for c in cols])
        rows.extend(fmt % row for row in zip(*cols))
        del cols, S  # free them before the next variant's solve
    lines.append(",".join(table))  # every variant has the same columns
    lines.extend(rows)
    _emit(lines, args.out)
    return 0


def _stability_rows(params: ParamsSpec, patches, where: str) -> list:
    """The SystemParams of each stability row: params.system with the
    floats of its patch, which the stability section has validated.
    Amplitude pumps stay as they are; a pump_fraction, the patch's or else
    the spec's, re-derives equal pumps from the row's rates. This is
    params.patched(patch, where).system without its to_dict/from_dict round
    trip, which also turns a -0.0 imaginary pump part into +0.0."""
    base = params.system
    rates = {k: getattr(base, k) for k in _RATE_KEYS}
    rows = []
    for patch in patches:
        patch = dict(patch)
        fraction = patch.pop("pump_fraction", params.pump_fraction)
        try:
            rows.append(dataclasses.replace(base, **patch) if fraction is None
                        else SystemParams.symmetric(pump_fraction=fraction,
                                                    **(rates | patch)))
        except ValueError as exc:  # a pump past the float range
            raise ConfigError(f"{where}: {exc}") from None
    return rows


def cmd_stability(args, cfg: RunConfig) -> int:
    lines = _header("stability", cfg)
    spec = cfg.stability
    if spec.mode == "coupling-grid":
        lead_cols = "J_a,J_b"
        patches = [{"J_a": ja, "J_b": jb} | ({"Delta_a": ja, "Delta_b": jb}
                                             if spec.track_detuning else {})
                   for ja, jb in product(spec.J_a, spec.J_b)]
    else:
        lead_cols = "pump_fraction,eps"
        patches = [{"pump_fraction": f} for f in spec.pump_fractions]
    lines.append(lead_cols + ",min_re_eig,eps_crit_analytic,eps_crit_bisect")
    ps = _stability_rows(cfg.params, patches, f"stability {spec.mode}")
    # first, so that a critical pump past the float range is reported as
    # such (DomainError), before the eigensolves see its row
    analytic = [critical_pump(p) for p in ps]
    roots = threshold_bisection_stack(ps).tolist()
    margins = min_re_eig_stack(ps).tolist()
    for patch, p, *cells in zip(patches, ps, margins, analytic, roots):
        lead = ((patch["J_a"], patch["J_b"]) if spec.mode == "coupling-grid"
                else (patch["pump_fraction"], abs(p.eps1)))
        row = (*lead, *cells)
        lines.append(_row_format(row) % row)
    _emit(lines, args.out)
    return 0


def cmd_optimize_angle(args, cfg: RunConfig) -> int:
    p = cfg.params.system
    # under the fixed policy, objective and at_omega keep ThetaSpec's defaults
    objective = args.objective or cfg.theta.objective
    omega = (_as_float(args.omega, "--omega") if args.omega is not None
             else cfg.theta.at_omega)
    t, v = criteria.optimize_angle(p, omega, objective,
                                   pairing=cfg.duan_pairing,
                                   infer_from=cfg.epr_infer_from)
    # fold after rounding: an angle just below the period prints as 0,
    # not as the period itself
    period = math.degrees(criteria.PERIODS[objective])
    deg = float("%.12g" % math.degrees(t)) % period
    lines = _header("optimize-angle", cfg)
    lines.append("omega,objective,theta_deg,value")
    row = (omega, objective, deg, v)
    lines.append(_row_format(row) % row)
    _emit(lines, args.out)
    return 0


# printed name -> criteria.quadrature name of each combination verify checks
_VERIFY_COMBOS = {"X1": "X1", "Y1": "Y1", "Xminus": "Xm", "Yplus": "Yp"}


def cmd_verify(args, cfg: RunConfig) -> int:
    p = cfg.params.system
    steady_state(p)  # raises AboveThresholdError at or above threshold
    model = build_linear_model(p)
    if args.negative_control:
        A = np.array(model.A)
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
            A[i, j] = -A[i, j]
        model = dataclasses.replace(model, A=_frozen(A))
    theta = _resolve_theta(p, cfg.theta, cfg)
    combos = [criteria.quadrature(q, theta) for q in _VERIFY_COMBOS.values()]
    ests = sde.stream_output_spectra(p, dataclasses.replace(cfg.sde, seed=cfg.seed),
                                     combos, cfg.verify.omegas)
    # every estimate keeps the same bins: those nearest to verify.omegas
    S = spectrum.spectral_matrix(model, ests[0].omega)
    lines = _header("verify", cfg)
    lines.append("combination,omega,sde_value,sde_stderr,linear_value,z")
    worst = 0.0
    for name, terms, est in zip(_VERIFY_COMBOS, combos, ests):
        preds = spectrum.output_moment(S, terms, terms, p.gamma_a)
        for wbin, val, err, pred in zip(est.omega.tolist(), est.values.tolist(),
                                        est.stderr.tolist(), preds.tolist()):
            diff = val - pred
            if err > 0.0:
                z = diff / err
            else:
                z = 0.0 if diff == 0.0 else math.inf
            worst = max(worst, abs(z))
            row = (name, wbin, val, err, pred, z)
            lines.append(_row_format(row) % row)
    ok = worst < _Z_LIMIT
    lines.append(f"# diverged: {ests[0].n_diverged} of {cfg.sde.n_traj}")
    lines.append(f"# verdict: {'PASS' if ok else 'FAIL'} "
                 f"(max |z| = {worst:.3g}, limit {_Z_LIMIT:g})")
    _emit(lines, args.out)
    if args.out:
        print(f"verify: {'PASS' if ok else 'FAIL'} (max |z| = {worst:.3g})")
    return 0 if ok else 3


def cmd_sde_dump(args, cfg: RunConfig) -> int:
    p = cfg.params.system
    path = Path(args.out)
    sde_cfg = dataclasses.replace(cfg.sde, seed=cfg.seed, record="all")
    diverged = sde.integrate_to_dump(p, sde_cfg, path)
    print(f"wrote {sde_cfg.n_traj} trajectories x {sde_cfg.sample_counts()[2]} "
          f"samples ({int(diverged.sum())} diverged) to {path} (+ .json sidecar)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand; each name runs cmd_<name>, with "-"
    read as "_"."""
    parser = _Parser(prog="opodimer",
                     description="Coupled-downconverter squeezing and "
                                 "entanglement calculator")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
            ("spectrum", "frequency sweep of output spectra and witnesses"),
            ("stability", "threshold map over couplings or pump strengths"),
            ("optimize-angle", "best local-oscillator angle for one objective"),
            ("verify", "stochastic oracle vs linearized spectra with z-scores"),
            ("sde-dump", "integrate and dump raw trajectories")):
        s = subs.add_parser(name, help=help_)
        src = s.add_mutually_exclusive_group()
        src.add_argument("--config", metavar="PATH", help="JSON run config")
        src.add_argument("--preset", choices=PRESETS,
                         help="bundled demonstration config")
        s.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                       dest="overrides", help="dotted-key config override, "
                                              "repeatable (e.g. params.J_a=2)")
        dump = name == "sde-dump"
        s.add_argument("--out", metavar="PATH", required=dump,
                       help="output file" + ("" if dump else " (default: stdout)"))
        if name == "optimize-angle":
            s.add_argument("--objective", choices=criteria.OBJECTIVES, default=None,
                           help="figure of merit (default from config)")
            s.add_argument("--omega", type=float, default=None, help="frequency at "
                           "which to optimize (default from config)")
        if name == "verify":
            s.add_argument("--negative-control", action="store_true",
                           help="negate the pair terms -kappa beta of the predicted "
                                "drift, to prove the comparison can fail")
        if name in ("verify", "sde-dump"):  # the commands that draw noise
            s.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
    return parser


def _load(args) -> RunConfig:
    if args.config:
        cfg = load_config_file(args.config)
    elif args.preset:
        cfg = load_preset(args.preset)
    else:
        cfg = RunConfig()
    overrides = list(args.overrides)
    if getattr(args, "seed", None) is not None:  # verify and sde-dump
        overrides.append(f"seed={args.seed}")
    return apply_overrides(cfg, overrides) if overrides else cfg


# parse_args leaves the parser as it found it, so one serves every call
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = _load(args)
        # looked up at call time, so a replaced cli.cmd_* is the one that runs
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(args, cfg)
    except AboveThresholdError as exc:
        print(f"opodimer: above threshold: {exc}", file=sys.stderr)
        return 2
    except OpodimerError as exc:
        print(f"opodimer: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"opodimer: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # e.g. an --out path in a missing directory
        print(f"opodimer: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
