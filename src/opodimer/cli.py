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
from .config import (PRESETS, RunConfig, _as_float, apply_overrides,
                     load_config_file, load_preset)
from .errors import AboveThresholdError, OpodimerError
from .linearized import _frozen, build_linear_model
from .model import derived_scales, steady_state, stability_eigenvalues, threshold_bisection

CSV_SCHEMA = "opodimer-csv/1"

_Z_LIMIT = 3.0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    above-threshold configs, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _header(command: str, cfg: RunConfig) -> list:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return [f"# {CSV_SCHEMA}", f"# command: {command}", f"# config: {blob}"]


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
        p = pspec.to_params()
        scales = derived_scales(p)
        theta = _resolve_theta(p, tspec, cfg)
        name = label if label is not None else "-"
        lines.append(f"# variant {name}: params="
                     + json.dumps(pspec.to_dict(), sort_keys=True,
                                  separators=(",", ":"))
                     + f" theta_deg={math.degrees(theta):.12g}"
                     + f" eps_crit={scales.eps_crit:.12g}")
        S = criteria.spectral_stack(p, cfg.sweep.omegas())
        n = len(S.omega)
        table = {"omega": S.omega, "theta_deg": [math.degrees(theta)] * n,
                 **criteria.witness_table(S, p.gamma_a, theta, cfg.duan_pairing,
                                          cfg.epr_infer_from)}
        flags = criteria.witness_flags(table)
        table["flags"] = [";".join(f for f in flags if flags[f][k]) or "-"
                          for k in range(n)]
        if cfg.combined:
            table.update(criteria.combined_variances(S, p.gamma_a))
        if multi:
            table["variant"] = [name] * n
        cols = (c if isinstance(c, list) else c.tolist() for c in table.values())
        rows.extend(",".join(_fmt(x) for x in row) for row in zip(*cols))
    lines.append(",".join(table))  # every variant has the same columns
    lines.extend(rows)
    _emit(lines, args.out)
    return 0


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
    for patch in patches:
        p = cfg.params.patched(patch, f"stability {spec.mode}").to_params()
        lead = ((patch["J_a"], patch["J_b"]) if spec.mode == "coupling-grid"
                else (patch["pump_fraction"], abs(p.eps1)))
        lines.append(",".join(_fmt(x) for x in (
            *lead, float(np.min(stability_eigenvalues(p).real)),
            derived_scales(p).eps_crit, threshold_bisection(p))))
    _emit(lines, args.out)
    return 0


def cmd_optimize_angle(args, cfg: RunConfig) -> int:
    p = cfg.params.to_params()
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
    deg = float(_fmt(math.degrees(t))) % period
    lines = _header("optimize-angle", cfg)
    lines.append("omega,objective,theta_deg,value")
    lines.append(",".join(_fmt(x) for x in (omega, objective, deg, v)))
    _emit(lines, args.out)
    return 0


# printed name -> criteria.quadrature name of each combination verify checks
_VERIFY_COMBOS = {"X1": "X1", "Y1": "Y1", "Xminus": "Xm", "Yplus": "Yp"}


def cmd_verify(args, cfg: RunConfig) -> int:
    p = cfg.params.to_params()
    model = build_linear_model(p, steady_state(p))
    if args.negative_control:
        A = np.array(model.A)
        for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
            A[i, j] = -A[i, j]
        model = dataclasses.replace(model, A=_frozen(A))
    theta = _resolve_theta(p, cfg.theta, cfg)
    ens = sde.integrate(p, dataclasses.replace(cfg.sde, seed=cfg.seed))
    picks = []
    for name, quadrature in _VERIFY_COMBOS.items():
        terms = criteria.quadrature(quadrature, theta)
        est = sde.estimate_output_spectrum(ens, terms)
        picks.append((name, terms, [est.nearest(w) for w in cfg.verify.omegas]))
    bins = np.unique([wbin for _, _, near in picks for wbin, _, _ in near])
    S = spectrum.spectral_matrix(model, bins)
    report = []
    worst = 0.0
    for name, terms, near in picks:
        preds = dict(zip(bins.tolist(),
                         spectrum.output_moment(S, terms, terms, p.gamma_a).tolist()))
        for wbin, val, err in near:
            pred = preds[wbin]
            diff = val - pred
            if err > 0.0:
                z = diff / err
            else:
                z = 0.0 if diff == 0.0 else math.inf
            worst = max(worst, abs(z))
            report.append((name, wbin, val, err, pred, z))
    lines = _header("verify", cfg)
    lines.append("combination,omega,sde_value,sde_stderr,linear_value,z")
    for name, wbin, val, err, pred, z in report:
        lines.append(",".join(_fmt(x) for x in (name, wbin, val, err, pred, z)))
    ok = worst < _Z_LIMIT
    lines.append(f"# diverged: {ens.n_diverged} of {ens.n_traj}")
    lines.append(f"# verdict: {'PASS' if ok else 'FAIL'} "
                 f"(max |z| = {worst:.3g}, limit {_Z_LIMIT:g})")
    _emit(lines, args.out)
    if args.out:
        print(f"verify: {'PASS' if ok else 'FAIL'} (max |z| = {worst:.3g})")
    return 0 if ok else 3


def cmd_sde_dump(args, cfg: RunConfig) -> int:
    p = cfg.params.to_params()
    ens = sde.integrate(p, dataclasses.replace(cfg.sde, seed=cfg.seed, record="all"))
    path = sde.write_ensemble_dump(ens, args.out)
    print(f"wrote {ens.n_traj} trajectories x {ens.n_samples} samples "
          f"({ens.n_diverged} diverged) to {path} (+ .json sidecar)")
    return 0


def _add_common(sub: argparse.ArgumentParser, out_required: bool = False):
    src = sub.add_mutually_exclusive_group()
    src.add_argument("--config", metavar="PATH", help="JSON run config")
    src.add_argument("--preset", choices=PRESETS,
                     help="bundled demonstration config")
    sub.add_argument("--set", metavar="KEY=VALUE", action="append",
                     default=[], dest="overrides",
                     help="dotted-key config override, repeatable "
                          "(e.g. params.J_a=2)")
    sub.add_argument("--out", metavar="PATH", required=out_required,
                     help="output file (default: stdout)" if not out_required
                     else "output file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="opodimer",
                     description="Coupled-downconverter squeezing and "
                                 "entanglement calculator")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("spectrum", help="frequency sweep of output spectra "
                        "and witnesses")
    _add_common(s)
    s.set_defaults(func=cmd_spectrum)

    s = subs.add_parser("stability", help="threshold map over couplings or "
                        "pump strengths")
    _add_common(s)
    s.set_defaults(func=cmd_stability)

    s = subs.add_parser("optimize-angle", help="best local-oscillator angle "
                        "for one objective")
    _add_common(s)
    s.add_argument("--objective", choices=criteria.OBJECTIVES,
                   default=None, help="figure of merit (default from config)")
    s.add_argument("--omega", type=float, default=None,
                   help="frequency at which to optimize (default from config)")
    s.set_defaults(func=cmd_optimize_angle)

    s = subs.add_parser("verify", help="stochastic oracle vs linearized "
                        "spectra with z-scores")
    _add_common(s)
    s.add_argument("--negative-control", action="store_true",
                   help="corrupt the linearized drift (sign flip) to prove "
                        "the comparison can fail")
    s.set_defaults(func=cmd_verify)

    s = subs.add_parser("sde-dump", help="integrate and dump raw trajectories")
    _add_common(s, out_required=True)
    s.set_defaults(func=cmd_sde_dump)

    for name in ("verify", "sde-dump"):  # the commands that draw noise
        subs.choices[name].add_argument("--seed", type=int, default=None,
                                        help="override the config seed")
    return parser


def _load(args) -> RunConfig:
    if args.config:
        cfg = load_config_file(args.config)
    elif args.preset:
        cfg = load_preset(args.preset)
    else:
        cfg = RunConfig()
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    if getattr(args, "seed", None) is not None:  # verify and sde-dump
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        return args.func(args, cfg)
    except AboveThresholdError as exc:
        print(f"opodimer: above threshold: {exc}", file=sys.stderr)
        return 2
    except OpodimerError as exc:
        print(f"opodimer: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"opodimer: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
