"""Workload process: warm-up, timed passes, optional traced pass, checks.

Started by run.py, one process per workload, so that its peak RSS belongs
to that workload. Writes one JSON document to --result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from speed import Speedometer
from tracing import ROOT, LayerTable, Tracer, package_modules


def clear_program_caches() -> None:
    """Empty every functools cache of the package, so each command starts
    as cold as a fresh CLI invocation (import cost aside)."""
    for mod in package_modules():
        for v in list(vars(mod).values()):
            clear = getattr(v, "cache_clear", None)
            if callable(clear):
                clear()


def run_command(cli, cmd, out: Path, tracer=None):
    """Run one command in process; returns (exit code, error, start, end)."""
    clear_program_caches()
    argv = [*cmd.argv, "--out", str(out)]
    rc, err = None, None
    span = tracer.open(tracer.intern(ROOT)) if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a raising command is a failed operation
        err = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if tracer:
        tracer.close(span)
    return rc, err, t0, t1


def run_pass(cli, wl, outdir: Path, tag: str, tracer=None) -> dict:
    """One pass over the workload's commands. The pass's program time is
    taken over the commands' own intervals (see pass_time); cache clearing
    and output checks lie outside them."""
    t_start, cpu0, results, spans = time.perf_counter(), time.process_time(), [], []
    for cmd in wl.commands:
        out = outdir / f"{tag}-{cmd.key}.csv"
        if out.exists():
            out.unlink()
        rc, err, t0, t1 = run_command(cli, cmd, out, tracer)
        spans.append((t0, t1))
        results.append((cmd, rc, err, out.read_bytes() if out.exists() else b""))
    return {"elapsed": time.perf_counter() - t_start, "spans": spans,
            "cpu": time.process_time() - cpu0, "results": results}


def pass_time(meter: Speedometer, spans: list) -> tuple:
    """(raw, scaled) program time of a pass: the sum over its commands."""
    raw = scaled = 0.0
    for t0, t1 in spans:
        r, s = meter.program_time(t0, t1)
        raw += r
        scaled += s
    return raw, scaled


def check_pass(wl, p: dict, tally, stats) -> None:
    for cmd, rc, err, data in p["results"]:
        workloads.check_command(wl, cmd, rc, err, data, tally, stats)


def layer_metrics(wl, table: LayerTable, traced: dict, traced_wall: float,
                  untraced_wall: float, untraced_cpu: float, untraced_raw: float,
                  stats: dict, tally) -> dict:
    m = {}
    for name in ("spectrum.spectral_matrix", "spectrum.output_moment",
                 "model.stability_eigenvalues", "model.threshold_bisection",
                 "model.steady_state", "linearized.build_linear_model",
                 "linearized.numeric_eigenvalues", "criteria.optimize_angle",
                 "sde.integrate", "sde.estimate_output_spectrum",
                 "criteria.evaluate_record"):
        m[name + ".calls"] = table.n_calls(name)
        if name != "criteria.evaluate_record":
            m[name + ".total_s"] = table.total_s(name)
    for name in ("config.load_preset", "config.apply_overrides",
                 "criteria.combined_variances"):
        m[name + ".total_s"] = table.total_s(name)
    m["spectrum.coefficient_vector.calls"] = table.n_calls("spectrum.coefficient_vector")
    m["criteria.evaluate_record.self_s"] = table.self_s("criteria.evaluate_record")
    m["cli.cmd_spectrum.self_s"] = table.self_s("cli.cmd_spectrum")
    m["cli.csv_bytes"] = sum(len(d) for _, _, _, d in traced["results"])
    n_opt = table.n_calls("criteria.optimize_angle")
    witness = sum(table.counted_under(f"criteria.{f}", "criteria.optimize_angle")
                  for f in ("single_mode_moments", "duan_sum", "epr_product"))
    m["criteria.witness_evals_per_optimize"] = witness / n_opt if n_opt else 0.0
    n_solve = table.n_calls("spectrum.spectral_matrix")
    m["criteria.projections_per_solve"] = (
        table.n_calls("spectrum.output_moment") / n_solve if n_solve else 0.0)
    rows = stats.get("grid_rows", 0)
    m["model.threshold_mismatch_ratio"] = stats.get("grid_mismatch", 0) / rows if rows else 0.0
    n_int = table.n_calls("sde.integrate")
    steps = n_int * wl.sde_steps
    m["sde.us_per_step_traj"] = (1e6 * table.total_s("sde.integrate") / (steps * wl.sde_traj)
                                 if steps else 0.0)
    m["sde.drift_evals_per_step"] = (
        table.counted_under("model.drift_rhs", "sde.integrate") / steps if steps else 0.0)
    div = stats.get("diverged", [])
    m["sde.diverged_ratio"] = statistics.fmean(div) if div else 0.0
    m["sde.states_mb"] = stats.get("states_bytes", 0) / 2 ** 20
    m["process.cpu_s"] = untraced_cpu
    m["process.raw_wall_s"] = untraced_raw
    tables = stats.get("z_tables", [])
    m["verify.pass_ratio"] = (sum(max(map(abs, zs)) < workloads.Z_PASS for zs in tables)
                              / len(tables) if tables else 0.0)
    m["verify.max_abs_z"] = max((max(map(abs, zs)) for zs in tables), default=0.0)
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    m["fail_ratio"] = tally.fail_ratio()
    return m


def record_states_size(tracer: Tracer, stats: dict):
    """Wrap sde.integrate once more to add up the array bytes of the
    ensembles it returns (computed from array sizes, not measured RSS)."""
    import opodimer.sde as sde_mod

    inner = getattr(sde_mod, "integrate", None)
    if inner is None:
        return

    def sized(*args, **kwargs):
        ens = inner(*args, **kwargs)
        n = sum(v.nbytes for v in getattr(ens, "__dict__", {}).values()
                if hasattr(v, "nbytes"))
        stats["states_bytes"] = max(stats.get("states_bytes", 0), n)
        return ens
    tracer.replace(inner, sized)


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in workloads.THREAD_VARS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    from opodimer import cli

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.small)
    warm = workloads.build(args.workload, args.seed, small=True)
    meter = Speedometer()
    meter.start()
    run_pass(cli, warm, outdir, "warmup")

    tally, stats = workloads.Tally(), {}
    passes, cpus, first = [], [], None
    t_start = time.perf_counter()
    # Timed passes fill --seconds: another pass starts while it would end
    # no later than half a pass after the deadline. Only the first pass's
    # outputs are kept, so peak RSS does not grow with the pass count.
    while not passes or time.perf_counter() - t_start + passes[-1]["elapsed"] / 2 <= args.seconds:
        p = run_pass(cli, wl, outdir, "pass")
        check_pass(wl, p, tally, stats)
        passes.append({"elapsed": p["elapsed"], "spans": p["spans"]})
        cpus.append(p["cpu"])
        if first is None:
            first = {cmd.key: data for cmd, _, _, data in p["results"]}
        del p
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.name == "sweep":
        workloads.spot_check_closed_forms(first, args.seed, tally)

    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        trace_stats = {}
        record_states_size(tracer, trace_stats)
        try:
            traced = run_pass(cli, wl, outdir, "traced", tracer)
        finally:
            tracer.uninstall()
    meter.stop()

    times = [pass_time(meter, p["spans"]) for p in passes]
    kernel_s = meter.kernel_times()
    result = {"workload": wl.name, "seed": args.seed, "small": args.small,
              "machine": machine(),
              "pass_walls": [s for _, s in times],
              "pass_raw_walls": [r for r, _ in times],
              "wall_s": statistics.median(s for _, s in times),
              "raw_wall_s": statistics.median(r for r, _ in times),
              "cpu_s": statistics.median(cpus),
              "kernel": {"runs": len(kernel_s), "median_s": float(statistics.median(kernel_s)),
                         "min_s": float(kernel_s.min()), "max_s": float(kernel_s.max())},
              "peak_rss_mb": peak_rss_mb}

    if args.trace:
        check_pass(wl, traced, tally, trace_stats)
        for cmd, _, _, data in traced["results"]:
            tally.attempted += 1
            if data != first[cmd.key]:
                tally.fail(f"{cmd.key}: traced output differs from untraced")
        tracer.write(outdir / f"spans-{wl.name}-{args.seed}.npz")
        table = LayerTable(tracer)
        result["layers"] = layer_metrics(wl, table, traced, pass_time(meter, traced["spans"])[1],
                                         result["wall_s"], result["cpu_s"], result["raw_wall_s"],
                                         trace_stats, tally)
        result["trace_missing"] = table.missing
    result.update(attempted=tally.attempted, failed=tally.failed,
                  defects=tally.defects, fail_ratio=tally.fail_ratio(),
                  messages=tally.messages, stats={
                      k: v for k, v in stats.items() if k != "z_tables"},
                  z_tables=stats.get("z_tables", []))
    Path(args.result).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
