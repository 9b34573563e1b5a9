"""opodimer benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory, nothing is installed. With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
separate traced pass instead. The lines before it are a readable table.
See NOTES.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 170.0

# Fresh interpreter: import the package and load the workload's configs.
SETUP_SCRIPT = """
import opodimer
from opodimer.config import RunConfig, apply_overrides, load_preset
for preset, sets in {configs!r}:
    cfg = load_preset(preset) if preset else RunConfig()
    if sets:
        apply_overrides(cfg, sets)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in workloads.THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list, env: dict) -> subprocess.CompletedProcess:
    """Run a child to completion; a timeout kills it and waits for it."""
    return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT, check=False)


def command_configs(name: str, seed: int, small: bool) -> list:
    """(preset, [override, ...]) of every command of the workload."""
    configs = []
    for cmd in workloads.build(name, seed, small).commands:
        argv = cmd.argv
        preset = argv[argv.index("--preset") + 1] if "--preset" in argv else None
        sets = [argv[i + 1] for i, a in enumerate(argv) if a == "--set"]
        if (preset, sets) not in configs:
            configs.append((preset, sets))
    return configs


def measure_setup(name: str, seed: int, small: bool, env: dict) -> list:
    """(raw, scaled) wall time of fresh interpreters, from spawn to exit,
    that import opodimer and load the workload's configs. Each sample is
    scaled to reference speed by calibration kernels run just before and
    just after it on the same CPU (see speed.py)."""
    script = SETUP_SCRIPT.format(configs=command_configs(name, seed, small))
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.kernel_time()
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", script], env)
        raw = time.perf_counter() - t0
        after = speed.kernel_time()
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed:\n{proc.stderr}")
        samples.append((raw, raw * speed.REFERENCE_KERNEL_S / ((before + after) / 2)))
    return samples


def import_times(env: dict) -> dict:
    """Cumulative import times (s) from ``python -X importtime``, median of
    IMPORT_SAMPLES fresh interpreters. A module never imported reads 0."""
    samples = {"opodimer": [], "scipy.optimize": []}
    for _ in range(IMPORT_SAMPLES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import opodimer"], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed:\n{proc.stderr}")
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cum[parts[2].strip()] = int(parts[1]) / 1e6
        for name, vals in samples.items():
            vals.append(cum.get(name, 0.0))
    return {"import.opodimer_s": statistics.median(samples["opodimer"]),
            "import.scipy_optimize_s": statistics.median(samples["scipy.optimize"])}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="tiny problem sizes, for the self-check only")
    args = ap.parse_args(argv)

    if not (SRC / "opodimer" / "__init__.py").is_file():
        print(f"run.py: no opodimer package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    result_path = OUT / f"result-{tag}.json"
    if result_path.exists():
        result_path.unlink()

    # One CPU for this process and every child, so that the calibration
    # kernel runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    metrics, setup = {}, None
    if args.trace:
        metrics.update(import_times(env))
    else:
        setup = measure_setup(args.workload, args.seed, args.small, env)
        metrics["setup_s"] = statistics.median(s for _, s in setup)
    proc = run_child([sys.executable, str(HERE / "worker.py"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--outdir", str(OUT / "work"), "--result", str(result_path)]
                     + (["--small"] if args.small else []), env)
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(proc.stderr)
        print(f"run.py: workload process failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text(encoding="ascii"))
    if args.trace:
        metrics.update(res["layers"])
    else:
        metrics.update(wall_s=res["wall_s"], peak_rss_mb=res["peak_rss_mb"],
                       ok_ratio=1.0 - res["fail_ratio"])
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"run.py: metrics not produced: {missing}", file=sys.stderr)
        return 1

    info = res["machine"]
    report = {"args": vars(args), "metrics": metrics, "worker": res, "setup": setup}
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1), encoding="ascii")
    print(f"# opodimer benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {json.dumps(info, sort_keys=True)}")
    print(f"# passes: {len(res['pass_walls'])} timed; program time at reference speed "
          + ", ".join(f"{w:.3f}" for w in res["pass_walls"]) + " s; raw "
          + ", ".join(f"{w:.3f}" for w in res["pass_raw_walls"]) + " s")
    k = res["kernel"]
    print(f"# calibration kernel: {k['runs']} runs, median {k['median_s'] * 1e3:.3f} ms "
          f"(min {k['min_s'] * 1e3:.3f}, max {k['max_s'] * 1e3:.3f}; "
          f"reference {speed.REFERENCE_KERNEL_S * 1e3:g} ms)")
    if setup:
        print("# setup samples: raw " + ", ".join(f"{r:.3f}" for r, _ in setup)
              + " s; at reference speed " + ", ".join(f"{v:.3f}" for _, v in setup) + " s")
    print(f"# operations: {res['attempted']} attempted, {res['failed']} failed, "
          f"{res['defects']} known-defect rows; fail_ratio = {res['fail_ratio']:.6g}")
    for msg in res["messages"]:
        print(f"# failure: {msg}")
    if res.get("trace_missing"):
        print(f"# not traced (absent from the package): {res['trace_missing']}")
    for name in units:
        print(f"{name:<44} {metrics[name]:>16.6g} {units[name]}")
    out = {"correct": res["failed"] == 0, "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
