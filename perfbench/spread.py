"""Run the benchmark over several seeds and summarize its run-to-run spread.

    python3 perfbench/spread.py --workloads sweep,scan --seeds 1-10 \
        [--trace-seed 1] [--out perfbench/trajectory/BENCH_<label>.json --label <label>]

For every workload and end-to-end metric it reports the median of the runs
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)). With --trace-seed it adds one
traced run per workload. With --out it writes the runs and the summary as a
trajectory point, together with the machine description.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = elapsed
    res["seed"] = seed
    return res


def summarize(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="sweep,scan,verify,ensemble")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--label", default="", help="what was measured, e.g. the commit")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = [run(wl, s, seconds, 0) for s in seeds(args.seeds)]
        summary = summarize(runs)
        entry = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            flag = "" if s["spread"] is None or s["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"{wl:<9} {name:<12} median {s['median']:<12.6g} {s['unit']:<3} "
                  f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f} "
                  f"(bound {bounds[name]}){flag}")
        print(f"{wl:<9} run time {statistics.median(r['elapsed_s'] for r in runs):.1f} s "
              f"median, {max(r['elapsed_s'] for r in runs):.1f} s max; "
              f"correct {all(r['correct'] for r in runs)}", flush=True)
        if args.trace_seed is not None:
            entry["traced"] = run(wl, args.trace_seed, seconds, 1)
            print(f"{wl:<9} traced run {entry['traced']['elapsed_s']:.1f} s", flush=True)
        doc["workloads"][wl] = entry
    if args.out:
        report = json.loads(next((HERE / "out").glob("report-*.json")).read_text())
        doc["machine"] = report["worker"]["machine"]
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
