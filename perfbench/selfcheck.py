"""Self-check of the benchmark: every workload at a tiny size, untraced and
traced, must print every metric BENCHMARK.json names, with its unit.

    python3 perfbench/selfcheck.py

Takes about half a minute. Exits non-zero and names the problem on failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--small"],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
            where = f"{wl} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{where}: correct={res['correct']} "
                                f"attempted={res['attempted']} failed={res['failed']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = res["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is not None and (m.get("unit") != unit
                                      or not math.isfinite(m.get("value", math.nan))):
                    problems.append(f"{where}: {name} = {m}")
            print(f"{where}: {len(got)} metrics, {res['attempted']} operations", flush=True)
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
