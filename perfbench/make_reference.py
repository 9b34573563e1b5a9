"""Write reference.json: SHA-256 and size of each preset's spectrum CSV.

    python3 perfbench/make_reference.py

Run from a checkout whose program output is the reference. The sweep
workload fails any command whose CSV bytes differ from these; regenerate
only in a change that means to alter those bytes, and say why there.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from opodimer import cli  # noqa: E402
from workloads import PRESETS, REFERENCE, sha256  # noqa: E402


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for preset in PRESETS:
            out = Path(tmp) / f"{preset}.csv"
            if cli.main(["spectrum", "--preset", preset, "--out", str(out)]) != 0:
                raise SystemExit(f"spectrum --preset {preset} failed")
            data = out.read_bytes()
            ref[preset] = {"sha256": sha256(data),
                           "bytes": len(data)}
    REFERENCE.write_text(json.dumps({"spectrum": ref}, indent=1, sort_keys=True) + "\n",
                         encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
