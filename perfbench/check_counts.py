"""Replay check for the exact counts the traced benchmark reports.

Runs `run.py --trace 1` twice per workload at one seed and requires the
count metrics (units "count" and "count-derived") and the trial
histogram to be identical, and both runs to be correct.  Later changes may cite these counts only
because they replay bit-for-bit.

    python3 perfbench/check_counts.py [--seed 2024] [--seconds 2] [workload ...]

Exit code 0 when every workload replays, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("alt-cells", "alt-trials", "pstar-q")


def traced_counts(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])
    counts = {k: m["value"] for k, m in result["metrics"].items()
              if m["unit"].startswith("count")}
    return out.returncode == 0 and result["correct"], counts, record.get("histogram")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args(argv)

    ok = True
    for w in args.workloads:
        a = traced_counts(w, args.seed, args.seconds)
        b = traced_counts(w, args.seed, args.seconds)
        same = a == b and a[0]
        ok = ok and same
        print(f"{w:<11} {'replays' if same else 'DIFFERS'}  counts {a[1]}"
              + (f"  histogram {a[2]}" if a[2] else ""))
        if not same:
            print(f"  second run: {b}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
