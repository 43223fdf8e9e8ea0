"""Every workload's figures in one command, each workload in a fresh process.

    python3 perfbench/summary.py [--seed 1]

Each run measures for BENCHMARK.json's ``run_seconds``.  Prints verdict_s,
verify_s, verify_s_max, classify_s, peak_rss_mb, setup_s and error_ratio by
name and unit for each workload that has them.  Exits 1 if a workload fails
to run or its correctness gate fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}")
            status = 1
            continue
        # Figures only: per-call and per-layer tables are indented under a "...:" header.
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith("    ") and not line.endswith(":")))
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
