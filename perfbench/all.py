"""Print every benchmark metric by name and unit, for every workload.

    python3 perfbench/all.py [--seed N] [--seconds S]

Runs ``run.py`` once untraced and once traced on each workload, one run
at a time, and prints their metric tables.  Exits with 1 if any operation
failed its checks.  Takes about five minutes with the default seconds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import HERE, ROOT
from run import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} --trace {trace}: exit code {out.returncode}")
                correct = False
                continue
            print("\n".join(lines[:-1]))
            correct = correct and json.loads(lines[-1])["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
