"""Record perfbench/baseline.json: every workload, both seeds, both modes.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Runs perfbench/run.py one run at a time at the BENCHMARK.json run length.
Seed 0 was used while the benchmark was built; seed 7919 was not.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 7919)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
                *_, detail, result = out.stdout.splitlines()
                runs.append({**json.loads(detail)["detail"], "result": json.loads(result)})
                print(workload, seed, trace, result, file=sys.stderr)
    path = Path(__file__).with_name("baseline.json")
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
