"""Minor page faults per benchmark round, in the benchmark harness's own flow.

    python3 .github/fault_counts.py WORKLOAD ROUNDS

Runs WORKLOAD from perfbench/workloads.py at seed 0 the way an untraced
perfbench/run.py run does: BLAS threads capped as there, the set-up run
`SETUP_REPEATS` times, one peak pass under tracemalloc, then ROUNDS
rounds. It prints one JSON line with the median, minimum and maximum
minor page faults (`ru_minflt` of this process) that a round took. A
round that faults re-touches memory the allocator handed back to the
OS; the count is reported, and gates nothing.
"""

import json
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv):
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run  # imports no numpy, so its BLAS cap still applies

    run.cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if len(argv) != 2 or argv[0] not in workloads.WORKLOADS or not argv[1].isdigit() or int(argv[1]) < 1:
        print(f"usage: fault_counts.py {{{','.join(workloads.WORKLOADS)}}} ROUNDS", file=sys.stderr)
        return 2
    name, rounds = argv[0], int(argv[1])
    workload = workloads.WORKLOADS[name](0)
    for _ in range(run.SETUP_REPEATS):
        workload.setup()
    tracemalloc.start()
    workload.peak_pass()
    tracemalloc.stop()
    counts = []
    for _ in range(rounds):
        before = minor_faults()
        workload.round()
        counts.append(minor_faults() - before)
    per_round = {"median": statistics.median(counts), "min": min(counts), "max": max(counts)}
    print(json.dumps({"workload": name, "rounds": rounds, "minor_faults_per_round": per_round}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
