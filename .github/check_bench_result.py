"""Check one benchmark result line, read as JSON from standard input.

    python3 perfbench/run.py --workload W --seed S --seconds 2 --trace T | tail -n 1 |
        python3 .github/check_bench_result.py SECTION LABEL...

SECTION names the list of BENCHMARK.json that the run must carry:
`end_to_end` for an untraced run, `per_layer` for a traced one. Every
metric of that list must be present, in that file's unit, with a finite
value. End-to-end values must also be positive; per-layer ones may be zero
(a span the workload never enters) or negative (`bench.trace.overhead_pct`).
The run's own checks must have passed and no operation may have failed.
The LABELs are printed with the result. Exits 0 if all of this holds, and
1 after naming each fault otherwise.
"""

import json
import math
import sys
from pathlib import Path

section, labels = sys.argv[1], sys.argv[2:]
declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[section]
result = json.load(sys.stdin)
print(*labels, result)
faults = []
if result.get("correct") is not True or result.get("failed") != 0:
    faults.append(f"checks: correct={result.get('correct')}, failed={result.get('failed')}")
for metric in declared:
    got = result.get("metrics", {}).get(metric["name"])
    value = got.get("value") if isinstance(got, dict) else None
    number = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    if not (number and got.get("unit") == metric["unit"] and (value > 0 or section != "end_to_end")):
        sign = " positive" if section == "end_to_end" else ""
        faults.append(f"metric {metric['name']}: want a finite{sign} value in {metric['unit']}, got {got}")
for fault in faults:
    print(f"{' '.join(labels)}: {fault}")
sys.exit(1 if faults else 0)
