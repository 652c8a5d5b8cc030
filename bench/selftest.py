"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

For every workload the runner knows, listed in BENCHMARK.json or not, it
makes one plain run and two traced runs on one seed, each in a fresh
process with shrunken inputs. It fails unless every run prints exactly the
metrics and units BENCHMARK.json names, no op fails, every count of the
two traced runs repeats exactly, and every per-layer metric is non-zero on
at least one workload.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
SEED = 7

from workloads import WORKLOADS  # noqa: E402  (needs the paths above)


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"{workload} --trace {trace}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    counts = [
        m["name"] for m in spec["per_layer"]
        if m["unit"] in ("count", "ratio") and not m["name"].startswith("trace.")
    ]
    problems, produced = [], {}
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload the runner does not know")
    for workload in WORKLOADS:
        runs = [(0, run(workload, 0)), (1, run(workload, 1)), (1, run(workload, 1))]
        for trace, res in runs:
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{workload} --trace {trace}: metrics {units}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{workload} --trace {trace}: {res['failed']} failed ops")
        first, second = runs[1][1]["metrics"], runs[2][1]["metrics"]
        for name in counts:
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: count {name} read {first[name]['value']} "
                                f"then {second[name]['value']}")
        for name, value in first.items():
            produced[name] = produced.get(name, 0) or value["value"]
        print(f"{workload}: {sum(r['attempted'] for _, r in runs)} ops checked")
    # A per-layer name that no workload produces is a typo or a lost span.
    for name, value in produced.items():
        if not value:
            problems.append(f"per-layer metric {name} reads 0 on every workload")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
