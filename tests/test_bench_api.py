"""The benchmark's workloads still run against the library's API.

`bench/selftest.py` exercises the whole harness but takes many seconds;
this runs one tiny op of each workload `BENCHMARK.json` names, so a change
to a name or signature the benchmark calls fails here first.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_benchmark_workload_runs_one_op(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    from spans import NullTracer

    tracer = NullTracer()
    wl = workloads.WORKLOADS[name](0, tmp_path, True)
    inp = wl.make_input(0)
    out = wl.run(inp, tracer)
    assert wl.check(inp, out) == []
    counts = Counter()
    wl.count(inp, out, counts)
    assert counts
    wl.probe(out, tracer)
