"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of ``run.py`` with seed 0 for one job cycle
(``--seconds 1``) untraced, and twice traced. Asserts that

* ``BENCHMARK.json`` and ``bench/metrics.json`` name the same metrics,
  with the same units;
* the last line of each run is the result object, with every end-to-end
  (untraced) or per-layer (traced) metric printed under its unit;
* ``failed`` is 0 (``failed_frac == 0``) and ``correct`` is true;
* the two traced runs report identical counts: the ``scalars.*.calls``
  metrics and every ``.candidates``, ``.kept`` and ``.enumerated`` count.

Exits 0 when all hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 0
EXACT_SUFFIXES = (".candidates", ".kept", ".enumerated")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def check(result, wanted, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert result["attempted"] >= 1, label
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{label}: metrics differ: {set(got) ^ set(wanted)}"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = json.loads((BENCH / "metrics.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[kind]]
        described = [(m["name"], m["unit"], m["better"]) for m in meta[kind]]
        assert listed == described, f"BENCHMARK.json and metrics.json disagree on {kind}"
    assert [w["name"] for w in bench["workloads"]] == [w["name"] for w in meta["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        check(run(name, 0), e2e, f"{name} --trace 0")
        first, second = run(name, 1), run(name, 1)
        check(first, layer, f"{name} --trace 1")
        check(second, layer, f"{name} --trace 1 (again)")
        exact = [k for k in layer
                 if k.startswith("scalars.") or k.endswith(EXACT_SUFFIXES)]
        for k in exact:
            a, b = first["metrics"][k]["value"], second["metrics"][k]["value"]
            assert a == b, f"{name}: {k} differs between traced runs: {a} != {b}"
        print(f"{name}: ok ({len(exact)} counts repeat exactly)")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
