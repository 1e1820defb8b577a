"""The benchmark under bench/ against the package it measures.

bench/ imports library names and patches callables by name, so a rename in
src/ can break `bench/run.py --record` or leave a per-layer span reading 0
without any bench file failing to load. These tests load the benchmark
modules by file path and check that everything they name still exists,
apart from the stale names listed here, which the next change to the
benchmark drops. The tools that run the benchmark are checked here too:
`tools/check_goldens.py` against the recorded digests, and the summary of
`tools/ab_bench.py` on canned run records.
"""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import cocycle_forge
from cocycle_forge import cohomology

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# callables bench/tracing.py still lists though the package no longer has them
STALE = {
    "ring.is_ring_hom",
    "cohomology._aut0_chunk",
    "scalars.ScalarDomain.key",
    "gauge.gauge_stabilizer",
    "cohomology.star_act",
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_modules_load():
    for name in ("check", "workloads", "tracing"):
        load(name)


def test_bench_imports_exist():
    # run.py is a script; its imports are checked without running it
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cocycle_forge"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"


def test_tracer_misses_only_the_stale_names():
    tracing = load("tracing")
    tracer = tracing.Tracer()
    original = cohomology.verify_ses
    tracer.install()
    try:
        assert cocycle_forge.verify_ses is not original
        missing = {name.removeprefix("cocycle_forge.") for name in tracer.missing}
    finally:
        tracer.uninstall()
    assert cohomology.verify_ses is original and cocycle_forge.verify_ses is original
    assert missing <= STALE, missing - STALE


def test_check_goldens_matches_every_job():
    result = subprocess.run([sys.executable, "tools/check_goldens.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == ["704/704 bench outputs match bench/goldens.json"]


def test_check_goldens_reports_a_corrupted_digest(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("check_goldens", ROOT / "tools" / "check_goldens.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    jobs = tool.workloads.all_jobs("h1-iso")[:3]
    goldens = tool.run.load_goldens()
    assert tool.differing(jobs, goldens, str(tmp_path)) == []
    goldens[jobs[1].id] = "0" * 64
    assert tool.differing(jobs, goldens, str(tmp_path)) == [jobs[1].id]


def test_ab_bench_summary_applies_the_claim_rule():
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    setup = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    pairs = []
    for i in range(10):
        parent = {"setup_s": setup[i], "jobs_per_s": 300 + 2 * i,
                  "job_p50_s": 0.002 + 0.0001 * i, "job_p90_s": 0.004 + 0.0001 * i,
                  "peak_rss_mb": 32.0}
        change = {"setup_s": setup[i], "jobs_per_s": 1.4 * parent["jobs_per_s"],
                  "job_p50_s": parent["job_p50_s"] - 0.00001,
                  "job_p90_s": 1.3 * parent["job_p90_s"], "peak_rss_mb": 32.0}
        pairs.append((parent, change))
    rows = {row["name"]: row for row in tool.summarize(pairs, specs)}
    # a gain: 10/10 pairs and a median difference beyond the parent's spread
    assert rows["jobs_per_s"]["verdict"] == "gain" and rows["jobs_per_s"]["wins"] == 10
    assert abs(rows["jobs_per_s"]["ratio"] - 1.4) < 1e-9
    # every pair won, by less than the parent's quartile spread
    assert (rows["job_p50_s"]["wins"], rows["job_p50_s"]["verdict"]) == (10, "held")
    assert rows["job_p90_s"]["verdict"] == "worse"
    # ties count for neither side; a spread wider than the bound decides nothing
    assert (rows["setup_s"]["wins"], rows["setup_s"]["verdict"]) == (0, "unresolved")
    assert (rows["peak_rss_mb"]["wins"], rows["peak_rss_mb"]["verdict"]) == (0, "held")
    assert rows["setup_s"]["parent"][1] == 1.0
    # two lost pairs of ten break the 9/10 rule, however large the median gain
    for parent, change in pairs[:2]:
        change["jobs_per_s"] = parent["jobs_per_s"] - 1
    rows = {row["name"]: row for row in tool.summarize(pairs, specs)}
    assert (rows["jobs_per_s"]["wins"], rows["jobs_per_s"]["verdict"]) == (8, "held")


def test_ab_bench_setup_only_compares_setup_s_alone(monkeypatch, tmp_path, capsys):
    # canned set-up times: the parent starts the even pairs, the change the
    # odd ones, and the summary is the setup_s row of summarize
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    for side in (parent, change):
        Path(side).mkdir()
    times = {parent: iter([0.20, 0.30, 0.22, 0.21]), change: iter([0.24, 0.25, 0.23, 0.26])}
    calls = []

    def setup_time(side, workload, seed):
        calls.append((side, workload, seed))
        return {"setup_s": next(times[side])}

    monkeypatch.setattr(tool, "setup_time", setup_time)
    assert tool.main([parent, change, "--workload", "h1-iso", "--seed", "1",
                      "--setup-only", "4"]) == 0
    assert [c[0] for c in calls] == [parent, change, change, parent] * 2
    assert {c[1:] for c in calls} == {("h1-iso", 1)}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 0: setup_s 0.2 -> 0.24"
    assert out[4] == "h1-iso, seed 1, 4 pairs of set-up processes"
    (row,) = out[5:]
    specs = [s for s in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
             if s["name"] == "setup_s"]
    pairs = [({"setup_s": p}, {"setup_s": c})
             for p, c in zip([0.20, 0.30, 0.22, 0.21], [0.24, 0.25, 0.23, 0.26])]
    (want,) = tool.summarize(pairs, specs)
    assert row.startswith("setup_s ") and row.endswith(
        f"won {want['wins']}/4  {want['verdict']}")
    assert f"{want['ratio']:.3f}x" in row


def test_ab_bench_exports_a_revision(tmp_path):
    # a side that is no directory is a git revision, exported with git
    # archive; a directory is used as it is
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    tree = Path(tool.checkout("HEAD", str(tmp_path)))
    assert tree.parent == tmp_path
    assert (tree / "bench" / "run.py").is_file()
    assert (tree / "src" / "cocycle_forge" / "__init__.py").is_file()
    assert tool.checkout(str(tree), str(tmp_path)) == str(tree)


@pytest.mark.parametrize("where", ["src/cocycle_forge", "bench"])
def test_ab_bench_refuses_a_compiled_checkout(tmp_path, capsys, where):
    # a checkout that holds compiled files skips the compile that a run
    # from source pays for, so its setup time would not compare
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for d in ("src/cocycle_forge", "bench", "tests/__pycache__"):
        (tmp_path / d).mkdir(parents=True)
    assert tool.checkout(str(tmp_path), str(tmp_path)) == str(tmp_path)
    (tmp_path / where / "__pycache__").mkdir()
    with pytest.raises(SystemExit) as exc:
        tool.checkout(str(tmp_path), str(tmp_path))
    assert exc.value.code == 2
    assert str(tmp_path / where / "__pycache__") in capsys.readouterr().err
