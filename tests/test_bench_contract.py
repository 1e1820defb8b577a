"""The benchmark under bench/ against the package it measures.

bench/ imports library names and patches callables by name, so a rename in
src/ can break `bench/run.py --record` or leave a per-layer span reading 0
without any bench file failing to load. These tests load the benchmark
modules by file path and check that everything they name still exists,
apart from the stale names listed here, which the next change to the
benchmark drops.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import cocycle_forge
from cocycle_forge import cohomology

BENCH = Path(__file__).resolve().parent.parent / "bench"

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
