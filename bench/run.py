"""cocycle-forge benchmark: seeded CLI job mixes, end to end and per layer.

    python3 bench/run.py --workload ses-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One client runs the workload's job cycles in a closed loop in
this process: each job is one CLI command (``--output json --jobs 1``)
invoked in-process through the click entry point on instance files
written at set-up, or, for ``ring-arith``, a library ring computation.
Successive cycles visit every variant of each slot in a seeded order
(see ``workloads.py``). Each job's output must match its SHA-256 in
``bench/goldens.json``.

``--trace 0`` loops for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs the first cycle once to warm up, once untraced and once
traced (see ``tracing.py``) and reports per-layer times and counts, the tracing
overhead, and the ``aut0_enumerate`` jobs=2 pool probe.
``--record`` runs every job any seed can produce, cross-checks each
output against invariants, and rewrites ``goldens.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDENS = BENCH / "goldens.json"
SETUP_REPEATS = 3
TAIL_BEYOND = 10        # samples required beyond the reported tail percentile


if not (SRC / "cocycle_forge" / "__init__.py").is_file():
    sys.exit(f"bench: no cocycle_forge sources under {SRC}; run from a source checkout")
sys.path[:0] = [str(SRC), str(BENCH)]

from cocycle_forge import cli                                   # noqa: E402
from cocycle_forge.cohomology import aut0_enumerate             # noqa: E402
from cocycle_forge.instances import diamond_demo_instance, load_instance, save_instance  # noqa: E402
from cocycle_forge.ring import TwistedRing, element_from_json, element_to_json  # noqa: E402

import workloads                                                # noqa: E402

# ---------------------------------------------------------------------------
# set-up: generate, validate and write the seeded instance files


def prepare(job, directory):
    """Write the job's instance files and fix its argument list."""
    paths = []
    for n, inst in enumerate(job.instances):
        path = os.path.join(directory, f"{job.id.replace('/', '_')}_{n}.json")
        save_instance(path, inst)
        paths.append(path)
    job.extra["paths"] = paths
    job.extra["args"] = ["--output", "json", "--jobs", "1", job.slot.command, *paths]


def setup(workload, seed, directory):
    """The run's job cycles, ordered by the seed, with every file written."""
    cycles = workloads.cycles_for(workload, seed)
    for cycle in cycles:
        for job in cycle:
            prepare(job, directory)
    return cycles


def measure_setup(workload, seed):
    """Median wall time of fresh processes that import the package and set
    the run up, from process start to exit."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, __file__, "--setup-only", "--workload", workload,
                        "--seed", str(seed)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# jobs


def run_cli(args):
    """One CLI invocation in-process; (exit status, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            cli.main.main(args=args, prog_name="cocycle-forge", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def run_ring_arith(job):
    """Dense products and inverses through the library: r^-1, s^-1 and
    (rs)^-1, each a two-sided inverse, and (rs)^-1 = s^-1 r^-1."""
    inst = load_instance(job.extra["paths"][0])
    ring = TwistedRing(inst.cocycle)
    r, s = (element_from_json(ring, e) for e in job.extra["elements"])
    rs = r * s
    one = ring.one()
    units = (r, s, rs)
    inverses = [x.inverse() for x in units]
    ok = (all(x * y == one and y * x == one for x, y in zip(units, inverses))
          and inverses[2] == inverses[1] * inverses[0])
    out = json.dumps({"product": element_to_json(rs),
                      "inverses": [element_to_json(y) for y in inverses],
                      "unit_check": ok}, sort_keys=True)
    return (0 if ok else 1), out


def run_job(job):
    if job.slot.command == "ring-arith":
        return run_ring_arith(job)
    return run_cli(job.extra["args"])


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def execute(job, goldens, run=run_job):
    """Run one job; (latency seconds, output bytes, failure reason or None).
    An exception, a nonzero status or a digest mismatch is a failure.

    Untimed, the heap left by earlier jobs is collected and frozen first, so
    the job's garbage collections scan only its own objects, as in a fresh
    CLI process, and do not depend on what ran before it."""
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    try:
        code, out = run(job)
    except Exception as exc:  # a failing job is counted, never fatal
        return time.perf_counter() - start, 0, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if code != 0:
        return latency, len(out), f"exit status {code}"
    if digest(out) != goldens.get(job.id):
        return latency, len(out), "output differs from its golden digest"
    return latency, len(out), None


def load_goldens():
    with open(GOLDENS) as fh:
        return json.load(fh)["digests"]


def load_meta():
    with open(BENCH / "metrics.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# end-to-end run


def tail(latencies):
    """(percentile, value): p90, or lower when fewer than TAIL_BEYOND
    samples would lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, min(math.ceil(0.9 * n), n - TAIL_BEYOND))
    return 100.0 * rank / n, ordered[rank - 1]


def end_to_end(args, cycles, goldens):
    """Whole job cycles in a closed loop until ``--seconds`` have passed, so
    every metric is taken at the workload's stated mix. One untimed job of
    each command first takes first-call costs out of the timing."""
    setup_s = measure_setup(args.workload, args.seed)
    failures = []
    warm_up = list({job.slot.command: job for job in cycles[0]}.values())
    for job in warm_up:
        failure = execute(job, goldens)[2]
        if failure:
            failures.append((job.id, failure))
    latencies = []
    n_cycles = 0
    start = time.perf_counter()
    while not latencies or time.perf_counter() - start < args.seconds:
        for job in cycles[n_cycles % len(cycles)]:
            latency, _, failure = execute(job, goldens)
            latencies.append(latency)
            if failure:
                failures.append((job.id, failure))
        n_cycles += 1
    elapsed = time.perf_counter() - start
    n = len(latencies)
    pct, p_tail = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (n / elapsed, "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (p_tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  {n} jobs ({n_cycles} cycles "
          f"of {n // n_cycles}) in {elapsed:.2f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:12.6f} {unit}")
    attempted = n + len(warm_up)
    print(f"  {'failed_frac':<14} {len(failures) / attempted:12.6f} (failed / attempted)")
    print(f"  job_p90_s is the p{pct:.1f} latency of {n} samples")
    for job_id, failure in failures[:10]:
        print(f"  FAILED {job_id}: {failure}")
    return attempted, len(failures), metrics


# ---------------------------------------------------------------------------
# traced run


def one_pass(jobs, goldens, tracer=None):
    """Every job of the cycle once; (wall seconds, failures, output bytes).
    With a tracer, each job runs inside a top-level span of its own."""
    def traced_run(job):
        tracer.job = job.id
        rec = tracer.open("cli.command" if job.slot.command != "ring-arith"
                          else "ring.arith_job")
        try:
            return run_job(job)
        finally:
            tracer.close(rec)

    failures, out_bytes = [], 0
    start = time.perf_counter()
    for job in jobs:
        _, size, failure = execute(job, goldens, run_job if tracer is None else traced_run)
        out_bytes += size
        if failure:
            failures.append((job.id, failure))
    return time.perf_counter() - start, failures, out_bytes


def pool_probe(seed):
    """aut0_enumerate with jobs=1 against jobs=2 (2 worker processes) on the
    ses-small instances of this seed with the largest Aut0 spaces, plus the
    GF(4) diamond demo instance; returns the jobs=1 / jobs=2 time ratio."""
    candidates = [inst.cocycle for job in workloads.cycles_for("ses-small", seed)[0]
                  for inst in job.instances]
    candidates.sort(key=workloads.aut0_space, reverse=True)
    probe = [diamond_demo_instance().cocycle] + candidates[:3]
    serial = parallel = 0.0
    for c in probe:
        start = time.perf_counter()
        one = aut0_enumerate(c, jobs=1)
        serial += time.perf_counter() - start
        start = time.perf_counter()
        two = aut0_enumerate(c, jobs=2)
        parallel += time.perf_counter() - start
        if [t.key() for t in one] != [t.key() for t in two]:
            raise AssertionError("aut0_enumerate jobs=2 disagrees with jobs=1")
    return serial / parallel


def layer_metric(name, tracer, extra):
    """The value of one per-layer metric, by the suffix of its name:
    ``.s`` / ``.self_s`` from span totals, ``.found_frac`` / ``.kept_frac``
    as ratios of counters to their bases, anything else a counter."""
    if name in extra:
        return extra[name]
    prefix, _, field = name.rpartition(".")
    if field in ("s", "self_s"):
        total, self_s = tracer.totals().get(prefix, (0.0, 0.0))
        return total if field == "s" else self_s
    counts = tracer.counts
    if field == "found_frac":
        calls = counts[prefix + ".calls"]
        return counts[prefix + ".found"] / calls if calls else 0.0
    if field == "kept_frac":
        base = counts[prefix + ".base"]
        return counts[prefix + ".kept"] / base if base else 0.0
    return counts[name]


def traced(args, cycles, goldens):
    """A warm-up pass, an untraced and a traced pass over the first cycle,
    then the pool probe. The warm-up keeps first-call costs out of the
    overhead."""
    from tracing import Tracer

    jobs = cycles[0]
    _, failures, _ = one_pass(jobs, goldens)
    base_s, base_failures, _ = one_pass(jobs, goldens)
    failures += base_failures
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced_failures, out_bytes = one_pass(jobs, goldens, tracer)
    finally:
        tracer.uninstall()
    failures += traced_failures
    extra = {
        "cohomology.aut0_enumerate.pool2_speedup": pool_probe(args.seed),
        "cli.output_bytes": out_bytes,
        "trace.untraced_s": base_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - base_s,
        "trace.overhead_frac": (traced_s - base_s) / base_s,
    }
    metrics = {m["name"]: (layer_metric(m["name"], tracer, extra), m["unit"])
               for m in load_meta()["per_layer"]}

    spans_path = _out_dir() / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                              "jobs": [job_record(job) for job in jobs]})
    by_self = sorted(((v[1], k) for k, v in tracer.totals().items()), reverse=True)
    print(f"workload {args.workload}  seed {args.seed}  traced pass of {len(jobs)} jobs; "
          f"spans in {spans_path.relative_to(ROOT)}")
    print("  largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in by_self[:5]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.6f} {unit}")
    for job_id, failure in failures[:10]:
        print(f"  FAILED {job_id}: {failure}")
    return 3 * len(jobs), len(failures), metrics


def job_record(job):
    """The job's identity and the search-space bases of its first instance."""
    record = {"id": job.id, "command": job.slot.command, "shape": job.slot.shape,
              "domain": job.slot.domain, "kind": job.slot.kind}
    if job.instances and job.instances[0].domain.kind == "finite_field":
        c = job.instances[0].cocycle
        q, k, n_e = c.domain.order, c.domain.k, len(c.sg.idempotents)
        record.update(aut0_space=workloads.aut0_space(c), torus=(q - 1) ** n_e,
                      mu_space=k ** n_e)
    return record


# ---------------------------------------------------------------------------
# goldens


def record_goldens():
    """Run every job any seed can produce, check invariants, write digests."""
    from check import check_output

    digests, problems = {}, []
    with tempfile.TemporaryDirectory(dir=_out_dir()) as directory:
        for workload in workloads.WORKLOADS:
            start = time.perf_counter()
            for job in workloads.all_jobs(workload):
                prepare(job, directory)
                code, out = run_job(job)
                problem = check_output(job, code, out)
                if problem:
                    problems.append(f"{job.id}: {problem}")
                digests[job.id] = digest(out)
            print(f"{workload}: recorded in {time.perf_counter() - start:.1f} s")
    for problem in problems:
        print(f"INVARIANT FAILED {problem}")
    if problems:
        return 1
    with open(GOLDENS, "w") as fh:
        json.dump({"variants": workloads.VARIANTS, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDENS.relative_to(ROOT)}")
    return 0


# ---------------------------------------------------------------------------


def _out_dir():
    OUT.mkdir(exist_ok=True)
    return OUT


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite goldens.json from every possible job")
    args = parser.parse_args(argv)
    if args.record:
        return record_goldens()
    if args.workload is None:
        parser.error("--workload is required")

    with tempfile.TemporaryDirectory(dir=_out_dir()) as directory:
        cycles = setup(args.workload, args.seed, directory)
        if args.setup_only:
            return 0
        goldens = load_goldens()
        if args.trace:
            attempted, failed, metrics = traced(args, cycles, goldens)
        else:
            attempted, failed, metrics = end_to_end(args, cycles, goldens)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
