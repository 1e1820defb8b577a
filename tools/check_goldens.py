"""Check that every benchmark job still prints its recorded output.

Run from the repository root:

    python tools/check_goldens.py

It runs every job that `bench/run.py --record` runs, on instance files
written to a temporary directory, and compares the SHA-256 of each output
with `bench/goldens.json`, which it only reads. It prints each job whose
digest differs and exits 1 on any difference.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402  (puts src/ on the path as well)
import workloads  # noqa: E402


def differing(jobs, goldens, directory):
    """The ids of the jobs whose output digest is not the recorded one."""
    out = []
    for job in jobs:
        run.prepare(job, directory)
        if run.digest(run.run_job(job)[1]) != goldens.get(job.id):
            out.append(job.id)
    return out


def main():
    jobs = [job for workload in workloads.WORKLOADS for job in workloads.all_jobs(workload)]
    with tempfile.TemporaryDirectory() as directory:
        bad = differing(jobs, run.load_goldens(), directory)
    for job_id in bad:
        print(f"differs: {job_id}")
    print(f"{len(jobs) - len(bad)}/{len(jobs)} bench outputs match bench/goldens.json")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
