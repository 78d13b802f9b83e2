"""Record the reference outcome of every benchmark job.

    python3 perfbench/record.py

Run from the root of a checkout.  Writes perfbench/reference.json: for each
job key, the exit code and the digest of its canonical payload (and, for
verify-all, the failing criteria).  Re-record only when a change is meant to
alter a payload, and say so where the change is described.
"""

from __future__ import annotations

import json
import os

import workloads
from child import import_cli, run_jobs


def main() -> None:
    cli = import_cli(os.getcwd())
    jobs = {}
    for name in workloads.WORKLOADS:
        for got in run_jobs(cli, workloads.jobs(name, 0), {}):
            keep = ("exit", "digest", "failing")
            jobs[got["key"]] = {k: got[k] for k in keep if k in got}
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"jobs": dict(sorted(jobs.items()))}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
