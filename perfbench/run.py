"""frobkern benchmark: fixed CLI workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload groebner --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every repetition of a workload is one
fresh interpreter (perfbench/child.py), started one at a time.  A run first
starts a few interpreters that only set up, then repeats the workload until
another repetition would overrun ``--seconds`` (at least one repetition).
``--trace 1`` runs one untraced repetition and then traced ones.

Every job's report is checked against perfbench/reference.json.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  The lines before it print the same metrics with their units,
``failed_frac``, ``src_lines`` and each job's median time.  The exit code is
1 when any job's output differs from the reference, and 2 when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

import spans
import workloads

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUP_ONLY_RUNS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
#: kernel time (perfbench/child.py) taken as the reference machine speed
REFERENCE_KERNEL_S = 0.010

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **spans.UNITS,
    "cli.report_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "src_lines": "lines",
}


def src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def child_env() -> dict:
    """The caller's environment without budget overrides or foreign paths."""
    env = {
        k: v for k, v in os.environ.items() if k not in ("FROBKERN_BUDGET", "PYTHONPATH")
    }
    env["PYTHONHASHSEED"] = "0"  # same set iteration order, same work, every run
    return env


def start_child(root, workload, seed, mode, deadline) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, CHILD, workload, str(seed), mode],
        cwd=root,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - start),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} repetition failed:\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["t_ready"] - start
    doc["elapsed_s"] = time.monotonic() - start
    return doc


def normalised(seconds: float, kernel_s: float) -> float:
    """Seconds rescaled to a machine on which the kernel takes REFERENCE_KERNEL_S.

    When this host is busy, job times grow about as the square root of the
    kernel time (see README.md), hence the exponent.
    """
    return seconds * (REFERENCE_KERNEL_S / kernel_s) ** 0.5


def rep_wall(doc: dict) -> float:
    """Normalised wall time of one repetition: its jobs, without the kernel runs."""
    return sum(normalised(j["seconds"], j["kernel_s"]) for j in doc["jobs"])


def bench(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [
        start_child(root, workload, seed, "setup", deadline)["setup_s"]
        for _ in range(SETUP_ONLY_RUNS)
    ]
    reps = {"plain": [], "traced": []}
    while True:
        mode = "traced" if trace and reps["plain"] else "plain"
        doc = start_child(root, workload, seed, mode, deadline)
        reps[mode].append(doc)
        setups.append(doc["setup_s"])
        if trace and not reps["traced"]:
            continue
        next_s = statistics.median(d["elapsed_s"] for d in reps[mode])
        if time.monotonic() - start + next_s > seconds:
            break

    plain, traced = reps["plain"], reps["traced"]
    done = [job for doc in plain + traced for job in doc["jobs"]]
    failed = sum(not job["ok"] for job in done)
    run_kernel_s = statistics.median(job["kernel_s"] for job in done)
    wall = statistics.median(rep_wall(d) for d in plain)
    if trace:
        metrics = {
            name: statistics.median(d["layers"][name] for d in traced)
            for name in spans.UNITS
        }
        traced_wall = statistics.median(rep_wall(d) for d in traced)
        metrics.update(
            {
                "cli.report_bytes": sum(j["bytes"] for j in traced[0]["jobs"]),
                "trace.wall_s": traced_wall,
                "trace.overhead_s": traced_wall - wall,
                "trace.spans": traced[0]["spans"],
                "src_lines": src_lines(root),
            }
        )
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": normalised(statistics.median(setups), run_kernel_s),
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in plain),
        }
        units = END_TO_END
    return {
        "jobs": done,
        "reps": (len(plain), len(traced)),
        "raw": {
            "wall_s": statistics.median(
                sum(j["seconds"] for j in d["jobs"]) for d in plain
            ),
            "setup_s": statistics.median(setups),
            "kernel_s": run_kernel_s,
        },
        "result": {
            "correct": failed == 0,
            "attempted": len(done),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    }


def report(root: str, workload: str, seed: int, out: dict) -> None:
    result = out["result"]
    plain, traced = out["reps"]
    print(f"# {workload}, seed {seed}: {plain} untraced + {traced} traced repetitions")

    def line(name, value, unit):
        print(f"{workload:10} {name:44} {value:>16.6g} {unit}")

    for name, m in result["metrics"].items():
        line(name, m["value"], m["unit"])
    failed, attempted = result["failed"], result["attempted"]
    line("failed_frac", failed / attempted, f"fraction ({failed}/{attempted} jobs)")
    for name, value in out["raw"].items():
        line(f"measured.{name}", value, "s (not normalised)")
    if "src_lines" not in result["metrics"]:
        line("src_lines", src_lines(root), "lines")
    by_key: dict[str, list[float]] = {}
    for job in out["jobs"]:
        by_key.setdefault(job["key"], []).append(job["seconds"])
        if not job["ok"]:
            print(f"{workload:10} MISMATCH exit={job['exit']!r} {job['key']}")
    for key, times in by_key.items():
        print(f"{workload:10} job {statistics.median(times):10.4f} s  {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "frobkern", "cli.py")):
        print(f"no frobkern source under {root}/src; run from a checkout", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        out = bench(root, name, args.seed, args.seconds, bool(args.trace))
        report(root, name, args.seed, out)
        print(json.dumps(out["result"]), flush=True)
        status = status or (0 if out["result"]["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
