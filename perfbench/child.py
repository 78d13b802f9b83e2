"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py <workload> <seed> <setup|plain|traced>

Run from the root of a checkout.  It imports ``frobkern`` from ``src/``,
builds the CLI parser and reports when that set-up was done; ``setup`` stops
there.  ``plain`` and ``traced`` then run every job of the workload through
``frobkern.cli.run(argv)`` with stdout captured, check each report against
the recorded reference, and print one JSON line with the timings, the
process's peak resident memory and, when traced, the per-layer metrics.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def kernel_seconds() -> float:
    """Time a fixed pure-Python kernel: dict/tuple products mod 3.

    It is the yardstick for the machine's current speed; it uses no frobkern
    code, so no change to the program moves it.  The collector is off, so a
    collection of the program's heap does not land in it.
    """
    import gc

    gc.disable()
    start = time.perf_counter()
    base = {(i, j, (i * j) % 5): (i + j) % 3 + 1 for i in range(12) for j in range(12)}
    head = list(base.items())[:80]
    out: dict = {}
    for e1, c1 in base.items():
        for e2, c2 in head:
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % 3
    seconds = time.perf_counter() - start
    gc.enable()
    return seconds


def run_jobs(cli, jobs, reference) -> list[dict]:
    """Run (key, argv) jobs in order; time, digest and check each one.

    The kernel runs before every job and after the last one, and each job
    records the mean kernel time around it as ``kernel_s``.
    """
    import contextlib
    import io

    import workloads

    out = []
    before = kernel_seconds()
    for key, argv in jobs:
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run(argv)
            except Exception as exc:  # a traceback is a failed job, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        text = stdout.getvalue()
        got = workloads.outcome(key, code, text)
        got["ok"] = workloads.matches(key, got, reference)
        after = kernel_seconds()
        got.update(
            key=key, seconds=end - start, bytes=len(text), kernel_s=(before + after) / 2
        )
        before = after
        out.append(got)
    return out


def import_cli(root: str):
    """frobkern.cli from the checkout's src/, or exit 2 if it is not there."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    try:
        from frobkern import cli
    except ImportError as exc:
        sys.exit(f"cannot import frobkern from {src}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"frobkern was imported from {cli.__file__}, not from {src}")
    return cli


def main(workload: str, seed: int, mode: str) -> None:
    root = os.getcwd()
    cli = import_cli(root)
    cli.build_parser()
    doc = {"t_start": T_START, "t_ready": time.monotonic()}
    if mode != "setup":
        import resource

        import workloads

        reference = workloads.load_reference()
        tracer = None
        if mode == "traced":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        jobs = run_jobs(cli, workloads.jobs(workload, seed), reference)
        if tracer is not None:
            tracer.uninstall()
            doc["layers"] = tracer.metrics()
            doc["spans"] = len(tracer.spans)
            out_dir = os.path.join(root, "perfbench-out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"spans-{workload}.csv"))
        doc.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            jobs=[
                {k: j[k] for k in ("key", "exit", "ok", "bytes", "seconds", "kernel_s")}
                for j in jobs
            ],
        )
    print(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
