"""The benchmark's workloads, and how a job's output is checked.

A job is one ``frobkern`` command line.  Its key is the command as written
below; ``{seed}`` stands for a probe seed drawn from the workload seed.  The
seed also shuffles job order.  The instance list is fixed, so every seed
asks for the same work.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

_A2 = "--family A --rank 2 --v 3 --r 2 --p 3"

WORKLOADS: dict[str, tuple[str, ...]] = {
    # Buchberger, normal_form and graded_dimension do almost all the work.
    "groebner": (
        "model hilbert --family A --rank 4 --r 2 --p 3 --degree 12",
        "model hilbert --family B --rank 3 --r 2 --p 3 --degree 12",
        "model hilbert --family A --rank 2 --r 4 --p 3 --degree 12",
        "model hilbert --family A --rank 3 --v 3 --r 3 --p 3 --degree 12",
    ),
    # count_points, GF and commvar's inclusion-exclusion do almost all the work.
    "counting": (
        "conjecture subdiagrams --N 6 --r 2 --count --q 3",
        "conjecture subdiagrams --N 5 --r 2 --count --q 5",
        "variety count --group U6 --r 2 --q 5",
        "variety count --group U4 --r 3 --q 5",
        "variety count --group U3 --r 3 --q 5",
        "variety count --group U3 --r 2 --q 9",
        "variety count --group U3 --r 2 --q 27",
        "variety components --N 4 --r 3 --q 3,5",
    ),
    # Short interactive jobs covering every subcommand.
    "workbench": (
        "rootsys info --family A --rank 5 --J a2,a3",
        "rootsys info --family D --rank 5",
        "model build --family A --rank 3 --r 2 --p 3 --what sstar",
        "model build --family A --rank 3 --r 2 --p 3 --what sbar",
        "model build --family A --rank 3 --r 2 --p 3 --what q",
        "model build --family A --rank 2 --r 2 --p 3 --what coord",
        "model hilbert --family A --rank 2 --r 2 --p 3 --degree 8",
        "model theta-check --family A --rank 2 --r 3 --p 3",
        "model bracket-check --family A --rank 3 --v 3 --r 2 --p 3 --pairs 300 --seed {seed}",
        f"specseq d2 {_A2} --beta a1+a2 --l 0",
        f"specseq transgression {_A2} --beta 1,1 --l 0 --j 0",
        f"specseq steenrod {_A2} --beta a1+a2 --l 0 --op P9",
        f"specseq steenrod {_A2} --beta a1+a2 --l 0 --op bP0",
        f"specseq aj-enumerate {_A2} --degree 12 --weight 27,27",
        "specseq uniqueness --family A --rank 2 --v 3 --r 3 --p 3 --beta a1+a2",
        "specseq uniqueness --family A --rank 3 --v 3 --r 2 --p 5 --beta a1+a2",
        "conjecture subdiagrams --N 4 --r 2 --count --q 3",
        "variety components --N 4 --r 2 --q 3",
        "variety count --group U3 --r 2 --q 3",
        "verify-all --seed {seed}",
    ),
}

#: payload fields that hold measured times rather than results
TIMING_FIELDS = frozenset({"elapsed_s", "seconds", "seconds_total"})
#: verify-all criteria that fail by design at every commit
KNOWN_FAILING = frozenset({"7b", "10b"})


def jobs(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(key, argv) for every job of the workload, in seed-shuffled order."""
    rng = random.Random(seed)
    out = [
        (key, key.format(seed=rng.randrange(1 << 30)).split())
        for key in WORKLOADS[workload]
    ]
    rng.shuffle(out)
    return out


def _strip_timing(value):
    if isinstance(value, dict):
        return {
            k: _strip_timing(v) for k, v in value.items() if k not in TIMING_FIELDS
        }
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def outcome(key: str, code, stdout: str) -> dict:
    """Exit code and canonical digest of one job's report.

    The digest covers the payload (or, for an error report, the error), so
    wall time, budget counters and the config echo do not enter it.
    """
    try:
        report = json.loads(stdout)
    except ValueError:
        return {"exit": code, "digest": None}
    body = report.get("payload", report.get("error"))
    if key.startswith("verify-all") and isinstance(body, dict):
        body = _strip_timing(body)
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    out = {"exit": code, "digest": hashlib.sha256(text.encode()).hexdigest()}
    if key.startswith("verify-all") and isinstance(body, dict):
        out["failing"] = sorted(
            c["key"] for c in body.get("criteria", ()) if not c.get("passed")
        )
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["jobs"]


def matches(key: str, got: dict, reference: dict) -> bool:
    """True when a job's outcome is the recorded one.

    A budget (exit 3) or configuration (exit 2) error never matches, and
    verify-all may exit 1 only with exactly the known failing criteria.
    """
    want = reference.get(key)
    if want is None or got["exit"] in (2, 3) or got["exit"] != want["exit"]:
        return False
    if got["exit"] == 1 and set(got.get("failing", ())) != KNOWN_FAILING:
        return False
    return got["digest"] == want["digest"]
