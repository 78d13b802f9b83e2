"""Checks of the recorded references against independent paths.

    python3 -m pytest perfbench

Run from the root of a checkout (about a minute).  Each test runs the
benchmark jobs it needs in-process, requires their outcome to equal the
recorded one, and then checks the payload a second way: Groebner bases
against sympy, a Hilbert row against the Sbar = Q (x) top splitting, U3
counts against the closed form, and conjecture residuals against zero.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

import child
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
cli = child.import_cli(ROOT)

from frobkern import commvar, grmodel, polyalg, verify  # noqa: E402

REFERENCE = workloads.load_reference()
GROEBNER = [(key, key.split()) for key in workloads.WORKLOADS["groebner"]]


def run_job(key: str) -> dict:
    """Run one job, require the recorded outcome, return its payload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(key.format(seed=0).split())
    got = workloads.outcome(key, code, out.getvalue())
    assert workloads.matches(key, got, REFERENCE), f"{key}: {got}"
    return json.loads(out.getvalue())["payload"]


def _context(argv: list[str]) -> grmodel.ModelContext:
    opts = dict(zip(argv[2::2], argv[3::2]))
    return grmodel.model_context(
        opts["--family"],
        int(opts["--rank"]),
        stage=int(opts["--v"]) if "--v" in opts else None,
        r=int(opts["--r"]),
        p=int(opts["--p"]),
    )


def test_reference_covers_every_job():
    keys = {key for jobs in workloads.WORKLOADS.values() for key in jobs}
    assert keys == set(REFERENCE)
    others = [want for key, want in REFERENCE.items() if not key.startswith("verify")]
    assert all(want["exit"] == 0 for want in others)
    assert set(REFERENCE["verify-all --seed {seed}"]["failing"]) == workloads.KNOWN_FAILING


@pytest.mark.parametrize(
    "key, argv", GROEBNER, ids=["A4", "B3", "A2-r4", "A3-stage3"]
)
def test_groebner_basis_matches_sympy(key, argv):
    sympy = pytest.importorskip("sympy")
    run_job(key)
    sbar = grmodel.build_Sbar(_context(argv))
    ring = sbar.ring
    ours = sbar.ideal().groebner().basis
    gens = sympy.symbols([v.name for v in ring.variables])

    def to_sympy(f):
        return sum(
            c * sympy.Mul(*(g**e for g, e in zip(gens, exps) if e))
            for exps, c in f.terms.items()
        )

    relations = [to_sympy(f) for f in sbar.ideal().relations]
    theirs = sympy.groebner(relations, *gens, order="grevlex", modulus=ring.p)
    their_leads = {
        sympy.Poly(g, *gens, modulus=ring.p).monoms(order="grevlex")[0]
        for g in theirs.exprs
    }
    assert len(ours) == len(theirs.exprs)
    assert {f.leading()[0] for f in ours} == their_leads


def test_hilbert_row_matches_splitting_convolution():
    key = "model hilbert --family A --rank 3 --v 3 --r 3 --p 3 --degree 12"
    row = run_job(key)["by_degree"]
    ctx = _context(key.split())
    q_model = grmodel.build_Q(ctx)
    top = grmodel.top_free_factor(ctx)
    for d in range(13):
        convolved = sum(
            q_model.graded_dimension(a) * polyalg.graded_dimension(top, d - a)
            for a in range(d + 1)
        )
        assert row[str(d)] == convolved, d


@pytest.mark.parametrize("r, q", [(3, 5), (2, 9), (2, 27)])
def test_u3_counts_match_closed_form(r, q):
    payload = run_job(f"variety count --group U3 --r {r} --q {q}")
    assert payload["count"] == commvar.u3_y_closed_form(q, r) * q**r


@pytest.mark.parametrize(
    "key",
    [k for k in REFERENCE if k.startswith(("conjecture", "variety components"))],
)
def test_conjecture_residuals_vanish(key):
    payload = run_job(key)
    if "counts" in payload:
        residuals = [per_q["residual"] for per_q in payload["counts"].values()]
    else:
        report = payload.get("evidence") or payload["report"]
        residuals = list(report["residuals"].values())
    assert residuals and all(v == 0 for v in residuals)


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    tracer.spans.extend(
        [
            ["polyalg.buchberger", -1, 0.0, 10.0, 5],
            ["polyalg.normal_form", 0, 1.0, 4.0, 1],
            ["polyalg.normal_form", 0, 5.0, 6.0, 0],
            ["polyalg.Poly.mul", 1, 2.0, 3.0, None],
        ]
    )
    m = tracer.metrics()
    assert m["polyalg.buchberger.self_s"] == 6.0
    assert m["polyalg.normal_form.self_s"] == 3.0
    assert m["polyalg.normal_form.calls"] == 2
    assert m["polyalg.buchberger.zero_reductions_frac"] == 0.5
    assert m["polyalg.self_s"] == 10.0


def test_tracer_uninstall_restores_the_program():
    def seen():
        return (
            polyalg.buchberger,
            commvar.count_points,
            polyalg.Poly.__mul__,
            verify.ALL_CRITERIA,
        )

    before = seen()
    tracer = spans.Tracer()
    tracer.install()
    assert commvar.count_points is polyalg.count_points is not before[1]
    assert verify.ALL_CRITERIA[9] is verify.criterion_9_stabilisation
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, seen()))
