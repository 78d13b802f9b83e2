"""The Groebner engine against independent paths.

sympy's GF(p) Groebner bases check the reduced basis, a full run checks the
degree-truncated engine, and a Macaulay-matrix rank checks the graded
dimensions without any Groebner basis at all.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkern import grmodel
from frobkern.cli import run
from frobkern.polyalg import (
    GroebnerBasis,
    GroebnerStats,
    IdealPresentation,
    PolyRing,
    VariableDescriptor,
    buchberger,
    graded_dimension,
)
from ring_helpers import from_terms

#: the benchmark's pinned exit codes and payload digests, by job
REFERENCE_JOBS = json.loads(
    (pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
)["jobs"]

#: the model ideals that ``model hilbert --degree 12`` runs in the benchmark
WORKLOAD_MODELS = {
    "A4": dict(family="A", rank=4, r=2, p=3),
    "B3": dict(family="B", rank=3, r=2, p=3),
    "A2-r4": dict(family="A", rank=2, r=4, p=3),
    "A3-stage3": dict(family="A", rank=3, stage=3, r=3, p=3),
}


def sbar(family, rank, r, p, stage=None):
    ctx = grmodel.model_context(family, rank, stage=stage, r=r, p=p)
    return grmodel.build_Sbar(ctx)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def minimal_monomials(monomials):
    monomials = set(monomials)
    return {
        m for m in monomials if not any(o != m and divides(o, m) for o in monomials)
    }


# -- the reduced basis against sympy -------------------------------------------


@st.composite
def even_ideals(draw):
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(2, 4))
    graded = draw(st.booleans())
    degrees = [draw(st.sampled_from([2, 4])) if graded else 0 for _ in range(n)]
    names = [f"x{i}" for i in range(n)]
    ring = PolyRing(
        p, [VariableDescriptor(x, "even", d) for x, d in zip(names, degrees)]
    )
    monomial = st.tuples(*[st.integers(0, 2)] * n)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        exps = draw(st.lists(monomial, min_size=1, max_size=3, unique=True))
        if graded:  # homogeneous: keep the terms of the first term's degree
            first = ring.monomial_degree(exps[0])
            exps = [e for e in exps if ring.monomial_degree(e) == first]
        coeffs = draw(
            st.lists(st.integers(1, p - 1), min_size=len(exps), max_size=len(exps))
        )
        relations.append(
            from_terms(ring, ((c, dict(zip(names, e))) for c, e in zip(coeffs, exps)))
        )
    return ring, relations


def monic_terms(terms, p):
    """Frozen {exps: coeff} scaled so the degrevlex-leading coefficient is 1."""
    lead = max(terms, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
    inv = pow(terms[lead], -1, p)
    return frozenset((e, c * inv % p) for e, c in terms.items() if c % p)


@settings(max_examples=60, deadline=None)
@given(even_ideals())
def test_reduced_basis_matches_sympy(ideal):
    ring, relations = ideal
    gens = sympy.symbols([v.name for v in ring.variables])
    exprs = [
        sum(c * sympy.Mul(*(g**k for g, k in zip(gens, e))) for e, c in f.terms.items())
        for f in relations
    ]
    theirs = sympy.groebner(exprs, *gens, order="grevlex", modulus=ring.p)
    their_basis = {
        monic_terms(dict(sympy.Poly(g, *gens, modulus=ring.p).terms()), ring.p)
        for g in theirs.exprs
        if g != 0
    }
    ours = buchberger(IdealPresentation(ring, relations)).basis
    assert {monic_terms(f.terms, ring.p) for f in ours} == their_basis
    assert len(ours) == len(their_basis)


# -- the degree-truncated engine against the full basis ---------------------------


def test_truncated_leads_match_full_basis():
    for name, model in WORKLOAD_MODELS.items():
        full = sbar(**model)
        ring = full.ring
        full_leads = [g.leading()[0] for g in full.ideal().groebner().basis]
        truncated = sbar(**model).ideal()
        deferred = 0
        for d in range(13):
            gb = buchberger(truncated, d)
            leads = [g.leading()[0] for g in gb.basis]
            assert all(ring.monomial_degree(e) <= d for e in leads), (name, d)
            want = {e for e in full_leads if ring.monomial_degree(e) <= d}
            assert minimal_monomials(leads) == want, (name, d)
            deferred = max(deferred, gb.stats.deferred)
        assert deferred > 0, name  # the cut really left pairs pending
        # the same state, run to completion, gives the full reduced basis
        assert truncated.groebner().basis == full.ideal().groebner().basis, name


# -- graded dimensions against a Macaulay matrix --------------------------------


def monomials_of_degree(ring, degree):
    """Every monomial (odd exponents 0/1) of the given cohomological degree."""
    ranges = [
        range(2) if v.parity == "odd" else range(degree // v.degree + 1)
        for v in ring.variables
    ]
    return [e for e in itertools.product(*ranges) if ring.monomial_degree(e) == degree]


def rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_graded_dimension_matches_macaulay_rank():
    model = sbar("A", 2, r=2, p=3)
    ring = model.ring
    for d in range(9):
        basis = monomials_of_degree(ring, d)
        column = {e: i for i, e in enumerate(basis)}
        rows = []
        for rel in model.relations:
            for m in monomials_of_degree(ring, d - rel.homogeneous_degree()):
                row = [0] * len(basis)
                for e, c in (_monomial(ring, m) * rel).terms.items():
                    row[column[e]] = c
                rows.append(row)
        assert model.graded_dimension(d) == len(basis) - rank_mod_p(rows, ring.p), d


def _monomial(ring, exps):
    return ring.monomial({v.name: k for v, k in zip(ring.variables, exps) if k})


# -- regression guard and counters ---------------------------------------------


def test_a3_r3_full_basis_size():
    # sympy's basis has the same size; this run used to take about 500 s
    assert len(sbar("A", 3, r=3, p=3).ideal().groebner().basis) == 133


def test_stats_count_the_work_and_stay_out_of_the_payload():
    gb = sbar("A", 4, r=2, p=3).ideal().groebner()
    s = gb.stats
    assert s.chain_skipped > 0
    assert s.pairs == s.product_skipped + s.chain_skipped + s.reductions
    assert s.zero_reductions < s.reductions
    assert s.deferred == 0 and s.basis_size == len(gb.basis) == 33
    other = GroebnerBasis(gb.ring, gb.basis, GroebnerStats())
    assert other == gb and hash(other) == hash(gb) and other.stats != gb.stats


@pytest.mark.parametrize(
    "key", [k for k in REFERENCE_JOBS if k.startswith("model hilbert")]
)
def test_model_hilbert_payload_matches_reference(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(key.split()) == 0
    payload = json.loads(out.getvalue())["payload"]
    assert set(payload) == {"context", "weight", "by_degree"}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_JOBS[key]["digest"]


def test_truncation_needs_a_graded_ideal():
    # degree-0 variables: the engine ignores the cut and runs to completion
    ring = PolyRing(3, [VariableDescriptor("x"), VariableDescriptor("y")])
    x, y = ring.var("x"), ring.var("y")
    gb = buchberger(IdealPresentation(ring, [x * y - 1, y * y - x]), 0)
    assert gb.stats.deferred == 0
    assert {g.leading()[0] for g in gb.basis} >= {(1, 1), (0, 2), (2, 0)}
    # a graded ideal counted below its first pair defers it
    graded = PolyRing(3, [VariableDescriptor(x, "even", 2) for x in ("u", "v")])
    u, v = graded.var("u"), graded.var("v")
    pres = IdealPresentation(graded, [u * u - v * v, u * v])
    assert graded_dimension(pres, 2) == 2
    assert buchberger(pres, 2).stats.deferred == 1
    assert [graded_dimension(pres, d) for d in (4, 6, 8)] == [1, 0, 0]
