"""Hilbert series of the leading ideal against standard-monomial enumeration.

The reference below lists, degree by degree, every even monomial that no
leading term divides and convolves those counts with the exterior wedges of
the odd variables.  It shares only the truncated Groebner basis with
``hilbert_series``: neither the numerator nor the series expansion.  The
numerator itself, by Bigatti's pivot, is checked against the colon
recursion on monomial ideals, and the expansion, one factor per class of
variables, against one factor per variable.
"""

import itertools
from collections import Counter
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkern import grmodel
from frobkern.errors import BudgetError
from frobkern.polyalg import (
    IdealPresentation,
    PolyRing,
    VariableDescriptor,
    _mask,
    _minimal,
    _numerator,
    buchberger,
    hilbert_series,
)
from ring_helpers import from_terms


def standard_monomials(ring, degree, leads):
    """Even monomials of cohomological degree ``degree`` that no lead divides.

    ``leads`` holds (index, exponent) supports.  Variables get their exponents
    in order, and a lead is tested once its last variable has one: a branch it
    divides is cut there, since every completion stays divisible.
    """
    even = [i for i in range(ring.nvars) if i not in ring._odd]
    if any(not s for s in leads):  # the unit ideal
        return
    closing = {i: [] for i in even}
    for s in leads:
        closing[s[-1][0]].append(s)
    e = [0] * ring.nvars

    def rec(pos, remaining):
        if remaining == 0:
            yield tuple(e)
            return
        if pos == len(even):
            return
        i = even[pos]
        d = ring._degrees[i]
        for k in range(remaining // d + 1):
            e[i] = k
            if k and any(all(e[a] >= b for a, b in s) for s in closing[i]):
                break
            yield from rec(pos + 1, remaining - k * d)
        e[i] = 0

    yield from rec(0, degree)


def enumerated_dimensions(presentation, degree):
    """{T-weight: dimension} of each degree 0..``degree``, by enumeration."""
    ring = presentation.ring
    leads = [
        tuple((i, k) for i, k in enumerate(g.leading()[0]) if k)
        for g in buchberger(presentation, degree).basis
    ]
    even_parts = [
        Counter(map(ring.monomial_weight, standard_monomials(ring, d, leads)))
        for d in range(degree + 1)
    ]
    out = [Counter() for _ in range(degree + 1)]
    for size in range(len(ring._odd) + 1):
        for subset in itertools.combinations(ring._odd, size):
            wedge = [int(i in subset) for i in range(ring.nvars)]
            shift = ring.monomial_degree(wedge)
            wedge_weight = ring.monomial_weight(wedge)
            for d in range(shift, degree + 1):
                for w, n in even_parts[d - shift].items():
                    out[d][tuple(a + b for a, b in zip(w, wedge_weight))] += n
    return out


def sbar(family, rank, r, p, stage=None):
    ctx = grmodel.model_context(family, rank, stage=stage, r=r, p=p)
    return grmodel.build_Sbar(ctx)


# -- random rings ------------------------------------------------------------------


@st.composite
def graded_ideals(draw):
    """Even and odd variables of several degrees and weights, with monomial
    and binomial relations homogeneous in degree and T-weight."""
    n_even = draw(st.integers(2, 4))
    n_odd = draw(st.integers(0, 2))
    # few distinct weights, so that binomials of one degree and weight exist
    weight = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1)])
    variables = [
        VariableDescriptor(f"x{i}", "even", draw(st.sampled_from([2, 4, 6])), draw(weight))
        for i in range(n_even)
    ] + [
        VariableDescriptor(f"y{i}", "odd", draw(st.sampled_from([1, 3])), draw(weight))
        for i in range(n_odd)
    ]
    ring = PolyRing(draw(st.sampled_from([3, 5])), variables)
    names = [v.name for v in variables[:n_even]]
    exps = [e for e in itertools.product(range(4), repeat=n_even) if any(e)]
    grade = {}
    for e in exps:
        full = e + (0,) * n_odd
        grade.setdefault((ring.monomial_degree(full), ring.monomial_weight(full)), []).append(e)
    classes = [members for members in grade.values() if len(members) > 1]
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        if classes and draw(st.integers(0, 2)):
            a, b = draw(st.lists(st.sampled_from(draw(st.sampled_from(classes))),
                                 min_size=2, max_size=2, unique=True))
            c = draw(st.integers(1, ring.p - 1))
            terms = [(1, a), (c, b)]
        else:
            terms = [(1, draw(st.sampled_from(exps)))]
        relations.append(from_terms(ring, ((c, dict(zip(names, e))) for c, e in terms)))
    target = draw(st.sampled_from(exps)) + (0,) * n_odd
    return IdealPresentation(ring, relations), ring.monomial_weight(target)


@settings(max_examples=80, deadline=None)
@given(graded_ideals())
def test_series_matches_enumeration_on_random_rings(case):
    presentation, weight = case
    reference = enumerated_dimensions(presentation, 14)
    assert hilbert_series(presentation, 14) == [sum(c.values()) for c in reference]
    assert hilbert_series(presentation, 14, weight) == [c[weight] for c in reference]


# -- model ideals ----------------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        dict(family="A", rank=4, r=2, p=3),
        dict(family="B", rank=3, r=2, p=3),
        dict(family="A", rank=2, r=4, p=3),
        dict(family="A", rank=3, stage=3, r=3, p=3),
    ],
    ids=["A4", "B3", "A2-r4", "A3-stage3"],
)
def test_series_matches_enumeration_on_workload_models(model):
    pres = sbar(**model).ideal()
    reference = enumerated_dimensions(pres, 12)
    assert hilbert_series(pres, 12) == [sum(c.values()) for c in reference]


def test_every_weight_of_sbar_a2_matches_enumeration():
    pres = sbar("A", 2, r=2, p=3).ideal()
    reference = enumerated_dimensions(pres, 12)
    weights = set().union(*reference)
    assert len(weights) > 100
    for w in sorted(weights):
        assert hilbert_series(pres, 12, w) == [c[w] for c in reference], w


@pytest.mark.parametrize(
    "rank, degree, dimension",
    [(4, 20, 1_478_447), (5, 16, 2_566_160)],
    ids=["A4-d20", "A5-d16"],
)
def test_frozen_dimensions_beyond_enumeration(rank, degree, dimension):
    # enumeration agreed with both values, listing every standard monomial
    assert hilbert_series(sbar("A", rank, r=2, p=3).ideal(), degree)[degree] == dimension


def test_a_negative_weight_keeps_every_class():
    # x y has weight 0 although x alone lies above it: nothing may be dropped
    ring = PolyRing(3, [VariableDescriptor("x", "even", 2, (1,)),
                        VariableDescriptor("y", "even", 2, (-1,))])
    assert hilbert_series(IdealPresentation(ring, []), 4, (0,)) == [1, 0, 0, 0, 1]


def test_over_bound_degree_is_refused_before_any_work():
    pres = sbar("A", 2, r=2, p=3).ideal()
    with pytest.raises(BudgetError, match="degree 30 exceeds"):
        hilbert_series(pres, 30)
    assert pres._engine is None
    assert hilbert_series(pres, -1) == []


# -- the numerator against the colon recursion -----------------------------------


def colon_numerator(leads, left, grade):
    """Numerator of the Hilbert series of ring/(leads) through degree ``left``,
    by the colon recursion N(I' + (m)) = N(I') - grade(m) N(I' : m) on the
    lead m of largest degree: an independent path to ``_numerator``."""
    minimal = []
    for e in sorted((e for e in leads if grade(e)[0] <= left), key=grade):
        if not any(all(a <= b for a, b in zip(f, e)) for f in minimal):
            minimal.append(e)
    if not minimal:
        return Counter({grade(()): 1})
    m = minimal.pop()
    out = colon_numerator(minimal, left, grade)
    colon = [tuple(a - b if a > b else 0 for a, b in zip(e, m)) for e in minimal]
    gm = grade(m)
    for g, c in colon_numerator(colon, left - gm[0], grade).items():
        out[tuple(map(add, g, gm))] -= c
    return out


def pivot_numerator(ring, leads, left, weighted):
    """``_numerator`` on ``leads`` with the grade ``hilbert_series`` uses,
    and that grade."""

    def grade(e):
        return (ring.monomial_degree(e), *(ring.monomial_weight(e) if weighted else ()))

    triples = [(ring.monomial_degree(e), _mask(ring, e), e) for e in leads]
    return _numerator(_minimal(triples, left), left, grade), grade


@st.composite
def monomial_ideals(draw):
    """(ring, leads): monomials on up to five even variables of degrees 2,
    4 and 6 and weights of either sign; the leads are random, random with
    pure powers among them, or pairwise coprime."""
    n = draw(st.integers(1, 5))
    weight = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (0, -1)])
    ring = PolyRing(3, [
        VariableDescriptor(f"x{i}", "even", draw(st.sampled_from([2, 4, 6])), draw(weight))
        for i in range(n)
    ])
    monomial = st.tuples(*[st.integers(0, 4)] * n)
    kind = draw(st.sampled_from(["random", "pure powers", "coprime"]))
    if kind == "coprime":
        owner = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        exps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        leads = [
            tuple(k if owner[i] == lead else 0 for i, k in enumerate(exps))
            for lead in set(owner)
        ]
        return ring, leads
    leads = draw(st.lists(monomial, max_size=8))
    if kind == "pure powers":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)):
            leads.append(tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(n)))
    return ring, leads


def nonzero(counter):
    return {g: c for g, c in counter.items() if c}


@settings(max_examples=150, deadline=None)
@given(monomial_ideals(), st.booleans())
def test_pivot_numerator_matches_the_colon_recursion(case, weighted):
    ring, leads = case
    for left in (0, 4, 9, 16, 40):
        pivot, grade = pivot_numerator(ring, leads, left, weighted)
        assert all(g[0] <= left for g in pivot)
        assert nonzero(pivot) == nonzero(colon_numerator(leads, left, grade)), left


@pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
def test_pivot_numerator_on_the_leads_of_sbar_a4(weighted):
    pres = sbar("A", 4, r=2, p=3).ideal()
    leads = [g.leading()[0] for g in buchberger(pres, 20).basis]
    pivot, grade = pivot_numerator(pres.ring, leads, 20, weighted)
    assert nonzero(pivot) == nonzero(colon_numerator(leads, 20, grade))


# -- the series by class against the expansion per variable ----------------------


def per_variable_series(ring, numerator, degree, weight):
    """The series through ``degree`` from its numerator, one variable at a
    time and no class dropped: an even variable divides by 1 - t^d s^w in a
    pass upwards, which reads the terms it has just made, and an odd one
    multiplies by 1 + t^d s^w in a pass downwards, which reads only old ones."""
    weighted = weight is not None
    by_degree = [Counter() for _ in range(degree + 1)]
    for g, c in numerator.items():
        by_degree[g[0]][g[1:]] += c
    for i in range(ring.nvars):
        d = ring._degrees[i]
        w = ring._weights[i] if weighted else ()
        odd = i in ring._odd
        for k in range(degree, d - 1, -1) if odd else range(d, degree + 1):
            for wt, c in list(by_degree[k - d].items()):
                by_degree[k][tuple(map(add, wt, w))] += c
    return [terms[tuple(weight) if weighted else ()] for terms in by_degree]


#: (degree, weight) choices, few enough that variables share a class
SIGNED = [(1, 0), (0, -1), (-1, 2), (1, 1)]
NON_NEGATIVE = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]


@st.composite
def monomial_presentations(draw):
    """(presentation, weights, leads): up to four even variables of degree 2,
    4 or 6 and up to three odd ones of degree 1, 3 or 5, their weights all
    non-negative or of both signs, and a monomial ideal in the even ones."""
    weights = draw(st.sampled_from([SIGNED, NON_NEGATIVE]))
    variables = [
        VariableDescriptor(f"x{i}", "even", draw(st.sampled_from([2, 4, 6])),
                           draw(st.sampled_from(weights)))
        for i in range(draw(st.integers(1, 4)))
    ]
    n_even = len(variables)
    variables += [
        VariableDescriptor(f"y{i}", "odd", draw(st.sampled_from([1, 3, 5])),
                           draw(st.sampled_from(weights)))
        for i in range(draw(st.integers(0, 3)))
    ]
    ring = PolyRing(3, variables)
    monomial = st.tuples(*[st.integers(0, 3)] * n_even).filter(any)
    leads = [e + (0,) * (ring.nvars - n_even) for e in draw(st.lists(monomial, max_size=5))]
    names = [v.name for v in variables]
    relations = [ring.monomial(dict(zip(names, e))) for e in leads]
    return IdealPresentation(ring, relations), weights, leads


@settings(max_examples=120, deadline=None)
@given(monomial_presentations(), st.data())
def test_series_by_class_matches_the_expansion_per_variable(case, data):
    presentation, weights, leads = case
    ring = presentation.ring
    target = data.draw(st.sampled_from([None, *weights, (2, 1), (1, -1)]))
    weighted = target is not None

    def grade(e):
        return (ring.monomial_degree(e), *(ring.monomial_weight(e) if weighted else ()))

    for degree in range(17):
        numerator = colon_numerator(leads, degree, grade)
        want = per_variable_series(ring, numerator, degree, target)
        assert hilbert_series(presentation, degree, target) == want, degree
