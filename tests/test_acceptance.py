"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints the criterion's pass/fail line with its measured values.
Criteria 7b and 10b carry recorded expected values that the exhaustive
computation contradicts (see README.md, "Known-failing acceptance
checks"), so ``verify-all`` reports them as failing.  Their tests do not
assert the recorded values: each derives the honest value inside the test
by an independent path (a brute force over exponent vectors for 7b, the
type-A gap formula for 10b) that calls neither the enumerator nor the
pairing scan, and asserts that the criterion measured exactly that.
"""

import itertools
import json
import re

import pytest

from frobkern import grmodel, rootsys, specseq, verify
from frobkern.errors import DomainError
from frobkern.rootsys import Root


@pytest.fixture(scope="module")
def results():
    out = {res.key: res for res in verify.verify_all(seed=0)}
    for res in out.values():
        print(res.line())
    return out


def _assert(res):
    print(res.line())
    assert res.passed, (
        f"criterion {res.key} failed; measured values:\n"
        + json.dumps(res.details, indent=2, default=str)
    )


def test_criterion_01_theta_degree(results):
    res = results["1"]
    _assert(res)
    values = {k: v["value"] for k, v in res.details.items()}
    assert values == {"p=3,r=2": 9, "p=3,r=3": 243, "p=5,r=2": 25}
    assert all(v["seconds"] < 10 for v in res.details.values())


def test_criterion_02_u3_variety_counts(results):
    res = results["2"]
    _assert(res)
    assert res.details["r=2,q=3"]["count"] == 297
    assert res.details["r=3,q=5"]["count"] == 93125
    assert res.details["seconds_total"] < 30


def test_criterion_03_u4_components(results):
    res = results["3"]
    _assert(res)
    q3 = res.details["q=3"]
    assert (q3["V1"], q3["V2"], q3["V1&V2"], q3["Y"]) == (81, 105, 33, 153)
    assert q3["residual"] == 0 and res.details["q=5"]["residual"] == 0


def test_criterion_04_subdiagram_evidence(results):
    res = results["4"]
    _assert(res)
    assert res.details["N=4,r=2"] == {"a1-a3": 4, "a1|a3": 4}
    assert res.details["N=5,r=2,q=3"]["residual"] == 0


def test_criterion_05_relation_power_identities(results):
    res = results["5"]
    _assert(res)
    assert all(v["failures"] == 0 for v in res.details.values())
    assert res.details["p=3,r=3"]["relations_checked"] == 3


def test_criterion_06_spectral_formula_suite(results):
    res = results["6"]
    _assert(res)
    assert res.details["permanent_cycle_monomials"] == 55


def test_criterion_07a_uniqueness_counts(results):
    res = results["7a"]
    _assert(res)
    assert all(v["surviving"] == 1 for v in res.details.values())


def _first_page_slice(roots: dict, r: int, p: int, degree: int, weight: tuple):
    """Brute force over every exponent vector of the first-page generators.

    For each block 1 <= n <= r and each root beta there is a polynomial
    class x of degree 2 and weight p^n beta and an exterior class y of
    degree 1 and weight p^(n-1) beta (so its exponent is 0 or 1).  A
    monomial is returned as a frozenset of ((kind, root label, block),
    exponent) with zero exponents dropped.
    """
    gens = []
    for n in range(1, r + 1):
        for label, coeffs in roots.items():
            gens.append((("x", label, n), 2, tuple(p**n * c for c in coeffs)))
            gens.append((("y", label, n), 1, tuple(p ** (n - 1) * c for c in coeffs)))
    ranges = [range(degree // 2 + 1) if g[0][0] == "x" else range(2) for g in gens]
    out = set()
    for exps in itertools.product(*ranges):
        if sum(e * g[1] for e, g in zip(exps, gens)) != degree:
            continue
        got = tuple(sum(e * g[2][k] for e, g in zip(exps, gens)) for k in range(len(weight)))
        if got == weight:
            out.add(frozenset((g[0], e) for e, g in zip(exps, gens) if e))
    return out


_FACTOR = re.compile(r"([xy])\[([^\]]+)\]\{(\d+)\}(?:\^(\d+))?")


def _parse_monomial(name: str) -> frozenset:
    """Read a printed name such as ``x[a1+a2]{1}^2*y[a1]{2}`` into factors."""
    factors = [_FACTOR.fullmatch(bit) for bit in name.split("*")]
    assert all(factors), name
    return frozenset(
        ((m[1], m[2], int(m[3])), int(m[4] or 1)) for m in factors
    )


def test_criterion_07b_raw_enumeration_literal(results):
    # The recorded value "exactly 2 monomials" is contradicted by the
    # exhaustive enumeration, so verify-all reports 7b as failing.  Here
    # the honest slice is derived by brute force and the criterion's
    # measured monomial list must equal it.
    res = results["7b"]
    print(res.line())
    p, r = 3, 2
    roots = {"a1": (1, 0), "a2": (0, 1), "a1+a2": (1, 1)}
    expected = _first_page_slice(roots, r, p, degree=6, weight=(9, 9))
    cross = {m for m in expected if (("y", "a1+a2", 2), 1) in m}
    pure = {m for m in expected if all(g[0] == "x" for g, _ in m)}
    assert len(cross) == 2 and len(pure) == 1 and len(expected) == 4

    names = res.details["monomials"]
    assert names == sorted(names) and len(set(names)) == len(names)
    assert {_parse_monomial(name) for name in names} == expected
    assert res.details["found"] == len(expected)
    # the criterion still evaluates its recorded claim as recorded
    assert res.passed == (res.details["found"] == res.details["recorded_expected"])

    # The slice is the weight space that the 7a uniqueness search scans for
    # U3 at beta = a1+a2: degree 2p^(r-1) and weight p^r beta.  The search
    # classifies the two cross terms away (their block-2 wedge contains the
    # decomposable root a1+a2), then the pair wedge y[a1]{2} y[a2]{2}, and
    # keeps only the pure power.  The recorded 2 is the count left after
    # that first classification step, not the size of the raw page slice.
    ctx = grmodel.model_context("A", 2, i=1, stage=3, r=r, p=p)
    report = specseq.uniqueness_witness(ctx, Root((1, 1)))
    assert (report.degree, report.weight) == (2 * p ** (r - 1), (p**r, p**r)) == (6, (9, 9))
    assert {_parse_monomial(m.name) for m in report.monomials} == expected
    on_decomposable = {
        _parse_monomial(m.name)
        for m, why in report.paired
        if why == "wedge factor on the decomposable root a1+a2"
    }
    assert on_decomposable == cross
    assert {_parse_monomial(m.name) for m in report.survivors} == pure
    assert len(expected) - len(cross) == res.details["recorded_expected"]


def test_criterion_08_hilbert_splitting(results):
    res = results["8"]
    _assert(res)
    assert res.details["dims"] == {2: 5, 4: 15, 6: 36, 8: 74}


def test_criterion_09_stabilisation(results):
    res = results["9"]
    _assert(res)
    for key in ("A2", "A3"):
        assert res.details[key]["random_pairs"] == 100


def test_criterion_10a_pairing_scan_runtime(results):
    res = results["10a"]
    _assert(res)
    assert res.details["contexts_scanned"] == 252
    assert res.details["seconds"] < 60


def _level2_gaps(n: int, J) -> dict:
    """Closed-form decomposition counts of the level-2 roots of A_n.

    The roots of A_n are the intervals a_i + ... + a_j.  One with exactly
    two non-Levi nodes s < t has level 2, and its splits into two level-1
    roots are the cuts after a_k for s <= k < t: t - s of them.
    """
    outside = [k for k in range(1, n + 1) if f"a{k}" not in J]
    gaps = {}
    for i, j in itertools.combinations_with_replacement(range(1, n + 1), 2):
        nodes = [k for k in outside if i <= k <= j]
        if len(nodes) == 2:
            coeffs = tuple(int(i <= k <= j) for k in range(1, n + 1))
            gaps[coeffs] = nodes[1] - nodes[0]
    return gaps


def test_criterion_10b_pairing_hypothesis_all_j(results):
    # The recorded value "true for all J" is contradicted by the scan: the
    # hypothesis fails whenever two consecutive non-Levi nodes lie p or
    # more apart, first at rank 4 with J = {a2, a3}, p = 3.  So verify-all
    # reports 10b as failing.  Here the violating contexts are derived from
    # that gap formula, in the criterion's scan order, and the criterion's
    # measured count and witnesses must equal them.
    res = results["10b"]
    print(res.line())
    scanned = 0
    violating = []
    for n in range(1, 7):
        labels = [f"a{i}" for i in range(1, n + 1)]
        for size in range(n + 1):
            for J in itertools.combinations(labels, size):
                gaps = _level2_gaps(n, J)
                for p in (3, 5):
                    scanned += 1
                    fails = any(g >= p for g in gaps.values())
                    if fails:
                        violating.append({"rank": n, "J": sorted(J), "p": p})
                    # finer oracle: every level-2 root's decomposition count
                    # in the scan is the gap between its two non-Levi nodes
                    report = rootsys.check_pairing_hypothesis(
                        rootsys.context("A", n, frozenset(J)), p
                    )
                    per_root = {root.coeffs: (count, ok) for root, count, ok in report.per_root}
                    assert per_root == {c: (g, g < p) for c, g in gaps.items()}, (n, J, p)
                    assert report.ok == (not fails)
    assert scanned == results["10a"].details["contexts_scanned"]
    assert violating[0] == {"rank": 4, "J": ["a2", "a3"], "p": 3}

    assert res.details["violating_contexts"] == len(violating)
    assert res.details["first_witnesses"] == violating[:4]
    # the criterion still evaluates its recorded claim as recorded
    assert res.passed == (res.details["violating_contexts"] == 0)


def test_criterion_that_raises_fails_with_the_error_as_details():
    @verify._criterion("x", "a check outside its domain")
    def check(n):
        raise DomainError(f"no model at rank {n}")

    res = check(7)
    assert check.__name__ == "check"
    assert (res.key, res.name, res.passed) == ("x", "a check outside its domain", False)
    assert res.details == {"error": "DomainError: no model at rank 7"}
    assert res.elapsed_s >= 0
