"""The acceptance suite as callable checks.

Each criterion is a plain check returning (passed, details); the
``_criterion`` decorator times it, turns a FrobkernError it raises into a
failed criterion with the error as details, and returns a CriterionResult.
The CLI aggregates them for verify-all and the test suite asserts them one
by one.  Criteria 7b and 10b carry recorded expected values that the
exhaustive computation contradicts (see the notes in each docstring); they
are evaluated faithfully and report the honest outcome instead of being
adjusted to pass.
"""

from __future__ import annotations

import functools
import itertools
import time
from typing import NamedTuple

from . import commvar, grmodel, polyalg, rootsys, specseq
from .errors import FrobkernError
from .rootsys import Root


class CriterionResult(NamedTuple):
    key: str
    name: str
    passed: bool
    details: dict
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.key}: {self.name} ({self.elapsed_s:.2f}s)"

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "elapsed_s": round(self.elapsed_s, 3)}


def _criterion(key: str, name: str):
    """Make a check returning (passed, details) a timed criterion; a
    FrobkernError it raises fails the criterion with the error as details."""

    def wrap(check):
        @functools.wraps(check)
        def criterion(*args, **kwargs) -> CriterionResult:
            start = time.perf_counter()
            try:
                passed, details = check(*args, **kwargs)
            except FrobkernError as exc:
                passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            return CriterionResult(key, name, passed, details, time.perf_counter() - start)

        return criterion

    return wrap


@_criterion("1", "theta degree formula and basis-count cross-check")
def criterion_1_theta_degree():
    """Degree formula with the localisation check for (3,2), (3,3), (5,2)."""
    expected = {(3, 2): 9, (3, 3): 243, (5, 2): 25}
    measured = {}
    ok = True
    for (p, r), want in expected.items():
        t0 = time.perf_counter()
        got = grmodel.theta_degree_U3(r, p)
        dt = time.perf_counter() - t0
        measured[f"p={p},r={r}"] = {"value": got, "seconds": round(dt, 3)}
        ok &= got == want and dt < 10.0
    return ok, measured


@_criterion("2", "V_r(U3) point counts and dimension bracketing")
def criterion_2_u3_counts():
    """|V_r(U3)(F_q)| = (1+(q+1)(q^r-1)) q^r for r <= 3, q in {3,5}."""
    start = time.perf_counter()
    details = {}
    ok = True
    for r in (1, 2, 3):
        system = commvar.x_variety_system(3, r)
        for q in (3, 5):
            count = system.count(q)
            want = commvar.u3_y_closed_form(q, r) * q**r
            est = commvar.dim_estimate(count, q)
            good = count == want and commvar.dim_matches(count, q, 2 * r + 1)
            details[f"r={r},q={q}"] = {
                "count": count,
                "expected": want,
                "dim_estimate": round(est, 3),
                "dim_claimed": 2 * r + 1,
                "ok": good,
            }
            ok &= good
    total = time.perf_counter() - start
    details["seconds_total"] = round(total, 3)
    return ok and total < 30.0, details


@_criterion("3", "U4/Gamma_3 component counts and residual")
def criterion_3_u4_components():
    """Inclusion-exclusion residual 0 for the four-strand component pair."""
    details = {}
    ok = True
    for q, counts in commvar.u4_component_counts(2, (3, 5)).items():
        dims_ok = all(commvar.dim_matches(counts[v], q, 4) for v in ("V1", "V2"))
        details[f"q={q}"] = {**counts, "dims_ok": dims_ok}
        ok &= counts["residual"] == 0 and dims_ok
    return ok, details


@_criterion("4", "sub-diagram families and the N=5 evidence report")
def criterion_4_subdiagrams():
    """Known families for N=3,4; the N=5 report completes within budget."""
    details = {}
    fam3 = commvar.subdiagram_components(3, 2)
    fam4 = commvar.subdiagram_components(4, 2)
    ok = len(fam3.members) == 1 and len(fam4.members) == 2
    for r in (2, 3):
        dims = commvar.subdiagram_components(4, r).predicted_dims()
        ok &= sorted(dims.values()) == sorted([r + 2, 2 * r])
        details[f"N=4,r={r}"] = dims
    report = commvar.conjecture_check(5, 2, q_list=(3,))
    details["N=5,r=2,q=3"] = {
        "y_count": report.y_counts[3],
        "residual": report.residuals[3],
        "members": len(report.family.members),
    }
    ok &= len(report.family.members) == 3 and 3 in report.residuals
    return ok, details


@_criterion("5", "exact relation-power identities under theta")
def criterion_5_relation_power():
    """theta maps every coordinate relation onto a power of a model relation."""
    details = {}
    for p, r in [(3, 2), (3, 3), (5, 2)]:
        ctx = grmodel.model_context("A", 2, i=1, stage=3, r=r, p=p)
        theta = grmodel.theta_substitution(ctx)  # raises on failure
        identities = grmodel.theta_power_identities(theta)
        details[f"p={p},r={r}"] = {
            "relations_checked": len(identities),
            "powers": sorted(i.power for i in identities),
            "failures": 0,
        }
    return True, details


@_criterion("6", "spectral-sequence formula suite")
def criterion_6_spectral_suite():
    """Kudo compatibility, truncation pattern, permanent-cycle agreement."""
    details = {}
    kudo_checked = 0
    for rank in (2, 3):
        for r in (2, 3):
            ctx = grmodel.model_context("A", rank, i=1, stage=3, r=r, p=3)
            page = specseq.ExtensionPage(ctx)
            for beta in page.fiber_roots:
                for twist in range(r):
                    lhs = specseq.steenrod_apply(
                        page, "bP0", specseq.d2_on_y(page, beta, twist)
                    )
                    if lhs != specseq.transgression_power(page, beta, twist, 0):
                        return False, {"kudo_failure": (rank, r, beta.label(), twist)}
                    kudo_checked += 1
    details["kudo_instances"] = kudo_checked

    truncation_checked = 0
    for r in (1, 2, 3):
        ctx = grmodel.model_context("A", 2, i=1, stage=3, r=r, p=3)
        page = specseq.ExtensionPage(ctx)
        beta = page.fiber_roots[0]
        for twist, j in itertools.product(range(4), range(4)):
            value = specseq.transgression_power(page, beta, twist, j)
            if value.is_zero() != (twist + 1 + j >= r):
                return False, {"truncation_failure": (r, twist, j)}
            truncation_checked += 1
    details["truncation_instances"] = truncation_checked

    ctx = grmodel.model_context("A", 2, i=1, stage=3, r=2, p=3)
    page = specseq.ExtensionPage(ctx)
    beta = page.fiber_roots[0]
    agree = 0
    for n0 in range(10):
        for n1 in range(10 - n0):  # degree 2(n0+n1) <= 2 p^2
            mono = {}
            if n0:
                mono[(beta, 0)] = n0
            if n1:
                mono[(beta, 1)] = n1
            criterion = specseq.permanent_cycle_monomial(mono, r=2, p=3)
            scan = specseq.first_nonvanishing_differential(page, mono)
            if criterion != (scan is None):
                return False, {"permanent_cycle_mismatch": (n0, n1)}
            agree += 1
    details["permanent_cycle_monomials"] = agree
    return True, details


@_criterion("7a", "weight-space uniqueness searches")
def criterion_7a_uniqueness_counts():
    """Surviving count 1 for U3 at (3,2), (5,2) and U4/Gamma_3 at (5,2)."""
    details = {}
    ok = True
    cases = [("A", 2, 3, 2, [Root((1, 1))]), ("A", 2, 5, 2, [Root((1, 1))])]
    cases.append(("A", 3, 5, 2, [Root((1, 1, 0)), Root((0, 1, 1))]))
    for family, rank, p, r, betas in cases:
        ctx = grmodel.model_context(family, rank, i=1, stage=3, r=r, p=p)
        for beta in betas:
            report = specseq.uniqueness_witness(ctx, beta)
            key = f"{family}{rank},p={p},r={r},beta={beta.label()}"
            details[key] = {
                "surviving": report.surviving_count,
                "monomials": len(report.monomials),
            }
            ok &= report.surviving_count == 1
    return ok, details


@_criterion("7b", "raw first-page enumeration literal (known discrepancy)")
def criterion_7b_raw_enumeration_literal():
    """Recorded claim: the degree-6 weight-(9,9) enumeration has 2 monomials.

    The exhaustive enumeration over the first-page summand structure yields
    four: besides the pure power and the pair wedge there are two cross
    terms trading a level-2 polynomial factor for a level-1 one times a
    wedge on the level-2 root.  The check is evaluated as recorded and is
    expected to fail; the honest monomial list is attached.
    """
    roots = [Root((1, 0)), Root((0, 1)), Root((1, 1))]
    out = specseq.aj_E1_enumerate(roots, r=2, p=3, total_degree=6, target_weight=(9, 9))
    names = sorted(m.name for m in out)
    return len(out) == 2, {"recorded_expected": 2, "found": len(out), "monomials": names}


@_criterion("8", "graded dimensions and splitting convolution")
def criterion_8_hilbert():
    """Frozen graded dimensions and the tensor-splitting convolution."""
    ctx = grmodel.model_context("A", 2, i=1, stage=3, r=2, p=3)
    sbar = grmodel.build_Sbar(ctx)
    direct = polyalg.hilbert_series(sbar.ideal(), 10)
    q_row = polyalg.hilbert_series(grmodel.build_Q(ctx).ideal(), 10)
    top_row = polyalg.hilbert_series(grmodel.top_free_factor(ctx), 10)
    dims = {d: direct[d] for d in (2, 4, 6, 8)}
    ok = dims == {2: 5, 4: 15, 6: 36, 8: 74}
    convolution = {}
    for d in range(11):
        conv = sum(q_row[a] * top_row[d - a] for a in range(d + 1))
        convolution[d] = {"direct": direct[d], "convolved": conv}
        ok &= direct[d] == conv
    return ok, {"dims": dims, "convolution": convolution}


@_criterion("9", "stabilisation collapse and bracket multiplicativity")
def criterion_9_stabilisation(seed: int = 0):
    """Image membership failures plus 100 random multiplicativity pairs."""
    details = {}
    for family, rank in [("A", 2), ("A", 3)]:
        ctx = grmodel.model_context(family, rank, i=1, stage=3, r=2, p=3)
        misses = grmodel.bracket_probe(grmodel.build_Sbar(ctx), 100, seed)
        details[f"{family}{rank}"] = {
            "membership_failures_verified": len(misses),
            "random_pairs": 100,
        }
    return True, details


@functools.cache
def _pairing_scan() -> tuple[int, tuple]:
    """Contexts scanned and (rank, J, p, report) of every failing one.

    The scan covers A_n (n <= 6), every J and p in {3, 5}; criteria 10a and
    10b read the same scan.  Its first caller pays for it: in verify-all
    that is 10a, which times it.
    """
    contexts = 0
    failures = []
    for n in range(1, 7):
        labels = [f"a{i}" for i in range(1, n + 1)]
        for size in range(n + 1):
            for J in itertools.combinations(labels, size):
                ctx = rootsys.context("A", n, frozenset(J))
                for p in (3, 5):
                    report = rootsys.check_pairing_hypothesis(ctx, p)
                    contexts += 1
                    if not report.ok:
                        failures.append((n, J, p, report))
    return contexts, tuple(failures)


@_criterion("10a", "pairing-hypothesis scan completes in time")
def criterion_10a_pairing_scan():
    """The full scan over A_n (n <= 6), all J, p in {3,5} finishes quickly."""
    start = time.perf_counter()
    contexts, failures = _pairing_scan()
    elapsed = time.perf_counter() - start
    return elapsed < 60.0, {
        "contexts_scanned": contexts,
        "violations": len(failures),
        "seconds": round(elapsed, 3),
        "witnesses": [
            {
                "rank": n,
                "J": list(J),
                "p": p,
                "roots": [
                    {"root": r.label(), "pairs": c}
                    for r, c, ok in report.per_root
                    if not ok
                ],
            }
            for n, J, p, report in failures[:5]
        ],
    }


@_criterion("10b", "pairing hypothesis for all J (known discrepancy)")
def criterion_10b_pairing_all_true():
    """Recorded claim: the scan returns true for every J (it does not).

    A level-2 root can carry p or more disjoint two-term decompositions
    once the Levi swallows the interior of a long chain; the smallest case
    is rank 4 with J = {a2, a3} at p = 3, where a1+a2+a3+a4 splits three
    ways.  The check is evaluated as recorded and reports the witnesses.
    """
    _, failures = _pairing_scan()
    return not failures, {
        "violating_contexts": len(failures),
        "first_witnesses": [
            {"rank": n, "J": list(J), "p": p} for n, J, p, _ in failures[:4]
        ],
    }


ALL_CRITERIA = [
    criterion_1_theta_degree,
    criterion_2_u3_counts,
    criterion_3_u4_components,
    criterion_4_subdiagrams,
    criterion_5_relation_power,
    criterion_6_spectral_suite,
    criterion_7a_uniqueness_counts,
    criterion_7b_raw_enumeration_literal,
    criterion_8_hilbert,
    criterion_9_stabilisation,
    criterion_10a_pairing_scan,
    criterion_10b_pairing_all_true,
]

#: criteria whose recorded expected values contradict the exhaustive
#: computation; they are reported honestly and left failing by design
KNOWN_DISCREPANCIES = {"7b", "10b"}


def verify_all(seed: int = 0) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        if fn is criterion_9_stabilisation:
            results.append(criterion_9_stabilisation(seed))
        else:
            results.append(fn())
    return results
