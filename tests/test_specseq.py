import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import pathlib
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkern import grmodel, specseq
from frobkern.cli import run
from frobkern.errors import BudgetError, CheckFailure, DomainError, UnsupportedOperationError
from frobkern.grmodel import ModelGenerator, model_context
from frobkern.polyalg import IdealPresentation, Poly, hilbert_series
from frobkern.rootsys import Root, build_root_system, summand_pairs
from frobkern.specseq import (
    ExtensionPage,
    _is_supported,
    _parse_op,
    aj_E1_enumerate,
    aj_page,
    d2,
    d2_on_y,
    first_nonvanishing_differential,
    permanent_cycle_monomial,
    steenrod_apply,
    transgression_power,
    uniqueness_witness,
)

A1, A2, A12 = Root((1, 0)), Root((0, 1)), Root((1, 1))
B1, B2, B3 = Root((1, 0, 0)), Root((0, 1, 0)), Root((0, 0, 1))
B12, B23 = Root((1, 1, 0)), Root((0, 1, 1))

#: the benchmark's pinned exit codes and payload digests, by job
REFERENCE_JOBS = json.loads(
    (pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
)["jobs"]


def u3_page(r=2, p=3):
    return ExtensionPage(model_context("A", 2, i=1, stage=3, r=r, p=p))


def u4_page(r=2, p=3):
    return ExtensionPage(model_context("A", 3, i=1, stage=3, r=r, p=p))


class TestGaPresentation:
    def test_truncation_and_weights(self):
        # the U3 page's fiber root a1+a2 carries the height-2 G_a page
        ring = u3_page().ring
        names = {v.name for v in ring.variables if "[a1+a2]" in v.name}
        assert names == {
            "x[a1+a2](0)", "x[a1+a2](1)", "y[a1+a2](0)", "y[a1+a2](1)",
        }
        by = {v.name: v for v in ring.variables}
        assert by["y[a1+a2](0)"].weight == (1, 1)
        assert by["y[a1+a2](1)"].weight == (3, 3)
        assert by["x[a1+a2](0)"].weight == (3, 3)
        assert by["x[a1+a2](1)"].weight == (9, 9)


class TestSecondPageAsPresentation:
    """E2 is a Presentation with no relations, like S*: the free
    graded-commutative algebra on its classes."""

    def test_hilbert_series_is_the_free_series(self):
        page = u4_page(r=2)
        assert isinstance(page, grmodel.Presentation) and page.relations == ()
        n = sum(g.kind == "x" for g in page.generators)
        assert n == sum(g.kind == "y" for g in page.generators) == 10
        # k of the n odd classes of degree 1, times a monomial of degree d - k
        # in the n even classes of degree 2
        free = [
            sum(
                math.comb(n, k) * math.comb(n - 1 + (d - k) // 2, n - 1)
                for k in range(min(n, d) + 1)
                if (d - k) % 2 == 0
            )
            for d in range(13)
        ]
        assert hilbert_series(page.ideal(), 12) == free

    @pytest.mark.parametrize(
        "kind, root, twist",
        [("x", A12, 2), ("w", A12, 0), ("y", Root((1, 1, 1)), 0)],
        ids=["twist-above-r", "no-w-on-the-page", "root-above-the-fiber"],
    )
    def test_a_class_off_the_page_is_named(self, kind, root, twist):
        page = u3_page(r=2) if len(root.coeffs) == 2 else u4_page(r=2)
        name = f"{kind}[{root.label()}]({twist})"
        with pytest.raises(DomainError, match=re.escape(repr(name))):
            page.var(kind, root, twist)


class TestD2:
    def test_u3_twist0(self):
        page = u3_page()
        assert d2_on_y(page, A12, 0) == page.var("y", A1, 0) * page.var("y", A2, 0)

    def test_u4_beta23_twist1(self):
        page = u4_page()
        assert d2_on_y(page, B23, 1) == page.var("y", B2, 1) * page.var("y", B3, 1)

    def test_no_pairs_gives_zero(self):
        # inside Gamma_2 the level-2 fiber roots have no admissible pairs
        page = ExtensionPage(model_context("A", 3, i=2, stage=3, r=2, p=3))
        assert d2_on_y(page, B12, 0).is_zero()

    def test_base_root_rejected(self):
        with pytest.raises(DomainError):
            d2_on_y(u3_page(), A1, 0)


class TestTransgression:
    def test_u3_base_case(self):
        page = u3_page()
        x, y = functools.partial(page.var, "x"), functools.partial(page.var, "y")
        expected = x(A1, 0) * y(A2, 1) - x(A2, 0) * y(A1, 1)
        assert transgression_power(page, A12, 0, 0) == expected

    def test_truncated(self):
        assert transgression_power(u3_page(), A12, 1, 0).is_zero()

    def test_j1_r3(self):
        page = u3_page(r=3)
        expected = (
            page.var("x", A1, 0) ** 3 * page.var("y", A2, 2)
            - page.var("x", A2, 0) ** 3 * page.var("y", A1, 2)
        )
        assert transgression_power(page, A12, 0, 1) == expected

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_zero_iff_truncated(self, r):
        page = u3_page(r=r)
        for twist, j in itertools.product(range(4), range(4)):
            value = transgression_power(page, A12, twist, j)
            assert value.is_zero() == (twist + 1 + j >= r)

    def test_weight_preservation(self):
        page = u3_page(r=3)
        for twist, j in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]:
            value = transgression_power(page, A12, twist, j)
            if value.is_zero():
                continue
            scale = 3 ** (twist + 1 + j)
            assert value.uniform_weight() == (scale, scale)
            assert d2_on_y(page, A12, twist).uniform_weight() == (3**twist, 3**twist)


class TestDerivation:
    def test_leibniz_on_random_pairs(self):
        import random

        page = u3_page()
        rng = random.Random(11)
        gens = [page.ring.var(v.name) for v in page.ring.variables]

        def random_monomial():
            f = page.ring.one()
            for _ in range(rng.randint(1, 3)):
                f = f * rng.choice(gens)
                if f.is_zero():
                    return random_monomial()
            return f

        for _ in range(40):
            f, g = random_monomial(), random_monomial()
            if (f * g).is_zero():
                continue
            df = d2(page, f)
            dg = d2(page, g)
            sign = -1 if f.homogeneous_degree() % 2 else 1
            assert d2(page, f * g) == df * g + (f * dg) * sign

    def test_d2_squared_zero_low_fiber_degree(self):
        page = u3_page()
        candidates = [
            page.var("y", A12, 0) * page.var("y", A12, 1),
            page.var("y", A12, 0) * page.var("x", A1, 0),
            page.var("y", A12, 1),
            page.var("y", A12, 0) * page.var("y", A12, 1) * page.var("x", A2, 1),
        ]
        for f in candidates:
            assert d2(page, d2(page, f)).is_zero()

    def test_d2_vanishes_on_fiber_x(self):
        page = u3_page()
        assert d2(page, page.var("x", A12, 0) ** 2).is_zero()


class TestSteenrod:
    def test_bockstein_on_wedge_is_cartan_display(self):
        page = u3_page()
        value = steenrod_apply(page, "bP0", page.var("y", A1, 0) * page.var("y", A2, 0))
        x, y = functools.partial(page.var, "x"), functools.partial(page.var, "y")
        expected = x(A1, 0) * y(A2, 1) - x(A2, 0) * y(A1, 1)
        assert value == expected

    def test_power_rule(self):
        page = u3_page(r=2)
        value = steenrod_apply(page, "P3", page.var("x", A12, 0) ** 3)
        assert value == page.var("x", A12, 0) ** 9

    def test_truncated_bockstein(self):
        page = u3_page(r=2)
        assert steenrod_apply(page, "bP0", page.var("y", A12, 1)) == page.var("x", A12, 1)
        # on a wedge at the top twist both Cartan terms hit truncated classes
        top = page.var("y", A1, 1) * page.var("y", A2, 1)
        assert steenrod_apply(page, "bP0", top).is_zero()

    def test_p0_is_ring_map(self):
        page = u3_page(r=3)
        f = page.var("x", A1, 0) + page.var("y", A2, 0) * page.var("y", A1, 1)
        g = page.var("x", A2, 1) ** 2
        assert steenrod_apply(page, "P0", f * g) == steenrod_apply(
            page, "P0", f
        ) * steenrod_apply(page, "P0", g)

    def test_kudo_compatibility(self):
        for page in (u3_page(r=2), u3_page(r=3), u4_page(r=2)):
            for beta in page.fiber_roots:
                for twist in range(page.ctx.r):
                    lhs = steenrod_apply(page, "bP0", d2_on_y(page, beta, twist))
                    assert lhs == transgression_power(page, beta, twist, 0)

    def test_kudo_chain_via_power_operations(self):
        page = u3_page(r=3)
        for twist, j in [(0, 0), (0, 1), (1, 0)]:
            prev = transgression_power(page, A12, twist, j)
            nxt = steenrod_apply(page, f"P{3**j}", prev)
            assert nxt == transgression_power(page, A12, twist, j + 1)

    def test_bockstein_of_transgression_is_relation_value(self):
        page = u3_page(r=3)
        p = 3
        for twist, j in [(0, 0), (1, 0), (0, 1)]:
            value = steenrod_apply(
                page, f"bP{p**j}", transgression_power(page, A12, twist, j)
            )
            if twist + 1 + j >= page.ctx.r:
                assert value.is_zero()
                continue
            expected = page.var("x", A1, twist) ** (p ** (j + 1)) * page.var("x", 
                A2, twist + 1 + j
            ) - page.var("x", A2, twist) ** (p ** (j + 1)) * page.var("x", A1, twist + 1 + j)
            assert value == expected

    def test_weight_scaling(self):
        page = u3_page(r=3)
        f = page.var("y", A1, 0) * page.var("y", A2, 0)
        value = steenrod_apply(page, "bP0", f)
        assert value.uniform_weight() == tuple(3 * w for w in f.uniform_weight())

    def test_unsupported_operation(self):
        page = u3_page()
        with pytest.raises(UnsupportedOperationError):
            steenrod_apply(page, "P2", page.var("x", A1, 0))
        with pytest.raises(UnsupportedOperationError):
            steenrod_apply(page, "Q1", page.var("x", A1, 0))
        for op in ("P", "Px", "bP"):
            with pytest.raises(UnsupportedOperationError, match="cannot parse"):
                steenrod_apply(page, op, page.var("x", A1, 0))

    def test_generators_follow_the_ring(self):
        page = u4_page(r=2)
        assert [g.descriptor() for g in page.generators] == list(page.ring.variables)
        # every x twist by twist, then every y; base roots before fiber roots
        names = [v.name for v in u3_page(r=2).ring.variables]
        assert names == [
            f"{kind}[{root}]({twist})"
            for kind in "xy"
            for twist in (0, 1)
            for root in ("a1", "a2", "a1+a2")
        ]


class TestPermanentCycles:
    def test_examples(self):
        assert permanent_cycle_monomial({(A12, 1): 1}, r=2, p=3)
        assert not permanent_cycle_monomial({(A12, 0): 1}, r=2, p=3)
        assert not permanent_cycle_monomial({(A12, 0): 1, (A12, 1): 1}, r=2, p=3)
        assert permanent_cycle_monomial({(A12, 0): 3, (A12, 1): 5}, r=2, p=3)

    def test_agreement_with_differential_scan(self):
        # every fiber monomial with exponent sum <= bound.  From r = 3 on the
        # scan reaches pages 2p^j+1, j >= 1, on monomials with a factor whose
        # exponent p^j does not divide
        cases = [  # (rank, r, p, bound)
            (2, 2, 3, 9), (2, 3, 3, 9), (2, 3, 5, 9), (2, 4, 3, 7), (3, 3, 3, 4),
        ]
        higher = 0
        for rank, r, p, bound in cases:
            page = ExtensionPage(model_context("A", rank, i=1, stage=3, r=r, p=p))
            keys = [(beta, twist) for beta in page.fiber_roots for twist in range(r)]
            for exps in itertools.product(range(bound + 1), repeat=len(keys)):
                if sum(exps) > bound:
                    continue
                mono = {key: n for key, n in zip(keys, exps) if n}
                criterion = permanent_cycle_monomial(mono, r=r, p=p)
                scan = first_nonvanishing_differential(page, mono)
                assert criterion == (scan is None), (rank, r, p, exps)
                if scan and scan[0] and any(n % p ** scan[0] for n in exps):
                    higher += 1
        assert higher == 27

    def test_scan_page_index(self):
        page = u3_page(r=3, p=3)
        j, value = first_nonvanishing_differential(page, {(A12, 0): 3})
        assert j == 1 and not value.is_zero()
        j, value = first_nonvanishing_differential(page, {(A12, 0): 1})
        assert j == 0

    def test_cross_root_no_cancellation(self):
        page = u4_page(r=2, p=3)
        scan = first_nonvanishing_differential(page, {(B12, 0): 1, (B23, 0): 1})
        assert scan is not None and scan[0] == 0


class TestAJEnumeration:
    def test_degree_zero(self):
        out = aj_E1_enumerate([A1, A2, A12], r=2, p=3, total_degree=0, target_weight=(0, 0))
        assert len(out) == 1 and out[0].name == "1"

    def test_negative_weight(self):
        out = aj_E1_enumerate([A1, A2, A12], r=2, p=3, total_degree=2, target_weight=(-1, 0))
        assert out == []

    def test_u3_key_weight_space(self):
        # hand enumeration over the block profile (a_1, b_2): (3, 0) gives the
        # pure power; (2, 2) gives the pair wedge and the two cross terms that
        # trade one x[a1+a2] for x[a_i] * y[a_j] * y[a1+a2]; nothing else fits
        # the degree-6, weight-(9,9) budget
        out = aj_E1_enumerate(
            [A1, A2, A12], r=2, p=3, total_degree=6, target_weight=(9, 9)
        )
        names = {m.name for m in out}
        assert names == {
            "x[a1+a2]{1}^3",
            "x[a1+a2]{1}^2*y[a1]{2}*y[a2]{2}",
            "x[a1]{1}*x[a1+a2]{1}*y[a2]{2}*y[a1+a2]{2}",
            "x[a2]{1}*x[a1+a2]{1}*y[a1]{2}*y[a1+a2]{2}",
        }

    def test_summand_index_consistency(self):
        out = aj_E1_enumerate(
            [A1, A2, A12], r=2, p=3, total_degree=6, target_weight=(9, 9)
        )
        for mono in out:
            idx = mono.to_json_dict()
            assert idx["name"] == mono.name
            a, b = idx["a"], idx["b"]
            assert idx["filtration"] == sum(3**n * e for n, e in a.items()) + sum(
                3 ** (n - 1) * e for n, e in b.items()
            )
            assert idx["degree"] == sum(2 * e for e in a.values()) + sum(b.values())


def first_page_roots(family, rank, r, p):
    return model_context(family, rank, r=r, p=p).roots()


@st.composite
def first_page_slices(draw):
    """(roots, r, p, degree, weight) at the degree and weight of a random monomial."""
    # first pages of at most 24 variables keep the series cheap
    family, rank, r = draw(
        st.sampled_from(
            [(f, 2, r) for f in "ABC" for r in (1, 2, 3)] + [("A", 3, 1), ("A", 3, 2)]
        )
    )
    p = draw(st.sampled_from((3, 5)))
    roots = first_page_roots(family, rank, r, p)
    ring, _ = aj_page(roots, r, p)
    exps = [0] * ring.nvars
    for i in draw(st.lists(st.integers(0, ring.nvars - 1), max_size=6)):
        exps[i] = 1 if ring.variables[i].parity == "odd" else exps[i] + 1
    degree = ring.monomial_degree(exps)
    assert degree <= 2 * p * p + 2
    return roots, r, p, degree, ring.monomial_weight(exps)


class TestFirstPageOracle:
    """The enumeration against the Hilbert series of the relation-free page."""

    @staticmethod
    def check_weight_space(roots, r, p, degree, weight):
        ring, _ = aj_page(roots, r, p)
        out = aj_E1_enumerate(roots, r, p, degree, weight)
        series = hilbert_series(IdealPresentation(ring, []), degree, weight)
        # distinct monomials, each of the slice, as many as the slice's
        # dimension: the list is the whole weight space
        assert len(out) == series[degree]
        assert len({m.name for m in out}) == len(out)
        for m in out:
            assert m.degree == degree
            assert ring.monomial_weight(m.exps) == weight
        return out

    @settings(max_examples=60, deadline=None)
    @given(first_page_slices())
    def test_enumeration_is_the_weight_space(self, case):
        self.check_weight_space(*case)

    def test_uniqueness_slice_of_a2_r3(self):
        roots = first_page_roots("A", 2, 3, 3)
        out = self.check_weight_space(roots, 3, 3, 18, (27, 27))
        assert len(out) == 108
        assert out == sorted(out, key=lambda m: m.name)
        assert "x[a1+a2]{1}^9" in {m.name for m in out}

    def test_slice_of_a_36_variable_page(self):
        # a weighted series on a page this large took 10-78 s while it kept
        # the weight classes above the target
        roots = first_page_roots("A", 3, 3, 3)
        assert len(aj_page(roots, 3, 3)[0].variables) == 36
        assert len(self.check_weight_space(roots, 3, 3, 8, (15, 42, 40))) == 28

    def test_weighted_slice_of_a_60_variable_page(self):
        # the series drops every class that the variables still to come
        # cannot bring to the target; keeping them took about 70 s on a
        # 2-core machine
        roots = first_page_roots("A", 4, 3, 5)
        assert len(aj_page(roots, 3, 5)[0].variables) == 60
        assert len(self.check_weight_space(roots, 3, 5, 9, (156, 166, 156, 130))) == 52

    def test_large_slice_of_a2_r3(self):
        # degree 30 is over the series' bound 2p^2 + 2 = 20, so the slice is
        # pinned by its size and checked monomial by monomial
        roots = first_page_roots("A", 2, 3, 3)
        ring, _ = aj_page(roots, 3, 3)
        out = aj_E1_enumerate(roots, 3, 3, 30, (81, 82))
        names = [m.name for m in out]
        assert len(out) == 3298
        assert len(set(names)) == len(out) and names == sorted(names)
        for m in out:
            assert m.degree == 30
            assert ring.monomial_weight(m.exps) == (81, 82)

    def test_budget_names_the_slice(self):
        roots = first_page_roots("A", 2, 3, 3)
        assert len(aj_E1_enumerate(roots, 3, 3, 18, (27, 27), max_monomials=108)) == 108
        with pytest.raises(BudgetError) as err:
            aj_E1_enumerate(roots, 3, 3, 18, (27, 27), max_monomials=100)
        message = str(err.value)
        assert "100 monomials" in message
        assert "degree 18" in message and "(27, 27)" in message

    def test_wrong_weight_length(self):
        with pytest.raises(DomainError):
            aj_E1_enumerate([A1, A2, A12], r=2, p=3, total_degree=2, target_weight=(3,))


@pytest.mark.parametrize("key", [k for k in REFERENCE_JOBS if k.startswith("specseq ")])
def test_specseq_payload_matches_reference(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(key.split()) == REFERENCE_JOBS[key]["exit"]
    payload = json.loads(out.getvalue())["payload"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_JOBS[key]["digest"]


class TestFirstPageMemo:
    def test_a_second_call_returns_the_same_ring(self):
        roots = first_page_roots("A", 3, 2, 5)
        ring, gens = aj_page(roots, 2, 5)
        again, gens_again = aj_page(list(roots), 2, 5)
        assert again is ring and gens_again is gens
        assert aj_page(roots, 2, 3)[0] is not ring

    @pytest.mark.parametrize(
        "key",
        [k for k in REFERENCE_JOBS if k.startswith(("specseq aj-enumerate", "specseq uniq"))],
    )
    def test_payloads_from_a_cold_and_a_warm_page_match_the_reference(self, key):
        specseq._aj_page.cache_clear()
        for _ in range(2):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run(key.split()) == REFERENCE_JOBS[key]["exit"]
            payload = json.loads(out.getvalue())["payload"]
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_JOBS[key]["digest"]
        assert specseq._aj_page.cache_info().hits >= 1


class TestUniqueness:
    def test_u3_p3_r2(self):
        ctx = model_context("A", 2, i=1, stage=3, r=2, p=3)
        report = uniqueness_witness(ctx, A12)
        assert report.surviving_count == 1
        assert report.survivors[0].name == "x[a1+a2]{1}^3"
        assert len(report.monomials) == 4
        reasons = {m.name: why for m, why in report.paired}
        assert "assembling to a root" in reasons["x[a1+a2]{1}^2*y[a1]{2}*y[a2]{2}"]
        assert (
            "decomposable root"
            in reasons["x[a1]{1}*x[a1+a2]{1}*y[a2]{2}*y[a1+a2]{2}"]
        )

    def test_u3_r1(self):
        ctx = model_context("A", 2, i=1, stage=3, r=1, p=3)
        report = uniqueness_witness(ctx, A12)
        assert report.surviving_count == 1
        assert report.monomials == report.survivors

    def test_u3_p5(self):
        ctx = model_context("A", 2, i=1, stage=3, r=2, p=5)
        assert uniqueness_witness(ctx, A12).surviving_count == 1

    def test_u4_mod_g3_p5(self):
        ctx = model_context("A", 3, i=1, stage=3, r=2, p=5)
        for beta in (B12, B23):
            assert uniqueness_witness(ctx, beta).surviving_count == 1

    def test_precondition_enforced(self):
        ctx = model_context("A", 4, J={"a2", "a3"}, i=1, stage=3, r=2, p=3)
        with pytest.raises(DomainError):
            uniqueness_witness(ctx, Root((1, 1, 1, 1)))

    def test_wrong_level_rejected(self):
        ctx = model_context("A", 2, i=1, stage=3, r=2, p=3)
        with pytest.raises(DomainError):
            uniqueness_witness(ctx, A1)

    def test_json_payload(self):
        ctx = model_context("A", 2, i=1, stage=3, r=2, p=3)
        doc = uniqueness_witness(ctx, A12).to_json_dict()
        assert doc["surviving_count"] == 1
        assert doc["classification"] == "heuristic"
        assert len(doc["monomials"]) == 4
        assert all(entry["reason"] for entry in doc["paired"])


# -- the recursions that the Cartan-Leibniz fold replaced, kept as its oracle ----


def oracle_page_derivation(page, values, f):
    """Extend generator values to a Koszul-signed derivation and apply it,
    by splitting off the first factor and recursing on the rest."""
    ring = page.ring

    def d_mono(exps):
        first = next((i for i, e in enumerate(exps) if e), None)
        if first is None:
            return ring.zero()
        e = exps[first]
        name = ring.variables[first].name
        g = ring.var(name)
        rest = list(exps)
        rest[first] = 0
        rest_poly = Poly(ring, {tuple(rest): 1})
        dg = values.get(name, ring.zero())
        if dg.is_zero():
            da = ring.zero()
        elif ring.variables[first].parity == "odd":
            da = dg
        else:
            da = dg * g ** (e - 1) * e
        parity = (e * ring.variables[first].degree) % 2
        out = da * rest_poly
        tail = d_mono(tuple(rest))
        if not tail.is_zero():
            out = out + (g**e) * tail * (-1 if parity else 1)
        return out

    out = ring.zero()
    for exps, c in f.terms.items():
        out = out + d_mono(exps) * c
    return out


def oracle_d2(page, f):
    values = {
        ModelGenerator("y", beta, twist, page.ctx.p).name: d2_on_y(page, beta, twist)
        for beta in page.fiber_roots
        for twist in range(page.ctx.r)
    }
    return oracle_page_derivation(page, values, f)


def oracle_steenrod_apply(page, op, f):
    """The Cartan formula by recursion over the factors, re-expanding the
    tail for every split of the budget."""
    bock, n = _parse_op(op)
    ctx = page.ctx
    assert _is_supported(n, ctx.p)
    ring = page.ring
    r = ctx.r

    def on_power(bock_flag, s, index, e):
        gen = page.generators[index]
        root, twist = gen.root, gen.twist
        if gen.kind == "y":
            if s != 0:
                return ring.zero()
            if bock_flag:
                return page.var("x", root, twist)
            if twist + 1 >= r:
                return ring.zero()
            return page.var("y", root, twist + 1)
        if bock_flag:
            return ring.zero()
        if s > e:
            return ring.zero()
        c = math.comb(e, s) % ctx.p
        if c == 0:
            return ring.zero()
        if e - s > 0 and twist + 1 >= r:
            return ring.zero()
        out = ring.const(c)
        if s:
            out = out * ring.var(gen.name) ** (ctx.p * s)
        if e - s:
            out = out * page.var("x", root, twist + 1) ** (e - s)
        return out

    def cartan(bock_flag, budget, factors):
        if not factors:
            if budget == 0 and not bock_flag:
                return ring.one()
            return ring.zero()
        (index, e), rest = factors[0], factors[1:]
        parity = (e * ring.variables[index].degree) % 2
        out = ring.zero()
        for s in range(budget + 1):
            plain = on_power(False, s, index, e)
            if bock_flag:
                left = on_power(True, s, index, e)
                if not left.is_zero():
                    out = out + left * cartan(False, budget - s, rest)
                if not plain.is_zero():
                    tail = cartan(True, budget - s, rest)
                    if not tail.is_zero():
                        out = out + plain * tail * (-1 if parity else 1)
            elif not plain.is_zero():
                out = out + plain * cartan(False, budget - s, rest)
        return out

    out = ring.zero()
    for exps, c in f.terms.items():
        factors = tuple((i, e) for i, e in enumerate(exps) if e)
        out = out + cartan(bock, n, factors) * c
    return out


def oracle_first_nonvanishing_differential(page, monomial):
    """The page scan with each factor's contribution multiplied out by hand."""
    p, r = page.ctx.p, page.ctx.r
    for j in range(0, max(r - 1, 0)):
        total = page.ring.zero()
        q = p**j
        for (beta, twist), n in monomial.items():
            if n % q or (n // q) % p == 0:
                continue
            value = transgression_power(page, beta, twist, j)
            if value.is_zero():
                continue
            rest = page.ring.one()
            for (b2, t2), n2 in monomial.items():
                e = n2 - q if (b2, t2) == (beta, twist) else n2
                if e:
                    rest = rest * page.var("x", b2, t2) ** e
            total = total + rest * value * ((n // q) % p)
        if not total.is_zero():
            return j, total
    return None


PAGE_SHAPES = [("A", 2), ("A", 3), ("B", 2)]


@st.composite
def page_classes(draw):
    """(page, class): a sum of up to three random monomials with random
    coefficients on an A2, A3 or B2 page, p in {3, 5}, r in {2, 3}."""
    family, rank = draw(st.sampled_from(PAGE_SHAPES))
    r, p = draw(st.sampled_from((2, 3))), draw(st.sampled_from((3, 5)))
    page = ExtensionPage(model_context(family, rank, i=1, stage=3, r=r, p=p))
    ring = page.ring
    f = ring.zero()
    for _ in range(draw(st.integers(1, 3))):
        exps = [0] * ring.nvars
        for i in draw(st.lists(st.integers(0, ring.nvars - 1), max_size=5)):
            exps[i] = 1 if ring.variables[i].parity == "odd" else exps[i] + 1
        f = f + Poly(ring, {tuple(exps): draw(st.integers(1, p - 1))})
    return page, f


class TestFoldAgainstRecursions:
    """The one fold against the three recursions it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(page_classes())
    def test_operations_and_d2(self, case):
        page, f = case
        p = page.ctx.p
        for n in (0, p, p * p):
            for op in (f"P{n}", f"bP{n}"):
                assert steenrod_apply(page, op, f) == oracle_steenrod_apply(page, op, f), op
        assert d2(page, f) == oracle_d2(page, f)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_scan(self, data):
        family, rank = data.draw(st.sampled_from(PAGE_SHAPES))
        r, p = data.draw(st.sampled_from((2, 3))), data.draw(st.sampled_from((3, 5)))
        page = ExtensionPage(model_context(family, rank, i=1, stage=3, r=r, p=p))
        keys = [(beta, twist) for beta in page.fiber_roots for twist in range(r)]
        mono = data.draw(st.dictionaries(st.sampled_from(keys), st.integers(0, 2 * p), max_size=3))
        assert first_nonvanishing_differential(page, mono) == (
            oracle_first_nonvanishing_differential(page, mono)
        )


# -- the descending-order search that the p-divisibility cut replaced, kept as its oracle --


def oracle_aj_E1_enumerate(roots, r, p, total_degree, target_weight):
    """Names of the first-page monomials, by a search from the largest weight per
    degree down that cuts only on overshoot and on the best weight per degree."""
    ring, _ = aj_page(roots, r, p)
    degrees, weights = ring._degrees, ring._weights
    scale = math.lcm(*degrees)
    order = sorted(range(ring.nvars), key=lambda i: -sum(weights[i]) * scale // degrees[i])
    best = [[(0, 1)] * ring.weight_len]
    for i in reversed(order):
        best.append(
            [
                (w, degrees[i]) if w * den > num * degrees[i] else (num, den)
                for w, (num, den) in zip(weights[i], best[-1])
            ]
        )
    best.reverse()
    found, exps, dead = [], [0] * ring.nvars, set()

    def rec(pos, degree_left, missing):
        if degree_left == 0:
            if not any(missing):
                found.append(ring.monomial_str(exps))
            return not any(missing)
        state = (pos, degree_left, missing)
        if state in dead or pos == len(order) or any(
            m * den > degree_left * num for m, (num, den) in zip(missing, best[pos])
        ):
            return False
        i = order[pos]
        hit = rec(pos + 1, degree_left, missing)
        top = 1 if ring.variables[i].parity == "odd" else degree_left // degrees[i]
        for e in range(1, top + 1):
            missing = tuple(m - w for m, w in zip(missing, weights[i]))
            if any(m < 0 for m in missing):
                break
            exps[i] = e
            hit |= rec(pos + 1, degree_left - e * degrees[i], missing)
        exps[i] = 0
        if not hit:
            dead.add(state)
        return hit

    rec(0, total_degree, tuple(target_weight))
    return sorted(found)


@st.composite
def root_subset_slices(draw):
    """(roots, r, p, degree, weight): a random set of positive roots of A2 or A3, and
    the degree and weight of a random monomial on its page or a random target."""
    rank = draw(st.sampled_from((2, 3)))
    positive = build_root_system("A", rank).positive_roots
    roots = draw(st.lists(st.sampled_from(positive), min_size=1, max_size=4, unique=True))
    r, p = draw(st.sampled_from((1, 2, 3))), draw(st.sampled_from((3, 5)))
    ring, _ = aj_page(roots, r, p)
    if draw(st.booleans()):
        exps = [0] * ring.nvars
        for i in draw(st.lists(st.integers(0, ring.nvars - 1), max_size=6)):
            exps[i] = 1 if ring.variables[i].parity == "odd" else exps[i] + 1
        return roots, r, p, ring.monomial_degree(exps), ring.monomial_weight(exps)
    # mostly unreachable: any degree, any weight, often with a zero coordinate
    coordinate = st.one_of(st.just(0), st.integers(0, 3 * p * p))
    weight = tuple(draw(st.lists(coordinate, min_size=rank, max_size=rank)))
    return roots, r, p, draw(st.integers(0, 12)), weight


def count_search_calls(fn):
    """fn's result, and how often it entered the enumerator's inner search."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename == specseq.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


class TestDivisibilityCut:
    """The search with the y{1} block first and the p-divisibility cut."""

    @settings(max_examples=150, deadline=None)
    @given(root_subset_slices())
    def test_same_monomials_as_the_descending_search(self, case):
        names = [m.name for m in aj_E1_enumerate(*case)]
        assert names == oracle_aj_E1_enumerate(*case)

    @pytest.mark.parametrize(
        "rank, r, p, degree, weight",
        [
            (2, 2, 3, 12, (27, 27)),
            (2, 3, 3, 18, (27, 27)),
            (3, 2, 5, 10, (25, 25, 0)),
            (3, 2, 5, 10, (0, 25, 25)),
            (2, 2, 3, 6, (9, 9)),
            (2, 2, 5, 10, (25, 25)),
            (2, 2, 3, 6, (8, 9)),
            (2, 3, 3, 18, (27, 0)),
        ],
    )
    def test_benchmark_and_criterion_slices(self, rank, r, p, degree, weight):
        roots = first_page_roots("A", rank, r, p)
        names = [m.name for m in aj_E1_enumerate(roots, r, p, degree, weight)]
        assert names == oracle_aj_E1_enumerate(roots, r, p, degree, weight)

    def test_uniqueness_slice_of_a2_r3_searches_at_most_3000_states(self):
        # the descending search entered 6809 states for these 108 monomials
        roots = first_page_roots("A", 2, 3, 3)
        out, calls = count_search_calls(lambda: aj_E1_enumerate(roots, 3, 3, 18, (27, 27)))
        assert len(out) == 108
        assert calls <= 3000

    def test_names_are_computed_once(self):
        out = aj_E1_enumerate([A1, A2, A12], r=2, p=3, total_degree=6, target_weight=(9, 9))
        assert all("name" in vars(m) for m in out)


class TestTransgressionMemo:
    def test_memoised_values_equal_a_fresh_pages(self):
        page, fresh = u4_page(r=3), u4_page(r=3)
        for beta, twist, j in itertools.product(page.fiber_roots, range(3), range(3)):
            first = transgression_power(page, beta, twist, j)
            again = transgression_power(page, beta, twist, j)
            assert again == first == transgression_power(fresh, beta, twist, j)
            assert (again is first) == (twist + 1 + j < 3)


# -- the bracket probe's draws ---------------------------------------------------


def probe_model():
    return grmodel.build_Sbar(model_context("A", 3, i=1, stage=3, r=2, p=3))


def patch_apply_after_certification(monkeypatch, apply):
    """Let ``bracket_p`` certify its map, then replace ``AlgebraMap.apply``."""
    certify = grmodel.bracket_p

    def bracket_p(model):
        bracket = certify(model)
        monkeypatch.setattr(grmodel.AlgebraMap, "apply", apply)
        return bracket

    monkeypatch.setattr(grmodel, "bracket_p", bracket_p)


class TestBracketProbe:
    def test_a_non_multiplicative_map_fails_the_probe(self, monkeypatch):
        real = grmodel.AlgebraMap.apply
        patch_apply_after_certification(
            monkeypatch, lambda self, f: real(self, f) + self.target.ring.one()
        )
        with pytest.raises(CheckFailure, match="multiplicativity"):
            grmodel.bracket_probe(probe_model(), 20, seed=4)

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_draws_the_pairs_of_the_old_loop(self, monkeypatch, seed):
        model, pairs, seen = probe_model(), 25, []
        real = grmodel.AlgebraMap.apply

        def record(self, f):
            seen.append(f)
            return real(self, f)

        patch_apply_after_certification(monkeypatch, record)
        grmodel.bracket_probe(model, pairs, seed)
        # the loop the probe used to run, drawing the same numbers in the same order
        rng = random.Random(seed)
        gens = [model.ring.var(g.name) for g in model.generators]
        expected = []
        for _ in range(pairs):
            f, g = model.ring.one(), model.ring.zero()
            for _ in range(2):
                f = f * rng.choice(gens) ** rng.randint(0, 2)
                g = g + rng.choice(gens) ** rng.randint(0, 2) * rng.randint(1, 2)
            expected += [f * g, f, g]
        assert seen[: 3 * pairs] == expected
