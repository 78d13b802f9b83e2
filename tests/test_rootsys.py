import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkern import rootsys, verify
from frobkern.errors import BudgetError, ConfigError, DomainError
from frobkern.rootsys import (
    ParabolicContext,
    Root,
    build_root_system,
    check_pairing_hypothesis,
    check_scan_budget,
    classical_positive_count,
    classify_root,
    context,
    gamma_roots,
    parse_root,
    roots_of_level,
    summand_pairs,
)


def R(*coeffs):
    return Root(tuple(coeffs))


class TestBuild:
    @pytest.mark.parametrize(
        "family,rank,count",
        [("A", 2, 3), ("A", 3, 6), ("B", 2, 4), ("C", 3, 9), ("D", 4, 12), ("A", 6, 21)],
    )
    def test_classical_counts(self, family, rank, count):
        sys = build_root_system(family, rank)
        assert len(sys.positive_roots) == count
        assert count == classical_positive_count(family, rank)

    def test_a2_roots(self):
        sys = build_root_system("A", 2)
        assert set(sys.positive_roots) == {R(1, 0), R(0, 1), R(1, 1)}

    def test_all_coefficients_nonnegative(self):
        for family, rank in [("A", 4), ("B", 3), ("C", 4), ("D", 5)]:
            for beta in build_root_system(family, rank).positive_roots:
                assert beta.is_positive()

    def test_order_respects_addition(self):
        sys = build_root_system("A", 4)
        roots = set(sys.positive_roots)
        for a in roots:
            for b in roots:
                if a + b in roots:
                    assert a < a + b and b < a + b

    @pytest.mark.parametrize("family,rank", [("E", 6), ("A", 0), ("D", 2), ("G", 2)])
    def test_bad_type_rejected(self, family, rank):
        with pytest.raises(ConfigError):
            build_root_system(family, rank)

    def test_b2_table(self):
        sys = build_root_system("B", 2)
        assert set(sys.positive_roots) == {R(1, 0), R(0, 1), R(1, 1), R(1, 2)}

    def test_highest_root_d4(self):
        sys = build_root_system("D", 4)
        assert R(1, 2, 1, 1) in set(sys.positive_roots)


class TestClassify:
    def test_empty_j_level_equals_height(self):
        ctx = context("A", 2)
        lc = classify_root(R(1, 1), ctx)
        assert (lc.height, lc.level, lc.shape) == (2, 2, R(1, 1))

    def test_b2_with_levi(self):
        ctx = context("B", 2, {"a1"})
        lc = classify_root(R(1, 1), ctx)
        assert lc.level == 1
        assert lc.shape == R(0, 1)

    def test_a3_highest(self):
        ctx = context("A", 3)
        assert classify_root(R(1, 1, 1), ctx).level == 3

    def test_levi_root_rejected(self):
        ctx = context("A", 3, {"a1"})
        with pytest.raises(DomainError):
            classify_root(R(1, 0, 0), ctx)

    def test_non_root_rejected(self):
        with pytest.raises(DomainError):
            classify_root(R(2, 0), context("A", 2))


class TestGamma:
    def test_a2_level2(self):
        assert gamma_roots(context("A", 2), 2) == (R(1, 1),)

    def test_a3_levels(self):
        ctx = context("A", 3)
        assert gamma_roots(ctx, 2) == (R(1, 1, 0), R(0, 1, 1), R(1, 1, 1))
        assert gamma_roots(ctx, 3) == (R(1, 1, 1),)

    def test_filtration_is_decreasing(self):
        ctx = context("B", 3, {"a2"})
        prev = set(gamma_roots(ctx, 1))
        for v in range(2, 8):
            cur = set(gamma_roots(ctx, v))
            assert cur <= prev
            prev = cur

    def test_layer_counts_sum_to_radical(self):
        ctx = context("A", 4, {"a2"})
        total = sum(len(roots_of_level(ctx, v)) for v in range(1, ctx.max_level() + 1))
        assert total == len(ctx.radical_roots())

    def test_layers_group_by_shape(self):
        # each level-v layer is partitioned by shape, matching the product of
        # root subgroups layer description
        ctx = context("A", 4, {"a2", "a3"})
        for v in range(1, ctx.max_level() + 1):
            layer = roots_of_level(ctx, v)
            by_shape = {}
            for b in layer:
                by_shape.setdefault(ctx.shape(b), []).append(b)
            assert sum(len(v_) for v_ in by_shape.values()) == len(layer)


class TestSummandPairs:
    def test_a2_single_pair(self):
        assert summand_pairs(R(1, 1), context("A", 2)) == [(R(1, 0), R(0, 1))]

    def test_a3_highest_two_pairs(self):
        pairs = summand_pairs(R(1, 1, 1), context("A", 3))
        assert pairs == [(R(1, 0, 0), R(0, 1, 1)), (R(1, 1, 0), R(0, 0, 1))]

    def test_level_one_root_has_none(self):
        assert summand_pairs(R(0, 1, 0), context("A", 3)) == []

    def test_levels_add(self):
        ctx = context("A", 5, {"a3"})
        for v in range(2, ctx.max_level() + 1):
            for beta in roots_of_level(ctx, v):
                for a, b in summand_pairs(beta, ctx):
                    assert ctx.level(a) + ctx.level(b) == v

    def test_duplicate_free_and_sorted(self):
        ctx = context("A", 5)
        for beta in ctx.radical_roots():
            pairs = summand_pairs(beta, ctx)
            assert len(set(pairs)) == len(pairs)
            assert pairs == sorted(pairs, key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()))
            for a, b in pairs:
                assert a < b

    def test_min_level_restriction(self):
        ctx = context("A", 3)
        # inside Gamma_2 the level-3 root has no decomposition into two
        # level->=2 roots
        assert summand_pairs(R(1, 1, 1), ctx, min_level=2) == []

    def test_storage_order_irrelevant(self):
        from frobkern.rootsys import ParabolicContext, RootSystemData

        sys = build_root_system("A", 4)
        rev = RootSystemData(
            sys.family, sys.rank, sys.simple_roots, tuple(reversed(sys.positive_roots))
        )
        for beta in [R(1, 1, 0, 0), R(1, 1, 1, 0), R(1, 1, 1, 1)]:
            assert summand_pairs(beta, ParabolicContext(sys)) == summand_pairs(
                beta, ParabolicContext(rev)
            )


class TestPairingHypothesis:
    @pytest.mark.parametrize("rank", [2, 3, 6])
    def test_empty_j_holds(self, rank):
        report = check_pairing_hypothesis(context("A", rank), 3)
        assert report.ok
        # oracle: with J empty every level-2 root (i, i+2) splits only at the
        # middle node
        for _, n, _ in report.per_root:
            assert n == 1

    def test_a6_exhaustive_pair_enumeration(self):
        ctx = context("A", 6)
        report = check_pairing_hypothesis(ctx, 3)
        assert report.ok and not report.witnesses

    def test_interior_levi_counterexample(self):
        # beta = a1+a2+a3+a4 with J = {a2,a3} has three disjoint level-(1,1)
        # decompositions, so 2p = 6 distinct roots exist at p = 3
        ctx = context("A", 4, {"a2", "a3"})
        report = check_pairing_hypothesis(ctx, 3)
        assert not report.ok
        (beta, flat) = report.witnesses[0]
        assert beta == R(1, 1, 1, 1)
        assert len(set(flat)) == 6

    @pytest.mark.parametrize("p", [9, 15, 1, 4])
    def test_p_must_be_an_odd_prime(self, p):
        # 9 and 15 are odd but composite: the scan must not run "at p = 9"
        with pytest.raises(ConfigError, match=f"p must be an odd prime, got {p}"):
            check_pairing_hypothesis(context("A", 4, {"a2", "a3"}), p)

    def test_witness_pairs_sum_to_root(self):
        ctx = context("A", 5, {"a2", "a3"})
        report = check_pairing_hypothesis(ctx, 3)
        for beta, flat in report.witnesses:
            for i in range(0, len(flat), 2):
                assert flat[i] + flat[i + 1] == beta


class TestParsing:
    def test_labels_round_trip(self):
        for coeffs in [(1, 0, 0), (1, 1, 0), (1, 2, 1)]:
            r = Root(coeffs)
            assert parse_root(r.label(), 3) == r

    def test_coefficient_form(self):
        assert parse_root("0,1,1", 3) == R(0, 1, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.data(),
)
def test_shape_plus_levi_part_reconstructs(rank, data):
    labels = [f"a{i}" for i in range(1, rank + 1)]
    J = frozenset(data.draw(st.sets(st.sampled_from(labels), max_size=rank - 1)))
    ctx = context("A", rank, J)
    for beta in ctx.radical_roots():
        shape = ctx.shape(beta)
        levi_part = beta - shape
        assert all(
            c == 0 for lab, c in zip(labels, levi_part.coeffs) if lab not in J
        )
        assert shape + levi_part == beta


# -- the cached tables against a brute-force scan ------------------------------


def brute_tables(system, J):
    """Levels, layers and every decomposition, read off the coefficients."""
    labels = system.simple_roots
    roots = system.positive_roots

    def level(beta):
        return sum(c for c, lab in zip(beta.coeffs, labels) if lab not in J)

    def sums_to(a, b, beta):
        return all(x + y == z for x, y, z in zip(a.coeffs, b.coeffs, beta.coeffs))

    radical = [b for b in roots if level(b) >= 1]
    ordered = sorted(radical, key=Root.sort_key)
    pairs = {
        beta: [(a, b) for a in roots for b in roots if a < b and sums_to(a, b, beta)]
        for beta in roots
    }
    return level, radical, ordered, pairs


SYSTEMS = (
    [("A", n) for n in range(1, 7)]
    + [(f, n) for f in "BC" for n in (2, 3, 4)]
    + [("D", n) for n in (3, 4, 5)]
)


@pytest.mark.parametrize("family,rank", SYSTEMS, ids=[f"{f}{n}" for f, n in SYSTEMS])
def test_tables_match_a_brute_force_scan(family, rank):
    system = build_root_system(family, rank)
    labels = system.simple_roots
    for size in range(rank + 1):
        for J in itertools.combinations(labels, size):
            ctx = context(family, rank, J)
            level, radical, ordered, pairs = brute_tables(system, frozenset(J))
            assert ctx.radical_roots() == tuple(radical)
            for beta in system.positive_roots:
                assert ctx.level(beta) == level(beta)
            for v in range(1, 2 * rank + 2):
                assert gamma_roots(ctx, v) == tuple(b for b in ordered if level(b) >= v)
                assert roots_of_level(ctx, v) == tuple(b for b in ordered if level(b) == v)
            for beta in system.positive_roots:
                for min_level in (1, 2, 3):
                    assert summand_pairs(beta, ctx, min_level) == [
                        (a, b)
                        for a, b in sorted(pairs[beta], key=lambda ab: ab[0].sort_key())
                        if min(level(a), level(b)) >= min_level
                    ]
            for p in (3, 5):
                per_root, witnesses = [], []
                for beta in (b for b in ordered if level(b) == 2):
                    split = [(a, b) for a, b in pairs[beta] if level(a) == level(b) == 1]
                    split.sort(key=lambda ab: ab[0].sort_key())
                    per_root.append((beta, len(split), len(split) < p))
                    if len(split) >= p:
                        witnesses.append((beta, tuple(itertools.chain(*split[:p]))))
                report = check_pairing_hypothesis(ctx, p)
                assert report.per_root == tuple(per_root)
                assert report.witnesses == tuple(witnesses)
                assert report.ok == (not witnesses)


def test_returned_pairs_do_not_reach_the_memo():
    beta = R(1, 1, 1, 1)
    ctx = context("A", 4, {"a1"})  # a1 lies in the Levi, so a1 + (a2+a3+a4) drops
    want = [(R(1, 1, 0, 0), R(0, 0, 1, 1)), (R(1, 1, 1, 0), R(0, 0, 0, 1))]
    pairs = summand_pairs(beta, ctx)
    assert pairs == want
    pairs.clear()
    assert summand_pairs(beta, ctx) == want
    assert summand_pairs(beta, context("A", 4, ("a1",))) == want
    # a second context object on the same (cached) root system
    assert summand_pairs(beta, ParabolicContext(ctx.system, frozenset({"a1"}))) == want
    full = [(R(1, 0, 0, 0), R(0, 1, 1, 1))] + want  # nothing filtered with J empty
    pairs = summand_pairs(beta, context("A", 4))
    assert pairs == full
    pairs.clear()
    assert summand_pairs(beta, context("A", 4)) == full
    assert summand_pairs(beta, ctx) == want


def test_a_vector_outside_the_table():
    ctx = context("A", 2, {"a1"})
    beta = R(2, 2)  # not a positive root: its level is computed, not looked up
    assert ctx.level(beta) == 2
    with pytest.raises(DomainError, match="not a positive root"):
        summand_pairs(beta, ctx)
    with pytest.raises(DomainError, match="not a positive root"):
        classify_root(beta, ctx)


def test_the_pairing_scan_sizes_each_context_once():
    # criterion 10a checks 126 contexts at p = 3 and p = 5
    verify._pairing_scan.cache_clear()
    rootsys._level2_count.cache_clear()
    contexts, _ = verify._pairing_scan()
    assert contexts == 252
    assert rootsys._level2_count.cache_info().misses == 126


def test_scan_budget_counts_without_building_a_table():
    check_scan_budget("A", 60)  # 59 x 1830 x 60 = 6.5 M, under the default
    with pytest.raises(BudgetError, match="149 level-2 roots"):
        check_scan_budget("A", 150)
    # with J every simple root there is nothing to scan, only the table
    check_scan_budget("A", 150, [f"a{k}" for k in range(1, 151)])
    with pytest.raises(BudgetError, match="positive-root table"):
        check_scan_budget("A", 1000)
    with pytest.raises(BudgetError, match="budget 9"):
        check_pairing_hypothesis(context("A", 3), 3, budget=9)  # 2 x 6 x 3 = 36
