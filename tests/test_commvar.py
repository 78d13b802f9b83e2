import functools
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkern.commvar import (
    ComponentReport,
    Subdiagram,
    VarietySystem,
    _binding_key,
    component_system,
    conjecture_check,
    dim_estimate,
    subdiagram_components,
    u3_y_closed_form,
    u4_component_counts,
    u4_counts,
    x_variety_system,
    y_variety_system,
)
from frobkern.errors import BudgetError, ConfigError
from frobkern.grmodel import model_context, vr_coordinate_algebra
from frobkern.pointcount import GF, solution_rows
from frobkern.polyalg import DEFAULT_POINT_BUDGET, count_points, prime_power
from ring_helpers import chain_names, chain_relations, chain_ring, table_count


class TestSystems:
    def test_y_shape(self):
        y = y_variety_system(3, 2)
        assert y.nvars == 4 and len(chain_relations(y)) == 1
        y = y_variety_system(4, 2)
        assert y.nvars == 6 and len(chain_relations(y)) == 2
        y = y_variety_system(3, 1)
        assert y.nvars == 2 and len(chain_relations(y)) == 0

    def test_x_system_free_factor(self):
        x = x_variety_system(3, 2)
        assert x.free_rank == 2
        assert x.nvars == 6
        # level-2 coordinates appear in no relation
        used = {name for rel in chain_relations(x) for _, exps in rel for name in exps}
        assert used == {"X[a1](0)", "X[a1](1)", "X[a2](0)", "X[a2](1)"}

    def test_x_system_coefficients_signed(self):
        x = x_variety_system(4, 2)
        coeffs = {c for rel in chain_relations(x) for c, _ in rel}
        assert coeffs == {1, -1}

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            y_variety_system(2, 1)

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_x_system_is_the_coordinate_algebra(self, N):
        # the tests' chain ring of X is grmodel's coordinate algebra of
        # U_N / Gamma_3, term for term
        for r in (1, 2, 3):
            coord = vr_coordinate_algebra(model_context("A", N - 1, stage=3, r=r, p=3))
            x = x_variety_system(N, r)
            assert chain_names(x) == [v.name for v in coord.ring.variables]
            ours = [f.terms for f in chain_ring(x, 3).relations]
            assert ours == [f.terms for f in coord.relations], (N, r)

    def test_a_system_is_its_chain_data(self):
        assert VarietySystem._fields == ("N", "r", "zero", "pairs", "extra")
        x = x_variety_system(4, 2)
        built = VarietySystem(4, 2, pairs=((1, 2), (2, 3)), extra=("a1+a2", "a2+a3"))
        assert x.strata  # the memo changes neither equality nor hash
        assert x == built and hash(x) == hash(built)
        assert x != y_variety_system(4, 2)
        v2, v1 = (component_system(4, 2, d) for d in subdiagram_components(4, 2).members)
        both = VarietySystem(4, 2, zero=(2,), pairs=((1, 2), (1, 3), (2, 3)))
        assert v2.union(v1) == both and hash(v2.union(v1)) == hash(both)

    @pytest.mark.parametrize("N, r, q", [(3, 2, 3), (4, 2, 5), (5, 3, 3), (6, 1, 9)])
    def test_the_budget_bounds_q_to_the_coordinates(self, N, r, q):
        # n counts every coordinate of the chain ring, X's free ones included
        last = subdiagram_components(N, r).members[-1]
        for system in (
            y_variety_system(N, r), x_variety_system(N, r), component_system(N, r, last)
        ):
            n = len(chain_names(system))
            assert system.nvars == n
            assert system.count(q, q**n) == system.count_polynomial(q)
            message = rf"^{q}\^{n} = {q**n} assignments exceed the enumeration budget {q**n - 1}$"
            with pytest.raises(BudgetError, match=message):
                system.count(q, q**n - 1)


class TestU3Counts:
    @pytest.mark.parametrize("q", [3, 5, 9, 27])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_y_counts_match_closed_form(self, q, r):
        # the nominal 27^6 of r = 3 is past the default budget; the cover
        # enumerates only 27^3 assignments
        y = y_variety_system(3, r)
        assert y.count(q, q**y.nvars) == u3_y_closed_form(q, r)

    @pytest.mark.parametrize("q", [3, 5])
    @pytest.mark.parametrize("r", [1, 2])
    def test_full_system_product_law(self, q, r):
        x = x_variety_system(3, r)
        direct = x.count(q)
        assert direct == u3_y_closed_form(q, r) * q ** x.free_rank

    def test_frozen_value_297(self):
        assert x_variety_system(3, 2).count(3) == 297

    def test_dimension_bracketing(self):
        for r in (1, 2, 3):
            for q in (3, 5):
                total = u3_y_closed_form(q, r) * q**r
                assert abs(dim_estimate(total, q) - (2 * r + 1)) <= 0.5


def _u4_systems(r):
    """The four-strand components V1 = a1|a3, V2 = a1-a3 and their intersection."""
    family = subdiagram_components(4, r).members
    systems = {d.label(): component_system(4, r, d) for d in family}
    v1, v2 = systems["a1|a3"], systems["a1-a3"]
    return {"V1": v1, "V2": v2, "V1&V2": v1.union(v2)}


class TestU4Components:
    def test_frozen_counts_q3(self):
        systems = _u4_systems(2)
        y = y_variety_system(4, 2)
        assert y.count(3) == 153
        assert systems["V1"].count(3) == 81
        assert systems["V2"].count(3) == 105
        assert systems["V1&V2"].count(3) == 33
        assert 81 + 105 - 33 == 153

    def test_frozen_counts_q5(self):
        systems = _u4_systems(2)
        assert y_variety_system(4, 2).count(5) == 1225
        assert systems["V1"].count(5) == 625
        assert systems["V2"].count(5) == 745
        assert systems["V1&V2"].count(5) == 145

    def test_component_counts_carry_the_residual(self):
        assert u4_component_counts(2, (3, 5)) == {
            3: {"Y": 153, "V1": 81, "V2": 105, "V1&V2": 33, "residual": 0},
            5: {"Y": 1225, "V1": 625, "V2": 745, "V1&V2": 145, "residual": 0},
        }
        with pytest.raises(BudgetError):
            u4_component_counts(2, (3,), budget=10)

    def test_dim_estimates(self):
        for q, counts in u4_component_counts(2, (3, 5)).items():
            assert abs(dim_estimate(counts["V1"], q) - 4) <= 0.5
            assert abs(dim_estimate(counts["V2"], q) - 4) <= 0.5

    def test_r1_is_irreducible_affine(self):
        # every relation degenerates at r = 1: single component A^3
        y = y_variety_system(4, 1)
        assert y.count(3) == 27
        family = subdiagram_components(4, 1)
        full = component_system(4, 1, family.members[0])
        assert full.count(3) == 27

    def test_intersection_points_satisfy_both(self):
        systems = _u4_systems(2)
        points = {
            label: {tuple(map(int, row)) for row in solution_rows(chain_ring(system, 3), 3)}
            for label, system in systems.items()
        }
        inter, v1, v2 = points["V1&V2"], points["V1"], points["V2"]
        assert inter <= v1 and inter <= v2
        assert inter == v1 & v2

    def test_point_list_spans_chunks(self):
        # 7^6 assignments: the list is assembled from several evaluation chunks
        y = y_variety_system(3, 3)
        rows = solution_rows(chain_ring(y, 7), 7).astype(np.int64)
        assert len(rows) == u3_y_closed_form(7, 3)
        assert np.all(np.diff(rows @ 7 ** np.arange(6)) > 0)  # index order
        col = dict(zip(chain_names(y), rows.T))
        for rel in chain_relations(y):
            value = sum(
                c * np.prod([col[n] ** e for n, e in exps.items()], axis=0) for c, exps in rel
            )
            assert np.all(value % 7 == 0)

    def test_u4_product_law(self):
        x = x_variety_system(4, 2)
        assert x.count(3) == 153 * 3**4


def _family_systems(N, r):
    """The Y system and every component and intersection system of N, r."""
    family = subdiagram_components(N, r)
    systems = {d.label(): component_system(N, r, d) for d in family.members}
    out = {"Y": y_variety_system(N, r)}
    for size in range(1, len(systems) + 1):
        for combo in itertools.combinations(systems, size):
            merged = systems[combo[0]]
            for other in combo[1:]:
                merged = merged.union(systems[other])
            out["&".join(combo)] = merged
    return out


#: counts beyond the point-list budget, frozen from the exhaustive evaluator
FROZEN_COUNTS = {
    ("Y", 6, 2, 5): 69625,
    ("Y", 4, 3, 5): 18725,
    ("a1-a3", 4, 3, 5): 3845,
    ("a1|a3", 4, 3, 5): 15625,
    ("a1-a3&a1|a3", 4, 3, 5): 745,
    ("X", 3, 3, 5): 93125,
}


class TestCountingWorkloadSystems:
    """Every Y, X, component and intersection system that the benchmark's
    counting jobs count within 5^10 assignments, against the exhaustive
    point list (or a frozen count where that list is too long)."""

    @pytest.mark.parametrize(
        "N, r, q, with_x, with_family",
        [
            (6, 2, 3, False, True),
            (5, 2, 5, False, True),
            (6, 2, 5, False, False),
            (4, 3, 5, False, True),
            (4, 3, 3, False, True),
            (3, 3, 5, True, False),
            (3, 2, 9, True, False),
            (3, 2, 27, False, False),
        ],
    )
    def test_count_matches_point_list(self, N, r, q, with_x, with_family):
        systems = _family_systems(N, r) if with_family else {"Y": y_variety_system(N, r)}
        if with_x:
            systems["X"] = x_variety_system(N, r)
        for label, system in systems.items():
            frozen = FROZEN_COUNTS.get((label, N, r, q))
            if frozen is None:
                frozen = len(solution_rows(chain_ring(system, prime_power(q)[0]), q))
            assert system.count(q) == frozen, label


def _oracle_count(system, q):
    return count_points(chain_ring(system, prime_power(q)[0]), q)


#: (N, r, q) with N <= 6, r <= 3 and q <= 5 whose q^n points the pure-python
#: table count walks in about a second
SMALL_CHAINS = [
    (N, r, q)
    for N in range(3, 7)
    for r in (1, 2, 3)
    for q in (2, 3, 4, 5)
    if q ** ((N - 1) * r) <= 1 << 16
]


def _term_maps(system):
    """The signed relations as maps exponent vector -> coefficient."""
    names = chain_names(system)
    return [
        {tuple(factors.get(v, 0) for v in names): c for c, factors in rel}
        for rel in chain_relations(system)
    ]


class TestStrataAgainstTheOracle:
    """The stratified count against the numpy enumerator of ``pointcount``."""

    @pytest.mark.parametrize(
        "N, r",  # 3^15 of N = 6, r = 3 is past the oracle's budget
        [(N, r) for N in (3, 4, 5, 6) for r in (1, 2, 3) if (N, r) != (6, 3)],
    )
    def test_every_family_system(self, N, r):
        # every q of 3, 5, 9 whose nominal q^n the oracle's budget admits
        systems = _family_systems(N, r)
        for q in (q for q in (3, 5, 9) if q ** ((N - 1) * r) <= DEFAULT_POINT_BUDGET):
            for label, system in systems.items():
                assert system.count(q) == _oracle_count(system, q), (label, q)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_chain_conditions(self, data):
        N, r, q = data.draw(st.sampled_from(SMALL_CHAINS))
        nodes = range(1, N)
        zero = data.draw(st.lists(st.sampled_from(nodes), unique=True))
        pairs = data.draw(
            st.lists(st.sampled_from(list(itertools.permutations(nodes, 2))), unique=True)
        )
        system = VarietySystem(N, r, zero=tuple(zero), pairs=tuple(pairs))
        if q % 2:
            assert system.count(q) == _oracle_count(system, q)
        else:  # no ring, hence no count or presentation, has characteristic 2
            want = table_count(_term_maps(system), system.nvars, GF(q))
            assert system.count_polynomial(q) == want
            with pytest.raises(ConfigError, match="p must be an odd prime, got 2"):
                system.count(q)

    @pytest.mark.parametrize("N", [3, 4, 5])
    @pytest.mark.parametrize("r", [1, 2])
    def test_x_against_the_coordinate_algebra(self, N, r):
        # the oracle counts grmodel's ring: this path runs no code of commvar
        x = x_variety_system(N, r)
        counted = []
        for q in (3, 5, 9):
            ctx = model_context("A", N - 1, stage=3, r=r, p=prime_power(q)[0])
            coord = vr_coordinate_algebra(ctx)
            if q**coord.ring.nvars <= DEFAULT_POINT_BUDGET:
                assert x.count(q) == count_points(coord.ideal(), q), q
                counted.append(q)
        assert counted

    def test_unlinked_nodes_are_not_patterned(self):
        # at r = 1 no pair binds, so none of U30's 29 nodes is enumerated;
        # 2^29 zero patterns would take minutes
        assert y_variety_system(30, 1).count(3, 10**20) == 3**29
        assert x_variety_system(30, 1).count(3, 10**30) == 3**57
        # at r = 2, 20 nodes that no pair links beside one pair (1, 2): a
        # rank <= 1 2x2 matrix, 27 + 9 - 3 = 33 points over F_3
        system = VarietySystem(23, 2, pairs=((1, 2),))
        assert system.count(3, 3**44) == 33 * 9**20


def joint_strata(system: VarietySystem) -> Counter:
    """The strata by one joint enumeration of every linked free node, with
    union-find over the pairs; each unlinked free node is zero, or nonzero
    and a class of its own.  The oracle of the per-component enumeration."""
    free = [s for s in range(1, system.N) if s not in system.zero]
    pairs = [(s, t) for s, t in system.pairs if s in free and t in free]
    linked = sorted({s for pair in pairs for s in pair}) if system.r > 1 else []
    index = {s: i for i, s in enumerate(linked)}
    edges = [(index[s], index[t]) for s, t in pairs if s in index]
    out: Counter = Counter()
    for live in range(1 << len(linked)):
        root = list(range(len(linked)))
        k = c = live.bit_count()
        for i, j in edges:
            if live >> i & 1 and live >> j & 1:
                while root[i] != i:
                    i = root[i]
                while root[j] != j:
                    j = root[j]
                if i != j:
                    root[i] = j
                    c -= 1
        out[c, k] += 1
    for _ in range(len(free) - len(linked)):
        out += Counter({(c + 1, k + 1): m for (c, k), m in out.items()})
    return out


class TestStrataByComponent:
    """The strata convolve over the components of the binding pairs."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_systems_against_the_joint_enumeration(self, data):
        N = data.draw(st.integers(3, 9))
        r = data.draw(st.integers(1, 3))
        nodes = range(1, N)
        zero = data.draw(st.lists(st.sampled_from(nodes), unique=True))
        pairs = data.draw(
            st.lists(st.sampled_from(list(itertools.product(nodes, nodes))), unique=True)
        )
        system = VarietySystem(N, r, zero=tuple(zero), pairs=tuple(pairs))
        assert system.strata == joint_strata(system)

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_family_systems_against_the_joint_enumeration(self, N, r):
        for label, system in _family_systems(N, r).items():
            assert system.strata == joint_strata(system), label

    def test_disjoint_pairs_are_enumerated_apart(self):
        # ten disjoint pairs (s, s+1) at N = 21: 10 x 4 patterns, not 2^20;
        # each pair is a rank <= 1 2x2 matrix, 33 points over F_3
        system = VarietySystem(21, 2, pairs=tuple((s, s + 1) for s in range(1, 21, 2)))
        assert system.count(3, 3**40) == 33**10
        assert sum(system.strata.values()) == 2**20


def _newton(values):
    """Forward differences at 0 of the values at 0, 1, 2, ...: the
    polynomial through them has degree d and leading coefficient
    diffs[d] / d! for the last nonzero diffs[d]."""
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return diffs


class TestCountPolynomials:
    """Evidence from the q-independent strata: each count is a polynomial in
    q of degree at most (N - 1) r, so that many plus one values fix it."""

    @pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_the_residual_is_the_zero_polynomial(self, N, r):
        systems = _family_systems(N, r)
        y = systems.pop("Y")
        for q in range(2, (N - 1) * r + 3):
            residual = y.count_polynomial(q) + sum(
                (-1) ** (label.count("&") + 1) * system.count_polynomial(q)
                for label, system in systems.items()
            )
            assert residual == 0, q

    @pytest.mark.parametrize("N", range(3, 10))
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_y_has_the_top_predicted_dimension(self, N, r):
        # Lang-Weil: the degree is the dimension, and the leading coefficient
        # counts the top-dimensional components
        y = y_variety_system(N, r)
        diffs = _newton([y.count_polynomial(q) for q in range((N - 1) * r + 1)])
        degree = max(d for d, v in enumerate(diffs) if v)
        family = subdiagram_components(N, r)
        top = family.max_predicted_dim()
        assert degree == top
        assert diffs[degree] % math.factorial(degree) == 0
        assert diffs[degree] // math.factorial(degree) == sum(
            d.predicted_dim(r) == top for d in family.members
        )


def removal_search(N: int) -> tuple[Subdiagram, ...]:
    """The recursive family by search, the oracle of its closed form: from the
    full path, remove a node whenever that splits off a new component."""
    full = Subdiagram(N, frozenset(range(1, N)))
    found, queue = {full.nodes}, [full]
    while queue:
        diagram = queue.pop()
        for node in sorted(diagram.nodes):
            smaller = Subdiagram(N, diagram.nodes - {node})
            if smaller.components == diagram.components + 1 and smaller.nodes not in found:
                found.add(smaller.nodes)
                queue.append(smaller)
    return tuple(
        sorted(
            (Subdiagram(N, nodes) for nodes in found),
            key=lambda d: (-len(d.nodes), sorted(d.nodes)),
        )
    )


class TestSubdiagrams:
    def test_n3(self):
        family = subdiagram_components(3, 2)
        assert [d.label() for d in family.members] == ["a1-a2"]
        assert family.predicted_dims() == {"a1-a2": 3}  # r + 1 at r = 2

    def test_n4(self):
        family = subdiagram_components(4, 2)
        assert {d.label() for d in family.members} == {"a1-a3", "a1|a3"}
        dims = family.predicted_dims()
        assert dims["a1-a3"] == 4  # r + 2
        assert dims["a1|a3"] == 4  # 2r

    def test_n5(self):
        family = subdiagram_components(5, 2)
        assert {d.label() for d in family.members} == {
            "a1-a4", "a1|a3-a4", "a1-a2|a4",
        }
        dims = family.predicted_dims()
        assert dims["a1-a4"] == 5  # r + 3
        assert dims["a1|a3-a4"] == 5  # 3 + 2(r-1)
        assert dims["a1-a2|a4"] == 5

    def test_n6_has_second_generation(self):
        family = subdiagram_components(6, 2)
        labels = {d.label() for d in family.members}
        assert "a1|a3|a5" in labels
        # every removal step raised the component count by one
        for d in family.members:
            assert d.components == 1 + (5 - len(d.nodes))

    @pytest.mark.parametrize("N", range(3, 15))
    def test_closed_form_is_the_removal_search(self, N):
        assert subdiagram_components(N, 2).members == removal_search(N)

    def test_family_sizes_are_fibonacci(self):
        fib = [0, 1]
        while len(fib) < 40:
            fib.append(fib[-1] + fib[-2])
        for N in range(3, 25):
            assert len(subdiagram_components(N, 1).members) == fib[N - 1]

    def test_family_over_the_budget_is_refused_before_listing(self):
        # F(27) = 196418 members at N = 28; F(39) = 63245986 at N = 40
        with pytest.raises(BudgetError, match=r"F\(27\) = 196418 sub-diagrams"):
            subdiagram_components(28, 1, budget=196417)
        assert len(subdiagram_components(13, 1, budget=144).members) == 144
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=f"63245986 .* budget {DEFAULT_POINT_BUDGET}"):
            subdiagram_components(40, 1)
        assert time.perf_counter() - start < 1.0

    def test_segments(self):
        d = Subdiagram(6, frozenset({1, 3, 4}))
        assert d.segments() == ((1, 1), (3, 4))
        assert d.components == 2


class TestConjecture:
    def test_n4_residual_zero(self):
        report = conjecture_check(4, 2, q_list=(3, 5))
        assert report.residuals == {3: 0, 5: 0}
        # the union over-counts at tiny q and is only reported
        assert report.max_dim_matches()[5] is True
        assert set(report.max_dim_matches()) == {3, 5}

    def test_n5_q3_frozen(self):
        report = conjecture_check(5, 2, q_list=(3,))
        assert report.y_counts[3] == 657
        counts = report.component_counts
        assert counts["a1-a4"][3] == 321
        assert counts["a1|a3-a4"][3] == 297
        assert counts["a1-a2|a4"][3] == 297
        assert report.subset_counts[("a1-a4", "a1|a3-a4")][3] == 105
        assert report.subset_counts[("a1-a4", "a1-a2|a4")][3] == 105
        assert report.subset_counts[("a1-a2|a4", "a1|a3-a4")][3] == 81
        assert report.subset_counts[("a1-a4", "a1-a2|a4", "a1|a3-a4")][3] == 33
        assert report.residuals[3] == 0

    def test_n3_single_component(self):
        report = conjecture_check(3, 2, q_list=(3,))
        assert report.y_counts[3] == u3_y_closed_form(3, 2)
        assert report.residuals[3] == 0

    def test_json(self):
        report = conjecture_check(4, 2, q_list=(3,))
        doc = report.to_json_dict()
        assert doc["conjectural"] is True
        assert doc["residuals"] == {"3": 0}

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            conjecture_check(5, 3, q_list=(5,))

    def test_subsets_over_the_budget_are_refused_before_counting(self):
        # N = 9 has 21 members: 2^21 - 1 subsets, each visiting up to 2^8
        # zero patterns; Y's own 3^8 points fit the budget at r = 1
        start = time.perf_counter()
        with pytest.raises(BudgetError, match=r"2\^21 - 1.* = 536870656 exceed"):
            conjecture_check(9, 1, q_list=(3,))
        assert time.perf_counter() - start < 1.0
        # N = 5: 7 subsets times 16 patterns = 112, above Y's 3^4 = 81 points
        with pytest.raises(BudgetError, match="= 112 exceed the enumeration budget 111"):
            conjecture_check(5, 1, q_list=(3,), max_assignments=111)
        assert conjecture_check(5, 1, q_list=(3,), max_assignments=112).residuals == {3: 0}

    def test_the_default_budget_admits_the_n8_count(self):
        # (2^13 - 1) 2^7 = 1048448 steps; perfbench (N <= 6) and criterion 4
        # (N = 5) ask for less
        report = conjecture_check(8, 2, q_list=(3,))
        assert len(report.family.members) == 13
        assert len(report.subset_counts) == 2**13 - 1 - 13

    def test_repeated_q_is_refused(self):
        # counted twice, q = 3 would subtract every subset twice (residual -657)
        with pytest.raises(ConfigError, match="more than once"):
            conjecture_check(5, 2, q_list=(3, 3))
        with pytest.raises(ConfigError, match="more than once"):
            u4_component_counts(2, iter((3, 5, 3)))
        assert conjecture_check(5, 2, q_list=iter((3, 5))).residuals == {3: 0, 5: 0}


def subset_loop_report(N: int, r: int, q_list) -> ComponentReport:
    """The subset loop of ``conjecture_check`` without its memo: every
    subset's intersection is merged pairwise and counted afresh."""
    q_list = tuple(q_list)
    y_counts = {q: y_variety_system(N, r).count_polynomial(q) for q in q_list}
    family = subdiagram_components(N, r)
    systems = {d.label(): component_system(N, r, d) for d in family.members}
    report = ComponentReport(N, r, q_list, family, y_counts, {}, {}, dict(y_counts))
    for size in range(1, len(systems) + 1):
        for combo in itertools.combinations(systems, size):
            merged = functools.reduce(lambda a, b: a.union(b), map(systems.get, combo))
            counts = {q: merged.count_polynomial(q) for q in q_list}
            if size == 1:
                report.component_counts[combo[0]] = counts
            else:
                report.subset_counts[combo] = counts
            for q in q_list:
                report.residuals[q] += (-1) ** size * counts[q]
    return report


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 8), st.integers(1, 3), st.data())
def test_the_memo_key_is_equal_exactly_when_the_binding_is(N, r, data):
    # subsets of the family and Y, few enough members at small N that
    # distinct subsets often share a binding
    family = subdiagram_components(N, r).members
    pool = [y_variety_system(N, r), *(component_system(N, r, d) for d in family)]
    subsets = data.draw(st.lists(
        st.lists(st.sampled_from(pool), min_size=1, max_size=4), min_size=2, max_size=6
    ))
    keys = [_binding_key(subset, r) for subset in subsets]
    bindings = [functools.reduce(VarietySystem.union, subset).binding for subset in subsets]
    for (k1, b1), (k2, b2) in itertools.combinations(zip(keys, bindings), 2):
        assert (k1 == k2) == (b1 == b2)


class TestIntersectionsCountedOnce:
    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("N", range(3, 9))
    def test_reports_equal_the_subset_loop(self, N, r):
        # a budget that admits Y's nominal q^n at every N, r and q here
        got = conjecture_check(N, r, (3, 5, 9), max_assignments=10**30)
        assert got.to_json_dict() == subset_loop_report(N, r, (3, 5, 9)).to_json_dict()

    def test_each_distinct_intersection_is_counted_once(self, monkeypatch):
        family = subdiagram_components(6, 2)
        systems = [component_system(6, 2, d) for d in family.members]
        bindings = {
            functools.reduce(VarietySystem.union, combo).binding
            for size in range(1, len(systems) + 1)
            for combo in itertools.combinations(systems, size)
        }
        calls = []
        count = VarietySystem.count_polynomial
        monkeypatch.setattr(
            VarietySystem, "count_polynomial",
            lambda system, q: calls.append(system.binding) or count(system, q),
        )
        conjecture_check(6, 2, (3, 5))
        # Y once per q, then each distinct intersection once per q
        assert len(bindings) < 2 ** len(systems) - 1
        assert len(calls) == 2 * (1 + len(bindings))
        assert Counter(calls) == {b: 2 for b in {*bindings, y_variety_system(6, 2).binding}}

    def test_binding_is_what_the_strata_read(self):
        system = VarietySystem(6, 2, zero=(3,), pairs=((4, 5), (1, 2), (2, 3)))
        assert system.binding == ((1, 2, 4, 5), ((1, 2), (4, 5)))
        assert system._replace(r=1).binding == ((1, 2, 4, 5), ())
        same = VarietySystem(6, 2, zero=(3,), pairs=((1, 2), (3, 4), (4, 5)))
        assert same.binding == system.binding
        assert same.count_polynomial(5) == system.count_polynomial(5)

    def test_union_of_several_is_the_pairwise_union(self):
        family = subdiagram_components(6, 2)
        systems = [component_system(6, 2, d) for d in family.members]
        for size in range(1, len(systems) + 1):
            for combo in itertools.combinations(systems, size):
                pairwise = functools.reduce(VarietySystem.union, combo)
                assert combo[0].union(*combo[1:]) == pairwise

    def test_u4_counts_read_the_report(self):
        report = conjecture_check(4, 2, (3, 5))
        assert u4_counts(report) == u4_component_counts(2, (3, 5))
