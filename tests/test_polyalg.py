import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkern.errors import (
    BudgetError,
    ConfigError,
    DomainError,
    UnsupportedOperationError,
)
from frobkern.grmodel import AlgebraMap
from frobkern.pointcount import GF, _cover
from frobkern.polyalg import (
    IdealPresentation,
    Poly,
    PolyRing,
    VariableDescriptor,
    buchberger,
    count_points,
    graded_dimension,
    is_prime,
    normal_form,
    prime_power,
    _s_poly,
)
from ring_helpers import from_terms, plain_ring, table_count


@pytest.fixture
def mixed_ring():
    return PolyRing(
        3,
        [
            VariableDescriptor("x1", "even", 2, (1, 0)),
            VariableDescriptor("x2", "even", 2, (0, 1)),
            VariableDescriptor("y1", "odd", 1, (1, 0)),
            VariableDescriptor("y2", "odd", 1, (0, 1)),
        ],
    )


class TestArithmetic:
    def test_odd_square_vanishes(self, mixed_ring):
        y = mixed_ring.var("y1")
        assert (y * y).is_zero()

    def test_sign_rule(self, mixed_ring):
        y1, y2 = mixed_ring.var("y1"), mixed_ring.var("y2")
        assert y1 * y2 == -(y2 * y1)
        assert not (y1 * y2).is_zero()

    def test_f3_difference_of_squares(self):
        ring = plain_ring(3, ["x"])
        x = ring.var("x")
        assert (x + 1) * (x - 1) == x * x - 1

    def test_even_commutes_with_odd(self, mixed_ring):
        x, y = mixed_ring.var("x1"), mixed_ring.var("y2")
        assert x * y == y * x

    def test_mismatched_rings_rejected(self, mixed_ring):
        other = plain_ring(3, ["x1"])
        with pytest.raises(DomainError):
            mixed_ring.var("x1") * other.var("x1")

    def test_exterior_exponent_rejected(self, mixed_ring):
        with pytest.raises(DomainError):
            mixed_ring.monomial({"y1": 2})

    def test_char_two_rejected(self):
        with pytest.raises(ConfigError):
            plain_ring(2, ["x"])

    def test_homogeneity_queries(self, mixed_ring):
        x1, y1 = mixed_ring.var("x1"), mixed_ring.var("y1")
        assert (x1 * y1).homogeneous_degree() == 3
        assert (x1 + y1).homogeneous_degree() is None
        assert (x1 * y1).uniform_weight() == (2, 0)


def monomials(ring, max_exp=3):
    evens = [v.name for v in ring.variables if v.parity == "even"]
    odds = [v.name for v in ring.variables if v.parity == "odd"]
    return st.builds(
        lambda coeff, ee, oo: ring.monomial(
            {**{n: e for n, e in zip(evens, ee)}, **{n: o for n, o in zip(odds, oo)}},
            coeff,
        ),
        st.integers(1, ring.p - 1),
        st.tuples(*[st.integers(0, max_exp)] * len(evens)),
        st.tuples(*[st.integers(0, 1)] * len(odds)),
    )


def polys(ring):
    return st.lists(monomials(ring), min_size=0, max_size=4).map(
        lambda ms: sum(ms, ring.zero())
    )


RING = PolyRing(
    3,
    [
        VariableDescriptor("x1", "even", 2, (1, 0)),
        VariableDescriptor("x2", "even", 2, (0, 1)),
        VariableDescriptor("y1", "odd", 1, (1, 0)),
        VariableDescriptor("y2", "odd", 1, (0, 1)),
    ],
)


class TestRingLaws:
    @settings(max_examples=80, deadline=None)
    @given(polys(RING), polys(RING), polys(RING))
    def test_associative_and_distributive(self, f, g, h):
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=80, deadline=None)
    @given(monomials(RING), monomials(RING))
    def test_graded_commutativity(self, f, g):
        df, dg = f.homogeneous_degree(), g.homogeneous_degree()
        sign = -1 if (df % 2) and (dg % 2) else 1
        assert f * g == (g * f).scale(sign)

    @settings(max_examples=60, deadline=None)
    @given(polys(RING), polys(RING))
    def test_frobenius_additive_on_even_subring(self, f, g):
        fe = sum(
            (RING.monomial({"x1": e[0], "x2": e[1]}, c) for e, c in f.terms.items()
             if not e[2] and not e[3]),
            RING.zero(),
        )
        ge = sum(
            (RING.monomial({"x1": e[0], "x2": e[1]}, c) for e, c in g.terms.items()
             if not e[2] and not e[3]),
            RING.zero(),
        )
        assert (fe + ge) ** 3 == fe**3 + ge**3

    @settings(max_examples=80, deadline=None)
    @given(monomials(RING), monomials(RING))
    def test_weight_additivity(self, f, g):
        prod = f * g
        if not prod.is_zero():
            assert prod.uniform_weight() == tuple(
                a + b for a, b in zip(f.uniform_weight(), g.uniform_weight())
            )

    @settings(max_examples=120, deadline=None)
    @given(monomials(RING), st.integers(0, 6))
    def test_single_term_power_is_repeated_product(self, f, n):
        product = RING.one()
        for _ in range(n):
            product = product * f
        assert f**n == product

    @settings(max_examples=100, deadline=None)
    @given(st.lists(monomials(RING), max_size=8).map(lambda ms: sum(ms, RING.zero())))
    def test_monomials_in_degrevlex_order(self, f):
        def old_order_key(exps):  # degrevlex on raw exponents, max is the lead
            return (sum(exps), tuple(-x for x in reversed(exps)))

        assert f.monomials() == sorted(f.terms, key=old_order_key, reverse=True)
        if f.terms:
            assert f.monomials()[0] == f.leading()[0]

    def test_single_term_power_edge_cases(self):
        x1, y1 = RING.var("x1"), RING.var("y1")
        for f in (y1, x1 * y1, RING.const(2), x1.scale(2)):
            assert f**0 == RING.one()
            assert f**1 == f
        assert (x1 * y1) ** 2 == 0 and y1**3 == 0
        assert x1.scale(2) ** 3 == RING.monomial({"x1": 3}, 8)


class TestIdealPresentation:
    def test_relation_must_be_degree_homogeneous(self, mixed_ring):
        x1 = mixed_ring.var("x1")
        with pytest.raises(DomainError, match="not degree-homogeneous"):
            IdealPresentation(mixed_ring, [x1 * x1 - x1])

    def test_relation_must_be_a_weight_eigenvector(self, mixed_ring):
        x1, x2 = mixed_ring.var("x1"), mixed_ring.var("x2")
        with pytest.raises(DomainError, match="not a T-weight eigenvector"):
            IdealPresentation(mixed_ring, [x1 - x2])


class TestBuchberger:
    def test_principal(self):
        ring = plain_ring(3, ["x"])
        gb = buchberger(IdealPresentation(ring, [ring.var("x")]))
        assert gb.basis == (ring.var("x"),)

    def test_zero_ideal(self):
        ring = plain_ring(3, ["x"])
        gb = buchberger(IdealPresentation(ring, [ring.zero()]))
        assert gb.basis == ()

    def test_hand_run_oracle(self):
        # hand Buchberger run over F_3, degrevlex x > y:
        #   S(xy-1, y^2-x) -> x^2 - y; all further S-polynomials reduce to 0
        ring = plain_ring(3, ["x", "y"])
        x, y = ring.var("x"), ring.var("y")
        gb = buchberger(IdealPresentation(ring, [x * y - 1, y * y - x]))
        assert set(gb.basis) == {x * y - 1, y * y - x, x * x - y}
        # x^3 = 1 in the quotient
        assert normal_form(x**3, gb) == ring.one()

    def test_all_s_polynomials_reduce(self):
        ring = plain_ring(3, ["x", "y"])
        x, y = ring.var("x"), ring.var("y")
        gb = buchberger(IdealPresentation(ring, [x * y - 1, y * y - x]))
        for i, f in enumerate(gb.basis):
            for g in gb.basis[i + 1 :]:
                assert normal_form(Poly(ring, _s_poly(f, g)), gb).is_zero()

    def test_idempotent_on_own_output(self):
        ring = plain_ring(3, ["x", "y"])
        x, y = ring.var("x"), ring.var("y")
        gb = buchberger(IdealPresentation(ring, [x * y - 1, y * y - x]))
        again = buchberger(IdealPresentation(ring, list(gb.basis)))
        assert again.basis == gb.basis

    def test_odd_variables_rejected(self):
        ring = PolyRing(3, [VariableDescriptor("y", "odd", 1)])
        with pytest.raises(UnsupportedOperationError):
            buchberger(IdealPresentation(ring, [ring.var("y")]))

    def test_s_poly_membership(self):
        # every generator reduces to zero against the basis
        ring = plain_ring(5, ["a", "b", "c"])
        a, b, c = (ring.var(n) for n in "abc")
        rels = [a * b - c * c, b * b - a, a * c - b]
        gb = buchberger(IdealPresentation(ring, rels))
        for r in rels:
            assert normal_form(r, gb).is_zero()


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        ring = plain_ring(3, ["x", "y"])
        x, y = ring.var("x"), ring.var("y")
        ideal = IdealPresentation(ring, [x * y - 1, y * y - x])
        gb = ideal.groebner()
        member = (x * y - 1) * (x + y) + (y * y - x) * x
        assert normal_form(member, gb).is_zero()

    def test_unit_survives_proper_ideal(self):
        ring = plain_ring(3, ["x", "y"])
        gb = buchberger(IdealPresentation(ring, [ring.var("x")]))
        assert normal_form(ring.one(), gb) == ring.one()

    def test_idempotent(self):
        ring = plain_ring(3, ["x", "y"])
        x, y = ring.var("x"), ring.var("y")
        gb = buchberger(IdealPresentation(ring, [x * x - y]))
        f = x**4 + x * y + 1
        once = normal_form(f, gb)
        assert normal_form(once, gb) == once
        assert normal_form(f - once, gb).is_zero()


class TestGradedDimension:
    def test_degree_zero(self):
        ring = PolyRing(3, [VariableDescriptor("x", "even", 2)])
        pres = IdealPresentation(ring, [])
        assert graded_dimension(pres, 0) == 1

    def test_polynomial_ring_dimensions(self):
        ring = PolyRing(
            3,
            [VariableDescriptor("x", "even", 2), VariableDescriptor("y", "odd", 1)],
        )
        pres = IdealPresentation(ring, [])
        # degree d: x^k (2k = d) and x^k*y (2k+1 = d)
        assert [graded_dimension(pres, d) for d in range(5)] == [1, 1, 1, 1, 1]

    def test_weight_filter(self):
        ring = PolyRing(
            3,
            [
                VariableDescriptor("x1", "even", 2, (1, 0)),
                VariableDescriptor("x2", "even", 2, (0, 1)),
            ],
        )
        pres = IdealPresentation(ring, [])
        assert graded_dimension(pres, 4, weight=(1, 1)) == 1
        assert graded_dimension(pres, 4, weight=(2, 0)) == 1
        assert graded_dimension(pres, 4, weight=(3, 0)) == 0

    def test_convolution_over_disjoint_union(self):
        r1 = PolyRing(3, [VariableDescriptor("x", "even", 2)])
        r2 = PolyRing(
            3,
            [VariableDescriptor("u", "even", 2), VariableDescriptor("v", "even", 4)],
        )
        combined = PolyRing(
            3,
            [
                VariableDescriptor("x", "even", 2),
                VariableDescriptor("u", "even", 2),
                VariableDescriptor("v", "even", 4),
            ],
        )
        x = r1.var("x")
        u = r2.var("u")
        cx, cu = combined.var("x"), combined.var("u")
        p1 = IdealPresentation(r1, [x * x])
        p2 = IdealPresentation(r2, [u * u * u])
        pc = IdealPresentation(combined, [cx * cx, cu * cu * cu])
        for d in range(0, 11, 2):
            conv = sum(
                graded_dimension(p1, a) * graded_dimension(p2, d - a)
                for a in range(0, d + 1, 2)
            )
            assert graded_dimension(pc, d) == conv

    def test_budget(self):
        ring = PolyRing(3, [VariableDescriptor("x", "even", 2)])
        with pytest.raises(BudgetError):
            graded_dimension(IdealPresentation(ring, []), 50)


def brute_force_count(relations, nvars, q):
    """Independent pure-python oracle for tiny systems."""
    count = 0
    for point in itertools.product(range(q), repeat=nvars):
        ok = True
        for rel in relations:
            total = 0
            for exps, coeff in rel.terms.items():
                v = coeff
                for i, e in enumerate(exps):
                    v *= point[i] ** e
                total += v
            if total % q:
                ok = False
                break
        if ok:
            count += 1
    return count


def assert_is_cover(relations, cover):
    for rel in relations:
        for exps in rel.terms:
            rest = [e for i, e in enumerate(exps) if e and i not in cover]
            assert rest in ([], [1]), (rel, cover)


@st.composite
def small_systems(draw):
    """Even systems over F_3 or F_5: squares, constants, and affine fibres
    that can be inconsistent (a*b - 1 has none where a = 0)."""
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 4))
    ring = plain_ring(p, [f"x{i}" for i in range(n)])
    exps = st.lists(st.integers(0, 2), min_size=n, max_size=n)
    rels = draw(
        st.lists(
            st.lists(st.tuples(st.integers(1, p - 1), exps), min_size=1, max_size=4),
            min_size=1,
            max_size=3,
        )
    )
    relations = [
        from_terms(ring, ((c, {f"x{i}": e for i, e in enumerate(ex)}) for c, ex in rel))
        for rel in rels
    ]
    return ring, relations


class TestCountPoints:
    @settings(max_examples=60, deadline=None)
    @given(small_systems())
    def test_matches_enumeration_oracles(self, drawn):
        ring, relations = drawn
        system = IdealPresentation(ring, relations)
        assert_is_cover(system.relations, _cover(system.relations)[0])
        q = ring.p
        assert count_points(system, q) == brute_force_count(relations, ring.nvars, q)
        if q == 3:
            terms = [r.terms for r in relations]
            assert count_points(system, 9) == table_count(terms, ring.nvars, GF(9))

    @pytest.mark.parametrize(
        "build, counts",
        [
            # a = 0 leaves the inconsistent fibre 0*b = 1; c is free
            (lambda a, b, c: [a * b - 1], {3: 6, 5: 20, 9: 72}),
            (lambda a, b, c: [a * b - 1, a * c], {3: 2, 5: 4, 9: 8}),
            # 2ab = 1 and c = b
            (lambda a, b, c: [a * b + a * c - 1, b - c], {3: 2, 5: 4, 9: 8}),
            # c(a + b) = -1
            (lambda a, b, c: [a * c + b * c + 1], {3: 6, 5: 20, 9: 72}),
        ],
        ids=["ab-1", "ab-1,ac", "ab+ac-1,b-c", "ac+bc+1"],
    )
    def test_affine_fibres(self, build, counts):
        for q, want in counts.items():
            ring = plain_ring(GF(q).p, ["a", "b", "c"])
            rels = build(*(ring.var(n) for n in "abc"))
            assert count_points(IdealPresentation(ring, rels), q) == want
            assert table_count([r.terms for r in rels], 3, GF(q)) == want

    def test_cover_is_deterministic(self):
        # two 2x2 minor chains a-b-c over twists 0, 1 and a square in d
        ring = plain_ring(3, ["a0", "b0", "c0", "a1", "b1", "c1", "d", "e"])
        v = {n: ring.var(n) for n in ("a0", "b0", "c0", "a1", "b1", "c1", "d", "e")}
        rels = [
            v["a0"] * v["b1"] - v["a1"] * v["b0"],
            v["b0"] * v["c1"] - v["b1"] * v["c0"],
            v["d"] ** 2 * v["e"] - 1,
        ]
        cover, unknowns = _cover(rels)
        assert cover == [1, 4, 6]  # b0, b1 and the squared d
        assert unknowns == [0, 2, 3, 5, 7]
        assert _cover(list(rels)) == (cover, unknowns)
        assert_is_cover(rels, cover)

    def test_rank_one_matrices(self):
        ring = plain_ring(3, ["a0", "a1", "b0", "b1"])
        rel = ring.var("a0") * ring.var("b1") - ring.var("a1") * ring.var("b0")
        system = IdealPresentation(ring, [rel])
        assert count_points(system, 3) == 33
        assert brute_force_count([rel], 4, 3) == 33

    def test_empty_system(self):
        ring = plain_ring(3, ["x", "y", "z"])
        assert count_points(IdealPresentation(ring, []), 3) == 27
        assert count_points(IdealPresentation(ring, []), 9) == 729

    def test_single_variable(self):
        ring = plain_ring(3, ["x"])
        assert count_points(IdealPresentation(ring, [ring.var("x")]), 3) == 1

    def test_product_law_disjoint_union(self):
        ring = plain_ring(3, ["a", "b", "c", "d"])
        a, b, c, d = (ring.var(n) for n in "abcd")
        left = IdealPresentation(plain_ring(3, ["a", "b"]), [])
        both = IdealPresentation(ring, [a * b - 1, c * d])
        only_ab = IdealPresentation(plain_ring(3, ["a", "b"]),
                                    [plain_ring(3, ["a", "b"]).var("a")
                                     * plain_ring(3, ["a", "b"]).var("b") - 1])
        only_cd = IdealPresentation(plain_ring(3, ["c", "d"]),
                                    [plain_ring(3, ["c", "d"]).var("c")
                                     * plain_ring(3, ["c", "d"]).var("d")])
        assert count_points(both, 3) == count_points(only_ab, 3) * count_points(only_cd, 3)
        assert count_points(left, 3) == 9

    def test_extension_field(self):
        # x^2 + 1 has two roots in F_9 (9 = 1 mod 4) and none in F_3
        ring = plain_ring(3, ["x"])
        sq = IdealPresentation(ring, [ring.var("x") ** 2 + 1])
        assert _cover(sq.relations) == ([0], [])  # every variable enumerated
        assert count_points(sq, 3) == 0
        assert count_points(sq, 9) == 2

    def test_wrong_characteristic(self):
        ring = plain_ring(3, ["x"])
        with pytest.raises(ConfigError):
            count_points(IdealPresentation(ring, []), 5)

    def test_budget(self):
        ring = plain_ring(3, [f"x{i}" for i in range(8)])
        with pytest.raises(BudgetError):
            count_points(IdealPresentation(ring, []), 3, max_assignments=100)

    def test_budget_before_field_tables(self, monkeypatch):
        # a refused q never builds its q x q tables
        def no_tables(self, q, char=None):
            raise AssertionError("field tables built before the budget check")

        monkeypatch.setattr(GF, "__init__", no_tables)
        ring = plain_ring(1_000_003, ["x"])
        with pytest.raises(BudgetError):
            count_points(IdealPresentation(ring, []), 1_000_003, max_assignments=10**6)
        with pytest.raises(ConfigError):  # the characteristic is checked first
            count_points(IdealPresentation(ring, []), 3**13, max_assignments=10)

    def test_chunking_consistent(self):
        ring = plain_ring(3, ["a", "b", "c"])
        rel = ring.var("a") * ring.var("b") - ring.var("c")
        system = IdealPresentation(ring, [rel])
        assert count_points(system, 3, chunk=4) == count_points(system, 3)
        assert count_points(system, 3) == brute_force_count([rel], 3, 3)


class TestGF:
    def test_field_axioms_f9(self):
        gf = GF(9)
        import numpy as np

        idx = np.arange(9)
        # additive group: 0 is neutral, every row is a permutation
        assert (gf.add_table[0] == idx).all()
        for a in range(9):
            assert sorted(gf.add_table[a]) == list(range(9))
        # multiplicative group of nonzero elements
        assert (gf.mul_table[1] == idx).all()
        for a in range(1, 9):
            row = sorted(gf.mul_table[a][i] for i in range(1, 9))
            assert row == list(range(1, 9))

    @pytest.mark.parametrize("q", [3, 9, 25, 27])
    def test_field_axioms_by_gather(self, q):
        import numpy as np

        gf = GF(q)
        add, mul = gf.add_table, gf.mul_table
        idx = np.arange(q)
        a, b, c = np.ix_(idx, idx, idx)
        assert (add[add[a, b], c] == add[a, add[b, c]]).all()
        assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
        assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
        assert (add == add.T).all() and (mul == mul.T).all()
        assert (add[0] == idx).all() and (mul[1] == idx).all() and not mul[0].any()
        assert not add[idx, gf.neg_table].any()
        assert (mul[idx[1:], gf.inv_table[1:]] == 1).all()
        # index c < p is the constant c
        const = np.arange(gf.p)
        s, t = np.ix_(const, const)
        assert (add[s, t] == (s + t) % gf.p).all()
        assert (mul[s, t] == s * t % gf.p).all()

    def test_frobenius_fixed_field(self):
        import numpy as np

        gf = GF(25)
        fixed = [a for a in range(25) if gf.pow_vec(np.array([a]), 5)[0] == a]
        assert sorted(fixed) == [0, 1, 2, 3, 4]

    def test_not_prime_power(self):
        with pytest.raises(ConfigError):
            GF(6)


def _trial_prime_power(q):
    """(p, k) with q = p^k by trial division up to sqrt(q), or None."""
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k, m = 0, q
    while m % p == 0:
        m, k = m // p, k + 1
    return (p, k) if m == 1 else None


class TestPrimePower:
    """q is split by integer roots, and the root is tested by Miller-Rabin."""

    #: the bound below which the first 13 primes decide primality
    BOUND = 3_317_044_064_679_887_385_961_981

    @pytest.mark.parametrize("start, count", [(2, 20_000), (1 << 32, 200)])
    def test_agrees_with_trial_division(self, start, count):
        for q in range(start, start + count):
            assert is_prime(q) == (_trial_prime_power(q) == (q, 1)), q
            try:
                got = prime_power(q)
            except ConfigError:
                got = None
            assert got == _trial_prime_power(q), q

    def test_every_small_prime_power_below_the_bound(self):
        primes = [p for p in range(2, 100) if _trial_prime_power(p) == (p, 1)]
        for p in primes:
            k = 1
            while p**k < self.BOUND:
                assert prime_power(p**k) == (p, k)
                k += 1

    def test_strong_pseudoprimes_are_composite(self):
        # strong pseudoprimes to every prime base up to 37, but not to 41
        for n in (3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)
            with pytest.raises(ConfigError, match="is not a prime power"):
                prime_power(n)
        assert is_prime(10**24 + 7) and is_prime(2**61 - 1)
        assert prime_power(999999999989**2) == (999999999989, 2)


def test_repr_marks_only_a_cut_variable_list():
    # the ellipsis stands for the variables past the first four, never after a label
    names = [f"x{i}" for i in range(6)]
    assert repr(plain_ring(3, names)) == "PolyRing(F3; x0,x1,x2,x3...)"
    assert repr(plain_ring(3, names, label="E2(A3)")) == "PolyRing(F3; E2(A3))"
    assert repr(plain_ring(5, names[:4])) == "PolyRing(F5; x0,x1,x2,x3)"


# -- every producer returns canonical terms ------------------------------------------


def assert_canonical(ring, terms):
    """Every coefficient in 1..p-1, so the checked constructor changes nothing."""
    assert all(type(c) is int and 0 < c < ring.p for c in terms.values()), terms
    assert Poly(ring, dict(terms)).terms == terms


@st.composite
def canonical_cases(draw):
    """(ring, f, g, k): a ring over F_3, F_5 or F_7, with or without exterior
    variables; two elements built by the checked constructor from coefficients
    of either sign, some of them multiples of p; and an integer that may be one."""
    p = draw(st.sampled_from([3, 5, 7]))
    variables = [
        VariableDescriptor("x1", "even", 2, (1, 0)),
        VariableDescriptor("x2", "even", 2, (0, 1)),
    ]
    if draw(st.booleans()):
        variables += [
            VariableDescriptor("y1", "odd", 1, (1, 0)),
            VariableDescriptor("y2", "odd", 1, (0, 1)),
        ]
    ring = PolyRing(p, variables)
    odd = len(variables) - 2
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), *[st.integers(0, 1)] * odd)
    coeffs = st.integers(-3 * p, 3 * p)
    poly = st.dictionaries(exps, coeffs, max_size=5).map(lambda t: Poly(ring, t))
    k = draw(coeffs | st.sampled_from([0, p, -p, 2 * p]))
    return ring, draw(poly), draw(poly), k


def even_part(f):
    return Poly(f.ring, {e: c for e, c in f.terms.items() if not any(e[2:])})


@settings(max_examples=150, deadline=None)
@given(canonical_cases())
def test_every_producer_returns_canonical_terms(case):
    ring, f, g, k = case
    names = [v.name for v in ring.variables]
    term = ring.monomial({names[0]: 1, names[-1]: 1}, k)
    results = [
        f + g, f - g, f - f, f + f.scale(ring.p - 1), f + k, k + f, f - k, -f,
        f * g, f * k, k * f, f * ring.p, f.scale(k), f.monic() if f else f,
        f**2, f**3, term, term**2, term**ring.p, ring.const(k), ring.zero(),
    ]
    fe, ge = even_part(f), even_part(g)
    results += [normal_form(fe, [ge]), normal_form(fe, [ge, fe + ring.one()])]
    for h in [f, g, *results]:
        assert_canonical(ring, h.terms)
    if fe and ge:
        assert_canonical(ring, _s_poly(fe, ge))
        if mixed := fe.scale(2) + ge:
            assert_canonical(ring, _s_poly(fe, mixed))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_groebner_bases_and_algebra_maps_return_canonical_terms(p, data):
    # the engine's S-polynomials and remainders, in a degree-0 ring where
    # every relation is homogeneous
    ring = plain_ring(p, ["a", "b"])
    poly = st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-p, 2 * p), max_size=4
    ).map(lambda t: Poly(ring, t))
    for h in buchberger(IdealPresentation(ring, data.draw(st.lists(poly, max_size=3)))).basis:
        assert_canonical(ring, h.terms)
    # a substitution that sends x1 and x2 to the same term: the images of
    # distinct monomials collide, and their coefficients may cancel mod p
    source = IdealPresentation(RING if p == 3 else PolyRing(p, RING.variables), [])
    term = ring.monomial({"a": data.draw(st.integers(0, 2))}, data.draw(st.integers(1, p - 1)))
    images = {"x1": term, "x2": term, "y1": ring.zero(), "y2": ring.var("b")}
    substitution = AlgebraMap(source, IdealPresentation(ring, []), images)
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1), st.integers(0, 1))
    f = Poly(source.ring, data.draw(st.dictionaries(exps, st.integers(-p, 2 * p), max_size=6)))
    assert_canonical(ring, substitution.apply(f).terms)
    x1, x2 = source.ring.var("x1"), source.ring.var("x2")
    assert_canonical(ring, substitution.apply(x1 - x2 + f).terms)
    assert substitution.apply(x1 - x2).is_zero()
