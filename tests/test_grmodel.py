import contextlib
import functools
import hashlib
import io
import itertools
import json
import pathlib
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobkern.cli import run
from frobkern.errors import CheckFailure, ConfigError, DomainError
from frobkern.grmodel import (
    AlgebraMap,
    ModelGenerator,
    PairingHypothesisWarning,
    Presentation,
    bracket_p,
    bracket_probe,
    build_Q,
    build_relation_ideal,
    build_S_star,
    build_Sbar,
    in_bracket_image,
    iterated_bracket,
    model_context,
    s2_relation,
    theta_degree_U3,
    theta_power_identities,
    theta_substitution,
    top_free_factor,
    vr_coordinate_algebra,
)
from frobkern.polyalg import VariableDescriptor, graded_dimension, normal_form
from frobkern.rootsys import (
    Root, check_pairing_hypothesis, context, roots_of_level, summand_pairs
)
from frobkern.specseq import ExtensionPage

A1, A2, A12 = Root((1, 0)), Root((0, 1)), Root((1, 1))


def u3(r=2, p=3):
    return model_context("A", 2, i=1, stage=3, r=r, p=p)


def u4_mod_g3(r=2, p=3):
    return model_context("A", 3, i=1, stage=3, r=r, p=p)


def u4_full(r=2, p=5):
    return model_context("A", 3, i=1, stage=4, r=r, p=p)


class TestGenerators:
    def test_model_generator_degrees_and_weights(self):
        x = ModelGenerator("x", A12, 0, 3)
        y = ModelGenerator("y", A12, 1, 3)
        assert (x.degree, x.weight()) == (2, (3, 3))
        assert (y.degree, y.weight()) == (1, (3, 3))
        assert (x.scale, y.scale) == (3, 3)
        assert x.descriptor() == VariableDescriptor("x[a1+a2](0)", "even", 2, (3, 3))
        assert y.descriptor("y") == VariableDescriptor("y", "odd", 1, (3, 3))

    def test_u3_r2_ambient(self):
        pres = build_S_star(u3())
        names = [v.name for v in pres.ring.variables]
        assert sorted(names) == sorted(
            [
                "x[a1](0)", "x[a2](0)", "x[a1](1)", "x[a2](1)",
                "w[a1+a2](0)", "w[a1+a2](1)",
            ]
        )
        by_name = {v.name: v for v in pres.ring.variables}
        assert by_name["x[a1](0)"].degree == 2
        assert by_name["x[a1](0)"].weight == (3, 0)
        assert by_name["x[a1](1)"].weight == (9, 0)
        # (x_beta^{(0)})^p has degree 2p and weight p^2 beta
        assert by_name["w[a1+a2](0)"].degree == 6
        assert by_name["w[a1+a2](0)"].weight == (9, 9)
        assert by_name["w[a1+a2](1)"].degree == 2
        assert by_name["w[a1+a2](1)"].weight == (9, 9)

    def test_r1_power_generators_trivialise(self):
        pres = build_S_star(u3(r=1))
        by_name = {v.name: v for v in pres.ring.variables}
        assert set(by_name) == {"x[a1](0)", "x[a2](0)", "w[a1+a2](0)"}
        assert by_name["w[a1+a2](0)"].degree == 2

    def test_deep_stage_slice(self):
        # Gamma_2/Gamma_4 of A3 at r=1: only the three roots of level >= 2
        pres = build_S_star(model_context("A", 3, i=2, stage=4, r=1, p=3))
        assert {v.name for v in pres.ring.variables} == {
            "w[a1+a2](0)", "w[a2+a3](0)", "w[a1+a2+a3](0)",
        }

    def test_invalid_ranges(self):
        with pytest.raises(DomainError):
            model_context("A", 2, i=3, stage=3, r=2, p=3)
        with pytest.raises(DomainError):
            model_context("A", 2, i=1, stage=3, r=0, p=3)


class TestRelationIdeal:
    def test_u3_r2_single_relation(self):
        ctx = u3()
        pres = build_S_star(ctx)
        rels = build_relation_ideal(pres)
        expected = (
            pres.var("x", A1, 0) ** 3 * pres.var("x", A2, 1)
            - pres.var("x", A2, 0) ** 3 * pres.var("x", A1, 1)
        )
        assert len(rels) == 1
        assert rels[0] == expected

    def test_u3_r1_empty(self):
        assert build_relation_ideal(build_S_star(u3(r=1))) == []

    def test_u4_mod_g3_two_instances(self):
        rels = build_relation_ideal(build_S_star(u4_mod_g3()))
        assert len(rels) == 2
        for rel in rels:
            assert len(rel.terms) == 2  # single summand pair each

    def test_u3_r3_families_and_dedup(self):
        ctx = u3(r=3)
        pres = build_S_star(ctx)
        rels = build_relation_ideal(pres)
        # level-2 instances (l,j) in {(0,0),(0,1),(1,0)}; commutation instances
        # coincide with those except at (l,l') = (0,1), which is the cube of
        # the (0,0) instance
        assert len(rels) == 4
        assert s2_relation(pres, A12, 0, 0) ** 3 in rels

    def test_relations_are_weight_eigenvectors(self):
        for ctx in [u3(r=3), u4_mod_g3(r=2), u4_full(r=2)]:
            sbar = build_Sbar(ctx)
            for rel in sbar.relations:
                assert rel.homogeneous_degree() is not None
                assert rel.uniform_weight() is not None

    def test_pairing_warning(self):
        ctx = model_context("A", 4, J={"a2", "a3"}, i=1, stage=3, r=2, p=3)
        with pytest.warns(PairingHypothesisWarning):
            build_relation_ideal(build_S_star(ctx))

    @pytest.mark.parametrize("family, rank, J, failing", [
        ("A", 4, ("a2", "a3"), ["a1+a2+a3+a4"]),
        ("A", 5, ("a1", "a3", "a4"), ["a2+a3+a4+a5", "a1+a2+a3+a4+a5"]),
        ("B", 4, ("a1", "a2", "a4"), ["a2+2a3+2a4", "a1+a2+2a3+2a4", "a1+2a2+2a3+2a4"]),
    ])
    def test_pairing_warnings_name_each_failing_root(self, family, rank, J, failing):
        ctx = model_context(family, rank, J=J, i=1, stage=3, r=2, p=3)
        report = check_pairing_hypothesis(ctx.parabolic(), 3)
        assert [b.label() for b, _, ok in report.per_root if not ok] == failing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_relation_ideal(build_S_star(ctx))
        j = ",".join(J)
        assert [(w.category, str(w.message), w.filename) for w in caught] == [
            (
                PairingHypothesisWarning,
                f"{family}{rank} J={j} Gamma1/Gamma3 r=2 p=3: root {root} has 3 "
                "decompositions (>= p); the uniqueness hypothesis fails",
                __file__,
            )
            for root in failing
        ]


@st.composite
def model_contexts(draw):
    """A model context of type A-D with random J, i, stage, r and p."""
    family, rank = draw(st.sampled_from(
        [("A", n) for n in range(1, 6)]
        + [(f, n) for f in "BC" for n in (2, 3, 4)]
        + [("D", 4), ("D", 5)]
    ))
    labels = [f"a{k}" for k in range(1, rank + 1)]
    J = draw(st.sets(st.sampled_from(labels), max_size=rank - 1))
    top = context(family, rank, J).max_level()
    i = draw(st.integers(1, top))
    stage = draw(st.integers(i + 1, top + 1))
    r, p = draw(st.integers(1, 3)), draw(st.sampled_from([3, 5]))
    return model_context(family, rank, J=J, i=i, stage=stage, r=r, p=p)


@settings(max_examples=80, deadline=None)
@given(model_contexts())
def test_context_roots_and_pairs_are_the_level_tables(ctx):
    pctx = ctx.parabolic()
    by_level = [root for v in range(ctx.i, ctx.stage) for root in roots_of_level(pctx, v)]
    assert ctx.roots() == tuple(by_level)
    radical = pctx.radical_roots()
    for beta in pctx.system.positive_roots:
        pairs = ctx.pairs(beta)
        assert pairs == summand_pairs(beta, pctx, min_level=ctx.i)
        assert set(pairs) == {
            (a, b)
            for a in radical
            for b in radical
            if a < b and a + b == beta and min(pctx.level(a), pctx.level(b)) >= ctx.i
        }


def independent_principal_dim(degree):
    """S*(5 gens of degree 2, 1 gen of degree 6)/(one degree-8 relation).

    In a domain the multiples of a single homogeneous relation in degree d
    form a space of dimension = #monomials in degree d-8.
    """

    def monomial_count(d):
        if d < 0:
            return 0
        count = 0
        for w0 in range(d // 6 + 1):
            rest = d - 6 * w0
            if rest % 2 == 0:
                k = rest // 2  # multisets of size k from 5 degree-2 generators
                count += len(list(itertools.combinations_with_replacement(range(5), k)))
        return count

    return monomial_count(degree) - monomial_count(degree - 8)


class TestSbarAndQ:
    def test_hilbert_frozen_values(self):
        sbar = build_Sbar(u3())
        dims = {d: sbar.graded_dimension(d) for d in range(0, 11, 2)}
        assert dims == {0: 1, 2: 5, 4: 15, 6: 36, 8: 74, 10: 136}

    def test_hilbert_against_independent_oracle(self):
        sbar = build_Sbar(u3())
        for d in range(0, 13, 2):
            assert sbar.graded_dimension(d) == independent_principal_dim(d)

    def test_splitting_convolution_by_degree(self):
        ctx = u3()
        sbar, q, top = build_Sbar(ctx), build_Q(ctx), top_free_factor(ctx)
        for d in range(0, 11):
            conv = sum(
                q.graded_dimension(a) * graded_dimension(top, d - a)
                for a in range(d + 1)
            )
            assert sbar.graded_dimension(d) == conv

    def test_splitting_convolution_by_weight(self):
        ctx = u3()
        sbar, q, top = build_Sbar(ctx), build_Q(ctx), top_free_factor(ctx)
        probes = [
            (2, (3, 0)), (2, (9, 9)), (4, (9, 9)), (4, (12, 0)), (6, (9, 9)),
            (6, (12, 3)), (8, (18, 18)), (8, (12, 12)), (6, (18, 18)),
        ]
        for d, w in probes:
            lhs = sbar.graded_dimension(d, weight=w)
            rhs = 0
            for a in range(d + 1):
                for w1 in itertools.product(range(w[0] + 1), range(w[1] + 1)):
                    dq = q.graded_dimension(a, weight=w1)
                    if dq:
                        w2 = (w[0] - w1[0], w[1] - w1[1])
                        rhs += dq * graded_dimension(top, d - a, weight=w2)
            assert lhs == rhs

    def test_empty_top_level_collapses(self):
        # stage 4 on A2: no level-3 roots, so Sbar and Q agree
        ctx = model_context("A", 2, i=1, stage=4, r=2, p=3)
        sbar, q = build_Sbar(ctx), build_Q(ctx)
        assert {v.name for v in sbar.ring.variables} == {
            v.name for v in q.ring.variables
        }
        assert sbar.relations == q.relations

    def test_q_of_u3_same_relations(self):
        q = build_Q(u3())
        assert len(q.relations) == 1
        assert {v.name for v in q.ring.variables} == {
            "x[a1](0)", "x[a2](0)", "x[a1](1)", "x[a2](1)",
        }

    def test_relation_reduces_against_own_ideal(self):
        sbar = build_Sbar(u3())
        gb = sbar.ideal().groebner()
        for rel in sbar.relations:
            assert normal_form(rel, gb).is_zero()

    def test_json_round_trip_keys(self):
        doc = build_Sbar(u3()).to_json_dict()
        assert doc["schema_version"] == 1
        assert len(doc["generators"]) == 6
        assert doc["relations"][0]["terms"]
        gen = {g["name"]: g for g in doc["generators"]}
        assert gen["w[a1+a2](0)"]["weight"] == {"a1": 9, "a2": 9}
        assert gen["w[a1+a2](0)"]["display"] == "(x[a1+a2](0))^p^1"


class TestCoordinateAlgebra:
    def test_u3_r2(self):
        coord = vr_coordinate_algebra(u3())
        assert {v.name for v in coord.ring.variables} == {
            "X[a1](0)", "X[a1](1)", "X[a2](0)", "X[a2](1)",
            "X[a1+a2](0)", "X[a1+a2](1)",
        }
        assert len(coord.relations) == 1
        rel = coord.relations[0]
        X = functools.partial(coord.var, "X")
        expected = X(A1, 0) * X(A2, 1) - X(A1, 1) * X(A2, 0)
        assert rel == expected

    def test_u3_r1_affine_space(self):
        assert vr_coordinate_algebra(u3(r=1)).relations == ()

    def test_u4_mod_g3_consecutive_chains_only(self):
        coord = vr_coordinate_algebra(u4_mod_g3())
        assert len(coord.relations) == 2
        names = {
            coord.ring.variables[i].name
            for rel in coord.relations
            for exps in rel.terms
            for i, e in enumerate(exps)
            if e
        }
        # relations only involve the level-1 chain coordinates
        assert all(name.startswith("X[a") and "+" not in name for name in names)

    def test_p_smaller_than_class_rejected(self):
        with pytest.raises(ConfigError):
            vr_coordinate_algebra(model_context("A", 3, i=1, stage=4, r=2, p=3))

    def test_quotient_lowers_requirement(self):
        # U4/Gamma_3 only needs p >= 3
        assert vr_coordinate_algebra(u4_mod_g3(p=3))

    def test_type_restriction(self):
        with pytest.raises(ConfigError):
            vr_coordinate_algebra(model_context("B", 2, i=1, stage=3, r=1, p=5))


class TestTheta:
    def test_u3_r2_image_is_relation(self):
        ctx = u3()
        theta = theta_substitution(ctx)
        ids = theta_power_identities(theta)
        assert len(ids) == 1
        assert ids[0].power == 0 and ids[0].sign == 1

    def test_power_exponents(self):
        ctx = u3(r=3)
        ids = theta_power_identities(theta_substitution(ctx))
        by_pair = {(i.twist, i.twist2): i.power for i in ids}
        assert by_pair == {(0, 1): 1, (0, 2): 0, (1, 2): 0}

    def test_r1_identity_renaming(self):
        theta = theta_substitution(u3(r=1))
        for name, img in theta.images.items():
            assert len(img.terms) == 1 and set(img.terms.values()) == {1}
            assert all(sum(e) == 1 for e in img.terms)

    def test_pr1_powers_in_image(self):
        ctx = u3()
        theta = theta_substitution(ctx)
        sbar, coord = theta.target, theta.source
        p, r = ctx.p, ctx.r
        for alpha in [A1, A2]:
            for twist in range(r):
                lhs = sbar.var("x", alpha, twist) ** (p ** (r - 1))
                rhs = theta.apply(coord.var("X", alpha, twist)) ** (p**twist)
                assert lhs == rhs

    @pytest.mark.parametrize(
        "family,rank,stage,r,p",
        [
            ("A", 2, 3, 1, 3), ("A", 2, 3, 2, 3), ("A", 2, 3, 3, 3),
            ("A", 2, 3, 1, 5), ("A", 2, 3, 2, 5), ("A", 2, 3, 3, 5),
            ("A", 3, 4, 1, 5), ("A", 3, 4, 2, 5),
            ("A", 3, 3, 2, 3), ("A", 4, 3, 2, 3),
        ],
    )
    def test_well_definedness_matrix(self, family, rank, stage, r, p):
        ctx = model_context(family, rank, i=1, stage=stage, r=r, p=p)
        theta = theta_substitution(ctx)  # raises CheckFailure on any failure
        theta_power_identities(theta)

    def test_groebner_reduction_small(self):
        # on the Heisenberg quotient the certificate agrees with a true
        # Groebner normal form
        theta = theta_substitution(u3())
        basis = theta.target.ideal().groebner()
        for _, image in theta.relation_images():
            assert normal_form(image, basis).is_zero()


class TestThetaDegree:
    @pytest.mark.parametrize("r,p,expected", [(1, 3, 1), (2, 3, 9), (3, 3, 243), (2, 5, 25)])
    def test_degree_values(self, r, p, expected):
        assert theta_degree_U3(r, p) == expected

    def test_formula_only_mode(self):
        assert theta_degree_U3(4, 3) == 3**9


class TestBracket:
    def test_generator_images(self):
        ctx = u3()
        bracket = bracket_p(build_Sbar(ctx))
        target = bracket.target
        assert bracket.apply(build_Sbar(ctx).var("x", A1, 1)).is_zero()
        assert bracket.apply(build_Sbar(ctx).var("w", A12, 1)).is_zero()
        assert bracket.apply(build_Sbar(ctx).var("x", A1, 0)) == target.var("x", A1, 0)
        # (x_b^{(0)})^{p^{r-1}} restricts to ((x_b^{(0)})^{p^{r-2}})^p
        assert bracket.apply(build_Sbar(ctx).var("w", A12, 0)) == target.var("w", A12, 0) ** 3

    def test_r1_rejected(self):
        with pytest.raises(DomainError):
            bracket_p(build_Sbar(u3(r=1)))

    def test_relations_map_into_smaller_ideal(self):
        for ctx in [u3(r=3), u4_mod_g3(r=2), u4_full(r=2)]:
            bracket = bracket_p(build_Sbar(ctx))  # validates by certificate
            for _, image in bracket.relation_images():
                assert normal_form(image, bracket.target.relations).is_zero()

    def test_multiplicative(self):
        import random

        ctx = u3()
        model = build_Sbar(ctx)
        bracket = bracket_p(model)
        rng = random.Random(7)
        gens = [model.ring.var(v.name) for v in model.ring.variables]
        for _ in range(30):
            f = sum(
                (rng.choice(gens) ** rng.randint(0, 2) * rng.randint(1, 2)
                 for _ in range(2)),
                model.ring.one(),
            )
            g = sum(
                (rng.choice(gens) ** rng.randint(0, 2) * rng.randint(1, 2)
                 for _ in range(2)),
                model.ring.zero(),
            )
            assert bracket.apply(f * g) == bracket.apply(f) * bracket.apply(g)

    def test_top_level_collapse(self):
        # a top-level generator of degree d < p^s is never hit by the s-fold
        # composite
        ctx = u3()
        model = build_Sbar(ctx)
        for s in (1, 2):
            for name in model.top_generators():
                g = model.ring.var(name)
                d = model.ring.descriptor(name).degree
                if d < ctx.p**s:
                    assert not in_bracket_image(model, g, s)
            # p^s-th powers are hit
            assert in_bracket_image(model, model.var("w", A12, 0) ** (ctx.p**s), s)
            assert in_bracket_image(model, model.var("x", A1, 0) ** 2, s)

    def test_probe_scans_degrees_below_p_powers(self):
        # at p = 5 the top generators have degrees 10 (twist 0) and 2 (twist 1)
        misses = bracket_probe(build_Sbar(u3(p=5)), 5, seed=0)
        assert misses == [
            ("w[a1+a2](1)", 2, 1),
            ("w[a1+a2](0)", 10, 2),
            ("w[a1+a2](1)", 2, 2),
        ]

    def test_iterated_bracket_composition(self):
        ctx = u3(r=3)
        model = build_Sbar(ctx)
        composite = iterated_bracket(model, 2)
        target = composite.target
        assert target.ctx.r == 1
        assert composite.apply(model.var("w", A12, 0)) == target.var("w", A12, 0) ** 9
        assert composite.apply(model.var("x", A1, 2)).is_zero()


def random_polys(ring, seed, count=25):
    """Seeded polynomials of up to 4 terms, exponents up to p + 1."""
    rng = random.Random(seed)
    names = [v.name for v in ring.variables]

    def term():
        support = rng.sample(names, rng.randint(0, 3))
        exps = {name: rng.randint(1, ring.p + 1) for name in support}
        return ring.monomial(exps, rng.randint(1, ring.p - 1))

    for _ in range(count):
        yield sum((term() for _ in range(rng.randint(0, 4))), ring.zero())


def substitute(algebra_map, f):
    """f with every variable x replaced by images[x]: the sum of
    c * prod images[x]**e over its terms, by repeated multiplication."""
    source, target = algebra_map.source.ring, algebra_map.target.ring
    out = target.zero()
    for exps, coeff in f.terms.items():
        term = target.const(coeff)
        for var, e in zip(source.variables, exps):
            for _ in range(e):
                term = term * algebra_map.images[var.name]
        out = out + term
    return out


#: (map, rank of A, r, p); theta needs p >= min(N, stage), so p = 5 on A3
ORACLE_MAPS = [
    ("theta", 2, 2, 3),
    ("theta", 2, 3, 3),
    ("theta", 3, 2, 5),
    *[("bracket", rank, r, p) for rank in (2, 3) for r in (2, 3) for p in (3, 5)],
]


class TestAlgebraMapOracle:
    """apply against the substitution written out by Poly arithmetic."""

    @pytest.mark.parametrize("kind,rank,r,p", ORACLE_MAPS)
    def test_apply_is_the_substitution(self, kind, rank, r, p):
        ctx = model_context("A", rank, r=r, p=p)
        if kind == "theta":
            algebra_map = theta_substitution(ctx)
        else:
            algebra_map = bracket_p(build_Sbar(ctx))
        for f in random_polys(algebra_map.source.ring, f"{kind} A{rank} r={r} p={p}"):
            assert algebra_map.apply(f) == substitute(algebra_map, f)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_iterated_bracket_is_two_steps(self, rank):
        model = build_Sbar(model_context("A", rank, r=3, p=3))
        composite = iterated_bracket(model, 2)
        first = bracket_p(model)
        second = bracket_p(first.target)
        assert isinstance(composite, AlgebraMap)
        assert composite.target.ctx.r == 1
        for f in random_polys(model.ring, f"iterated A{rank} r=3 p=3"):
            image = composite.apply(f)
            assert image == second.apply(first.apply(f))
            assert image == substitute(composite, f)

    def test_image_coefficients_multiply(self):
        # theta and bracket_p send generators to monic terms; scale them
        theta = theta_substitution(u3(r=3))
        images = {name: image.scale(2) for name, image in theta.images.items()}
        scaled = AlgebraMap(theta.source, theta.target, images)
        for f in random_polys(theta.source.ring, "scaled theta"):
            assert scaled.apply(f) == substitute(scaled, f)

    def test_two_term_image_rejected(self):
        theta = theta_substitution(u3())
        images = dict(theta.images)
        images["X[a1](0)"] = images["X[a1](0)"] + images["X[a2](0)"]
        with pytest.raises(DomainError, match="one term of the target"):
            AlgebraMap(theta.source, theta.target, images)

    def test_exterior_target_rejected(self):
        ctx = u3(r=1)
        page = ExtensionPage(ctx)
        source = build_S_star(ctx)
        images = {g.name: page.var("x", g.root, g.twist) for g in source.generators}
        with pytest.raises(DomainError, match="exterior"):
            AlgebraMap(source, page, images)


#: the benchmark's pinned exit codes and payload digests, by job
REFERENCE_JOBS = json.loads(
    (pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
)["jobs"]
MODEL_JOBS = ("model build", "model theta-check", "model bracket-check")


@pytest.mark.parametrize("key", [k for k in REFERENCE_JOBS if k.startswith(MODEL_JOBS)])
def test_model_payload_matches_reference(key):
    # the bracket probes draw from the seed, but the payload records none of them
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(key.replace("{seed}", "1").split()) == REFERENCE_JOBS[key]["exit"]
    payload = json.loads(out.getvalue())["payload"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REFERENCE_JOBS[key]["digest"]


def generator_rings(ctx):
    """(name, presentation, expected (kind, root, twist) set) for every ring
    built on generator records over ``ctx``."""
    pctx = ctx.parabolic()
    by_level = {}
    for beta in pctx.radical_roots():
        by_level.setdefault(pctx.level(beta), []).append(beta)

    def classes(kind, levels):
        return {
            (kind, beta, l)
            for v in levels
            for beta in by_level.get(v, ())
            for l in range(ctx.r)
        }

    def model(top):
        xs = classes("x", [1]) if ctx.i == 1 else set()
        return xs | classes("w", range(max(ctx.i, 2), top))

    for name, build, top in (
        ("S*", build_S_star, ctx.stage),
        ("Sbar", build_Sbar, ctx.stage),
        ("Q", build_Q, ctx.top_level),
    ):
        yield name, build(ctx), model(top)
    levels = range(ctx.i, ctx.stage)
    if ctx.family == "A" and ctx.i == 1 and ctx.p >= min(ctx.rank + 1, ctx.stage):
        yield "coord", vr_coordinate_algebra(ctx), classes("X", levels)
    if ctx.top_level >= 2:
        yield "page", ExtensionPage(ctx), classes("x", levels) | classes("y", levels)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize(
    "family,rank", [("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4)]
)
def test_generator_records_describe_their_rings(family, rank, p):
    for i, r in itertools.product((1, 2), (1, 2, 3)):
        ctx = model_context(family, rank, i=i, r=r, p=p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PairingHypothesisWarning)
            rings = list(generator_rings(ctx))
        for name, pres, expected in rings:
            ring, gens = pres.ring, pres.generators
            where = f"{name} of {ctx.label()}"
            assert isinstance(pres, Presentation), where
            assert [g.descriptor() for g in gens] == list(ring.variables), where
            assert {(g.kind, g.root, g.twist) for g in gens} == expected, where
            assert len(gens) == len(expected), where
            for g in gens:
                beta, l = g.root.coeffs, g.twist
                if g.kind == "x":
                    degree, scale = 2, p ** (l + 1)
                elif g.kind == "y":
                    degree, scale = 1, p**l
                else:  # w or X: (x[beta](l))^{p^{r-l-1}}
                    assert g.power == r - l - 1, where
                    degree, scale = 2 * p ** (r - l - 1), p**r
                assert g.degree == degree, (where, g)
                # the one lookup of every ring finds the class's own variable
                assert pres.var(g.kind, g.root, g.twist) == ring.var(g.name), (where, g)
                assert g.weight() == tuple(scale * c for c in beta), (where, g)
                if g.kind == "w" and g.power:
                    label = g.root.label()
                    assert g.display() == f"(x[{label}]({l}))^p^{g.power}", where
