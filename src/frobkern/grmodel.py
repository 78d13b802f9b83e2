"""Model algebras for Frobenius kernels of unipotent radical quotients.

For a parabolic context and a stage ``m`` of the descending central series
we build the symmetric model on twisted generators:

* level-1 generators ``x[alpha](l)`` of degree 2 and weight p^{l+1} alpha,
  one per twist 0 <= l < r,
* for each root beta of level in [2, m) a designated power generator
  ``w[beta](l)`` standing for (x_beta^{(l)})^{p^{r-l-1}}, of degree
  2 p^{r-l-1} and weight p^r beta.

The shared subalgebra of the defining coproduct (the p^{r-l-1}-th powers of
level-1 generators) is realised by rewriting: powers of the degree-2
generators are used directly instead of extra variables.

Relations come in two families, both summed over the two-term root
decompositions of a root beta:

* commutation instances, one per beta of level <= m-1 and twist pair
  l < l', between the designated powers, and
* the level-2 instances (x_alpha^{(l)})^{p^{j+1}} x_{alpha'}^{(l+1+j)}
  - (x_{alpha'}^{(l)})^{p^{j+1}} x_alpha^{(l+1+j)} for l+1+j < r.

The quotient by these relations is the model Sbar; its sub-presentation on
the levels below the top is Q, and Sbar = Q (x) free top-level part.

The same file holds the coordinate algebra of the commuting-nilpotent
variety of the quotient group (type A), the substitution map theta from it
into Sbar, and the height-lowering map bracket_p used to study restriction
along increasing Frobenius height.
"""

from __future__ import annotations

import itertools
import random
import warnings
from typing import NamedTuple

from .errors import CheckFailure, ConfigError, DomainError
from .polyalg import (
    IdealPresentation,
    Poly,
    PolyRing,
    VariableDescriptor,
    graded_dimension,
    normal_form,
    pair_sum,
)
from .rootsys import (
    ParabolicContext, Root, check_pairing_hypothesis, context, generator_name, roots_of_level,
    summand_pairs,
)


class PairingHypothesisWarning(UserWarning):
    """A level-2 root has >= p two-term decompositions; uniqueness arguments
    downstream are not justified for this context."""


class _GeneratorFields(NamedTuple):
    kind: str  # "x", "w", "X" or "y"
    root: Root
    twist: int
    p: int
    power: int


class ModelGenerator(_GeneratorFields):
    """A generator at twist l: x[beta](l) is even of degree 2 and weight
    p^{l+1} beta, y[beta](l) is odd of degree 1 and weight p^l beta, and a
    power generator w[beta](l) (model) or X[beta](l) (coordinate ring) of
    power k stands for (x[beta](l))^{p^k}: degree 2p^k, weight p^{l+1+k} beta."""

    def __new__(cls, kind: str, root: Root, twist: int, p: int, power: int = 0):
        if kind not in ("x", "w", "X", "y"):
            raise DomainError(f"generator kind must be x, w, X or y, got {kind!r}")
        if twist < 0 or power < 0:
            raise DomainError("twist and power must be non-negative")
        return super().__new__(cls, kind, root, twist, p, power)

    @property
    def degree(self) -> int:
        return 1 if self.kind == "y" else 2 * self.p**self.power

    @property
    def scale(self) -> int:
        """The power of p that multiplies the root in the weight."""
        return self.p ** (self.twist + self.power + (self.kind != "y"))

    def weight(self) -> tuple[int, ...]:
        return tuple(self.scale * c for c in self.root.coeffs)

    @property
    def name(self) -> str:
        return generator_name(self.kind, self.root.label(), self.twist)

    def display(self) -> str:
        """The name, with a model power generator written as the power it is."""
        if self.kind != "w":
            return self.name
        base = generator_name("x", self.root.label(), self.twist)
        return f"({base})^p^{self.power}" if self.power else base

    def descriptor(self, name: str | None = None) -> VariableDescriptor:
        """The ring variable of this class, under ``name`` if one is given."""
        parity = "odd" if self.kind == "y" else "even"
        return VariableDescriptor(name or self.name, parity, self.degree, self.weight())


class _ContextFields(NamedTuple):
    family: str
    rank: int
    J: frozenset[str]
    i: int
    stage: int  # quotient stage m: the group modelled is Gamma_i/Gamma_m
    r: int
    p: int


class ModelContext(_ContextFields):
    """Everything needed to build the model of (Gamma_i/Gamma_m)_{(r)}.

    ``stage`` is the quotient stage m, so stage=3 with i=1 on A2 is the
    Heisenberg group itself.
    """

    def __new__(cls, family: str, rank: int, J, i: int, stage: int, r: int, p: int):
        if r < 1:
            raise DomainError("height r must be >= 1")
        if not (1 <= i < stage):
            raise DomainError("need 1 <= i < quotient stage")
        return super().__new__(cls, family, rank, frozenset(J), i, stage, r, p)

    @property
    def top_level(self) -> int:
        return self.stage - 1

    def parabolic(self) -> ParabolicContext:
        return context(self.family, self.rank, self.J)

    def levels(self) -> range:
        return range(self.i, self.stage)

    def roots_of_level(self, v: int) -> tuple[Root, ...]:
        return roots_of_level(self.parabolic(), v)

    def roots(self) -> tuple[Root, ...]:
        """The roots of levels i..stage-1, level by level."""
        return tuple(root for v in self.levels() for root in self.roots_of_level(v))

    def pairs(self, beta: Root) -> list[tuple[Root, Root]]:
        """The two-term splittings of ``beta`` into roots of level >= i."""
        return summand_pairs(beta, self.parabolic(), min_level=self.i)

    def label(self) -> str:
        j = ",".join(sorted(self.J)) or "-"
        return (
            f"{self.family}{self.rank} J={j} Gamma{self.i}/Gamma{self.stage} "
            f"r={self.r} p={self.p}"
        )


def model_context(family, rank, J=(), i=1, stage=None, r=1, p=3) -> ModelContext:
    """Convenience constructor; stage defaults to 'quotient by nothing'."""
    pctx = context(family, rank, J)
    if stage is None:
        stage = pctx.max_level() + 1
    return ModelContext(family.upper(), rank, frozenset(J), i, stage, r, p)


class _Presentation:
    """The ring on ``generators``, one variable each in that order, plus a
    relation list that the builders attach."""

    kind = ""  # the "kind" of the JSON form
    noun = ""  # what the repr calls the ring's variables

    def __init__(self, ctx: ModelContext, generators, label: str):
        self.ctx = ctx
        self.generators = tuple(generators)
        self.ring = PolyRing(
            ctx.p, [g.descriptor() for g in self.generators], f"{label}({ctx.label()})"
        )
        self.relations: tuple[Poly, ...] = ()
        self._ideal = None

    def ideal(self) -> IdealPresentation:
        if self._ideal is None:
            self._ideal = IdealPresentation(self.ring, self.relations)
        return self._ideal

    def to_json_dict(self) -> dict:
        ctx = self.ctx
        gens = [
            {
                "name": g.name,
                "display": g.display(),
                "kind": g.kind,
                "root": g.root.label(),
                "root_coeffs": list(g.root.coeffs),
                "twist": g.twist,
                "power": g.power,
                "degree": g.degree,
                "weight": {f"a{i+1}": w for i, w in enumerate(g.weight())},
            }
            for g in self.generators
        ]
        return {
            "schema_version": 1,
            "kind": self.kind,
            "family": ctx.family,
            "rank": ctx.rank,
            "J": sorted(ctx.J),
            "i": ctx.i,
            "quotient_stage": ctx.stage,
            "r": ctx.r,
            "p": ctx.p,
            "generators": gens,
            "relations": [rel.to_json_dict() for rel in self.relations],
        }

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.ctx.label()}; {self.ring.nvars} "
            f"{self.noun}, {len(self.relations)} relations)"
        )


class ModelPresentation(_Presentation):
    """Ambient model ring plus its relation list (empty for plain S*)."""

    kind, noun = "model", "generators"

    # -- generator access ----------------------------------------------------

    def x_var(self, root: Root, twist: int) -> Poly:
        return self.ring.var(generator_name("x", root.label(), twist))

    def w_var(self, root: Root, twist: int) -> Poly:
        return self.ring.var(generator_name("w", root.label(), twist))

    def power_image(self, root: Root, twist: int) -> Poly:
        """The element (x_root^{(twist)})^{p^{r-twist-1}} of this model."""
        ctx = self.ctx
        if not 0 <= twist < ctx.r:
            raise DomainError(f"twist {twist} out of range for r={ctx.r}")
        level = ctx.parabolic().level(root)
        if level == 1 and ctx.i == 1:
            return self.x_var(root, twist) ** (ctx.p ** (ctx.r - twist - 1))
        return self.w_var(root, twist)

    def top_generators(self) -> list[str]:
        v, pctx = self.ctx.top_level, self.ctx.parabolic()
        return [
            g.name for g in self.generators if g.kind == "w" and pctx.level(g.root) == v
        ]

    def graded_dimension(self, degree, weight=None) -> int:
        return graded_dimension(self.ideal(), degree, weight)


# -- generators and builders -----------------------------------------------------


def _powers(ctx: ModelContext, kind: str, levels) -> list[ModelGenerator]:
    """Power generators ``kind[beta](l)`` on the roots of ``levels``, each
    standing for (x_beta^{(l)})^{p^{r-l-1}}; twist-major, then by level and root."""
    return [
        ModelGenerator(kind, beta, twist, ctx.p, ctx.r - twist - 1)
        for twist in range(ctx.r)
        for level in levels
        for beta in ctx.roots_of_level(level)
    ]


def _model_generators(ctx: ModelContext, max_level_excl: int) -> list[ModelGenerator]:
    """Generators of the model on levels [ctx.i, max_level_excl)."""
    xs = [
        ModelGenerator("x", alpha, twist, ctx.p)
        for twist in range(ctx.r)
        for alpha in ctx.roots_of_level(1)
    ] if ctx.i == 1 else []
    return xs + _powers(ctx, "w", range(max(ctx.i, 2), max_level_excl))


def build_S_star(ctx: ModelContext) -> ModelPresentation:
    """The free model: the coproduct's generators with an empty relation list."""
    return ModelPresentation(ctx, _model_generators(ctx, ctx.stage), "S*")


def s2_relation(pres: ModelPresentation, beta: Root, twist: int, j: int) -> Poly:
    """Level-2 relation instance at (twist, j); zero if it has no summands."""
    ctx = pres.ctx
    if twist + 1 + j >= ctx.r:
        raise DomainError("level-2 relations need twist+1+j < r")
    q = ctx.p ** (j + 1)
    return pair_sum(
        pres.ring,
        ctx.pairs(beta),
        lambda a: pres.x_var(a, twist) ** q,
        lambda b: pres.x_var(b, twist + 1 + j),
    )


def _commutations(ctx: ModelContext, ring: PolyRing, g, levels):
    """(beta, l, l', minor) for 0 <= l < l' < r and each root beta of ``levels``
    with two-term decompositions (a, b) into roots of level >= ctx.i; the
    minor is the pair sum of g(a, l) g(b, l') - g(a, l') g(b, l)."""
    for level in levels:
        for beta in ctx.roots_of_level(level):
            pairs = ctx.pairs(beta)
            if pairs:
                for twist, twist2 in itertools.combinations(range(ctx.r), 2):
                    minor = pair_sum(
                        ring, pairs, lambda a: g(a, twist), lambda b: g(b, twist2)
                    )
                    yield beta, twist, twist2, minor


def build_relation_ideal(pres: ModelPresentation) -> list[Poly]:
    """Generators of the defining ideal in the ring of ``pres``, duplicate-free,
    in a fixed order."""
    ctx = pres.ctx
    rels: list[Poly] = []
    seen = set()

    def push(rel: Poly):
        if rel.is_zero():
            return
        key = frozenset(rel.terms.items())
        if key not in seen:
            seen.add(key)
            rels.append(rel)

    if ctx.i == 1 and ctx.stage >= 3:
        for beta, count, ok in check_pairing_hypothesis(ctx.parabolic(), ctx.p).per_root:
            if not ok:
                warnings.warn(
                    f"{ctx.label()}: root {beta.label()} has {count} "
                    "decompositions (>= p); the uniqueness hypothesis fails",
                    PairingHypothesisWarning,
                    stacklevel=2,
                )
            for twist in range(ctx.r):
                for j in range(ctx.r - twist - 1):
                    push(s2_relation(pres, beta, twist, j))
    levels = range(2, ctx.stage)
    for *_, minor in _commutations(ctx, pres.ring, pres.power_image, levels):
        push(minor)
    return rels


def build_Sbar(ctx: ModelContext) -> ModelPresentation:
    """Quotient model: every generator, with the defining relations attached."""
    pres = build_S_star(ctx)
    pres.relations = tuple(build_relation_ideal(pres))
    return pres


def build_Q(ctx: ModelContext) -> ModelPresentation:
    """Sub-presentation of Sbar on the levels below the top one.

    The relation generators never involve the top level, so Sbar splits as
    Q tensor the free algebra on the top-level power generators; Q carries
    the full relation list rebuilt in the smaller ring.
    """
    pres = ModelPresentation(ctx, _model_generators(ctx, ctx.top_level), "Q")
    pres.relations = tuple(build_relation_ideal(pres))
    return pres


def top_free_factor(ctx: ModelContext) -> IdealPresentation:
    """The free polynomial factor on the top-level power generators."""
    v = ctx.top_level
    if v < max(ctx.i, 2):
        raise DomainError("the splitting needs a top level >= 2")
    top = ModelPresentation(ctx, _powers(ctx, "w", (v,)), "top")
    return IdealPresentation(top.ring, [])


# -- coordinate algebra of the commuting variety -------------------------------


class CoordinatePresentation(_Presentation):
    """k[V_r] of the quotient group: coordinates X[beta](l) and 2x2 minors."""

    kind, noun = "coordinate", "coordinates"

    def var(self, root: Root, twist: int) -> Poly:
        return self.ring.var(generator_name("X", root.label(), twist))


def vr_coordinate_algebra(ctx: ModelContext) -> CoordinatePresentation:
    """Coordinate algebra of r-tuples of commuting nilpotents in the quotient.

    Only type A quotients of the full radical are realised (the matrix
    presentation is what the worked examples use).  The p-th power equations
    are absent exactly when the p-th matrix power vanishes identically on the
    quotient, i.e. when p >= min(N, stage); anything smaller is rejected.
    """
    if ctx.family != "A":
        raise ConfigError("coordinate algebras are only built for type A")
    if ctx.i != 1:
        raise DomainError("coordinate algebras start at the full radical (i=1)")
    N = ctx.rank + 1
    if ctx.p < min(N, ctx.stage):
        raise ConfigError(
            f"p={ctx.p} < min(N, stage)={min(N, ctx.stage)}: the p-th power map "
            "does not vanish, configuration unsupported"
        )
    pres = CoordinatePresentation(ctx, _powers(ctx, "X", ctx.levels()), f"k[V_{ctx.r}]")
    levels = range(2, ctx.stage)
    commutations = _commutations(ctx, pres.ring, pres.var, levels)
    pres.relations = tuple(minor for *_, minor in commutations)
    return pres


# -- algebra maps ----------------------------------------------------------------


class AlgebraMap:
    """A monomial substitution: each source variable goes to zero or to one
    term of a target ring without exterior variables."""

    def __init__(self, source, target, images: dict, name: str = "map"):
        self.source = source
        self.target = target
        self.images = dict(images)
        self.name = name
        missing = [v.name for v in source.ring.variables if v.name not in self.images]
        if missing:
            raise DomainError(f"{name}: no image given for {missing}")
        if any(v.parity == "odd" for v in target.ring.variables):
            raise DomainError(f"{name}: the target ring has exterior variables")
        # per source variable: None, or the image's nonzero (index, exponent) and coeff
        self._terms = []
        for v in source.ring.variables:
            image = self.images[v.name]
            terms = [
                (tuple((j, k) for j, k in enumerate(e) if k), c)
                for e, c in image.terms.items()
            ]
            if image.ring != target.ring or len(terms) > 1:
                raise DomainError(f"{name}: {v.name} does not map to one term of the target")
            self._terms.append(terms[0] if terms else None)

    def apply(self, f: Poly) -> Poly:
        if f.ring != self.source.ring:
            raise DomainError(f"{self.name}: argument from the wrong ring")
        ring = self.target.ring
        out: dict = {}
        for exps, coeff in f.terms.items():
            image = [0] * ring.nvars
            for e, term in zip(exps, self._terms):
                if not e:
                    continue
                if term is None:
                    break
                sparse, c = term
                coeff = coeff * pow(c, e, ring.p)
                for j, k in sparse:
                    image[j] += e * k
            else:
                key = tuple(image)
                out[key] = out.get(key, 0) + coeff
        return Poly(ring, out)

    def relation_images(self):
        return [(rel, self.apply(rel)) for rel in self.source.relations]

    def well_defined(self) -> bool:
        """Do all source relations map into the target ideal?

        The certificate divides the image by the target relation list; a
        zero remainder proves membership without a Groebner basis.
        """
        for rel, image in self.relation_images():
            if not normal_form(image, self.target.relations).is_zero():
                raise CheckFailure(
                    f"{self.name}: image of relation {rel} does not reduce to zero"
                )
        return True


def theta_substitution(ctx: ModelContext) -> AlgebraMap:
    """theta: k[V_r(quotient)] -> Sbar, X[beta](l) -> (x_beta^{(l)})^{p^{r-l-1}}.

    Every coordinate commutation relation maps exactly onto a generator of
    the model ideal, which is re-derived here by substitution and a division
    certificate (CheckFailure otherwise).
    """
    coord = vr_coordinate_algebra(ctx)
    sbar = build_Sbar(ctx)
    images = {g.name: sbar.power_image(g.root, g.twist) for g in coord.generators}
    theta = AlgebraMap(coord, sbar, images, name="theta")
    theta.well_defined()
    return theta


class PowerIdentity(NamedTuple):
    beta: Root
    twist: int
    twist2: int
    power: int  # the p-exponent r - twist2 - 1
    sign: int


def theta_power_identities(theta: AlgebraMap):
    """Exact identities theta(R_beta(l,l')) = +/- (level-2 relation)^{p^{r-l'-1}}
    for the map ``theta_substitution`` built.

    Only level-2 roots admit the level-2 relation family; writing
    l' = l+1+j, the image of the commutation relation is on the nose the
    p^{r-l'-1}-st power of the instance at (l, j).  Raises on any mismatch.
    """
    coord, sbar = theta.source, theta.target
    ctx = coord.ctx
    if ctx.stage < 3:
        return []
    out = []
    for beta, twist, twist2, minor in _commutations(ctx, coord.ring, coord.var, (2,)):
        image = theta.apply(minor)
        power = ctx.r - twist2 - 1
        base = s2_relation(sbar, beta, twist, twist2 - twist - 1) ** (ctx.p**power)
        if image == base:
            sign = 1
        elif image == -base:
            sign = -1
        else:
            raise CheckFailure(
                f"theta power identity fails for {beta.label()} at "
                f"(l,l')=({twist},{twist2})"
            )
        out.append(PowerIdentity(beta, twist, twist2, power, sign))
    return out


def theta_degree_U3(r: int, p: int) -> int:
    """Degree p^{(r+2)(r-1)/2} of theta on the Heisenberg quotient Q-model.

    For r <= 3 and p <= 5 the localisation picture is checked: the relations
    force x[a1](l) into the subring generated by x[a1](0) and the x[a2](.)
    once x[a2](0) is inverted (a division certificate).  The extension is
    then generated by the p^{r-1}-st root of X[a1](0) together with the
    p^{r-l-1}-st roots of X[a2](l), so a module basis is the box of
    monomials below those exponents, of size p^{(r-1) + r(r-1)/2}: the formula.
    """
    if r < 1:
        raise DomainError("r must be >= 1")
    formula = p ** ((r + 2) * (r - 1) // 2)
    if r <= 3 and p <= 5:
        ctx = model_context("A", 2, i=1, stage=3, r=r, p=p)
        q_model = build_Q(ctx)
        a1, a2 = Root((1, 0)), Root((0, 1))
        for twist in range(1, r):
            candidate = pair_sum(
                q_model.ring,
                [(a1, a2)],
                lambda a: q_model.x_var(a, twist),
                lambda b: q_model.x_var(b, 0) ** (p**twist),
            )
            if not normal_form(candidate, q_model.relations).is_zero():
                raise CheckFailure(
                    f"localisation relation for twist {twist} not in the ideal"
                )
    return formula


# -- stabilisation ----------------------------------------------------------------


def bracket_p(model: ModelPresentation) -> AlgebraMap:
    """Height-lowering map from the height-r model to the height-(r-1) model.

    Degree-2 generators keep their twist but the top twist r-1 dies; a
    designated power generator at twist l < r-1 goes to the p-th power of
    its height-(r-1) counterpart.  Relation images land in the smaller
    ideal, which a division certificate checks here (CheckFailure otherwise).
    """
    ctx = model.ctx
    if ctx.r < 2:
        raise DomainError("bracket_p needs r >= 2")
    low = ModelContext(ctx.family, ctx.rank, ctx.J, ctx.i, ctx.stage, ctx.r - 1, ctx.p)
    target = build_Sbar(low)
    images = {}
    for g in model.generators:
        if g.twist == ctx.r - 1:
            images[g.name] = target.ring.zero()
        elif g.kind == "x":
            images[g.name] = target.x_var(g.root, g.twist)
        else:
            images[g.name] = target.w_var(g.root, g.twist) ** ctx.p
    bracket = AlgebraMap(model, target, images, name="bracket_p")
    bracket.well_defined()
    return bracket


def iterated_bracket(model: ModelPresentation, s: int) -> AlgebraMap:
    """The s-fold composite of ``bracket_p``, from ``model`` to the model at
    height r-s: each generator's image pushed through the later steps, so
    again a monomial substitution, with every step certified."""
    if s < 1:
        raise DomainError("need s >= 1")
    composite = bracket_p(model)
    for _ in range(s - 1):
        step = bracket_p(composite.target)
        images = {name: step.apply(image) for name, image in composite.images.items()}
        composite = AlgebraMap(model, step.target, images, name=f"bracket_p^{s}")
    return composite


def in_bracket_image(target: ModelPresentation, f: Poly, s: int) -> bool:
    """Membership of f in the image of the s-fold composite on the free rings.

    The composite sends every height-(r+s) generator either to zero, to a
    degree-2 generator, or to the p^s-th power of a designated power
    generator, so its image is spanned by the monomials whose power-generator
    exponents are all divisible by p^s.  Monomials are linearly independent
    in the polynomial ring, which makes the span test exact.
    """
    if f.ring != target.ring:
        raise DomainError("element does not live in the target model")
    ps = target.ctx.p**s
    return not any(
        g.kind == "w" and e % ps
        for exps in f.terms
        for g, e in zip(target.generators, exps)
    )


def bracket_probe(model: ModelPresentation, pairs: int, seed: int):
    """Check ``bracket_p`` on ``model`` and list the collapse of its top level.

    The bracket must send the relations into the smaller ideal and respect
    ``pairs`` random products f*g (drawn from ``seed``); raises CheckFailure
    otherwise.  Returns (name, degree, s) for each top generator of degree
    < p^s, s = 1, 2.  None of them lies in the image of the s-fold
    composite: its exponent 1 is not divisible by p^s (``in_bracket_image``).
    """
    bracket = bracket_p(model)
    rng = random.Random(seed)
    powers = [[v**0, v, v**2] for v in (model.ring.var(g.name) for g in model.generators)]
    if pairs and not powers:
        raise DomainError(f"{model.ctx.label()}: the model has no generators to probe")
    for _ in range(pairs):
        a1 = rng.choice(powers)[rng.randint(0, 2)]
        b1 = rng.choice(powers)[rng.randint(0, 2)] * rng.randint(1, 2)
        a2 = rng.choice(powers)[rng.randint(0, 2)]
        b2 = rng.choice(powers)[rng.randint(0, 2)] * rng.randint(1, 2)
        f, g = a1 * a2, b1 + b2
        if bracket.apply(f * g) != bracket.apply(f) * bracket.apply(g):
            raise CheckFailure("bracket map failed a multiplicativity probe")
    top = model.top_generators()
    return [
        (g.name, g.degree, s)
        for s in (1, 2)
        for g in model.generators
        if g.name in top and g.degree < model.ctx.p**s
    ]
