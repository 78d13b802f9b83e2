"""Symbolic spectral-sequence fragment for central-series extensions.

For the extension of the quotient at stage m by its top layer (level
v = m-1) we model the second page as a tensor of truncated-polynomial-
times-exterior pages, one per root: classes ``x[beta](l)`` (degree 2,
weight p^{l+1} beta) and ``y[beta](l)`` (degree 1, weight p^l beta) with
twists 0 <= l < r.  Pages above the second are never materialised.

Encoded values, each a sum over the two-term decompositions
alpha + alpha' = beta of the fiber root:

* the second-page value on y_beta^{(l)} is the sum of y_alpha^{(l)} wedge
  y_{alpha'}^{(l)};
* the page-(2p^j+1) value on (x_beta^{(l)})^{p^j} is
  (x_alpha^{(l)})^{p^j} y_{alpha'}^{(l+1+j)} - (x_{alpha'}^{(l)})^{p^j}
  y_alpha^{(l+1+j)}, which vanishes exactly when l+1+j >= r.

Every operation on a page class is one Cartan-Leibniz fold (``_fold``): a
graded ring map A = sum_s A^s and a Koszul-signed A-derivation B, each given
by a rule on generator powers.  Three rule sets use it:

* ``d2``: A is the identity and B is the second-page value on fiber y;
* ``steenrod_apply``: A(x^e) = sum_s C(e,s) x^{ps} x'^{e-s} and A(y) = y'
  (' raises the twist, zero at twist r-1), B(y) = x and B(x) = 0; P^n is
  part n of A and bP^n part n of B.  Any operation outside
  {P^0, P^{p^j}, bP^0, bP^{p^j}} raises;
* ``first_nonvanishing_differential``: page 2p^j+1 is the identity A with
  B(x^n) = (n/p^j mod p) x^{n-p^j} times the transgression, for p^j | n.

The file also carries the weight-space enumerator for the first page of
the filtration-by-powers-of-the-augmentation-ideal spectral sequence,
with the 1-dimensionality search used to pin down lifted classes.  Both
pages are rings on ``grmodel.ModelGenerator`` classes: the second is a
``grmodel.Presentation`` like the models it is compared with, and the first
names the twist l class by its block n = l+1.  No Steenrod operation is ever
applied to that enumerator's data.
"""

from __future__ import annotations

import functools
import math
from operator import gt, sub
from typing import NamedTuple

from .errors import BudgetError, DomainError, UnsupportedOperationError
from .grmodel import ModelContext, ModelGenerator, Presentation
from .polyalg import Poly, PolyRing, pair_sum
from .rootsys import Root, check_pairing_hypothesis, generator_name


class ExtensionPage(Presentation):
    """Second page of the central extension at the top level of a context:
    the free algebra, with no relations, on every x twist by twist, then
    every y, over the roots of the context."""

    kind, noun = "page", "classes"

    def __init__(self, ctx: ModelContext):
        if ctx.top_level < max(ctx.i, 2) and ctx.i == 1:
            raise DomainError("the extension needs a fiber level >= 2")
        roots = ctx.roots()
        generators = (
            ModelGenerator(kind, root, twist, ctx.p)
            for kind in "xy"
            for twist in range(ctx.r)
            for root in roots
        )
        super().__init__(ctx, generators, "E2")
        self.fiber_roots = ctx.roots_of_level(ctx.top_level)
        self._transgressions: dict = {}  # (beta, twist, j): the shared, immutable value


# -- the Cartan-Leibniz fold -------------------------------------------------------


def _fold(page: ExtensionPage, f: Poly, n: int, rule) -> tuple[Poly, Poly]:
    """(A^n f, B^n f) for a graded pair of operations given on generator powers.

    ``rule(i, e)`` returns the parts ({s: A^s}, {s: B^s}) of the e-th power
    of variable i; a part left out is zero.  A is multiplicative and B is a
    Koszul-signed A-derivation, B(m g) = B(m) A(g) + (-1)^|m| A(m) B(g), so
    each monomial is folded once, factor by factor from the left, keeping
    the parts of grade s <= n.  Ring multiplication supplies every other sign.
    """
    ring = page.ring

    def convolve(out: dict, s: int, u: Poly, parts: dict) -> None:
        for t, v in parts.items():
            if s + t <= n and (w := u * v):
                out[s + t] = out[s + t] + w if s + t in out else w

    total_a = total_b = zero = ring.zero()
    for exps, c in f.terms.items():
        a_parts, b_parts, degree = {0: ring.const(c)}, {}, 0
        for i, e in enumerate(exps):
            if not e:
                continue
            a, b = rule(i, e)
            next_a, next_b = {}, {}
            for s, u in a_parts.items():
                convolve(next_a, s, u, a)
                if b:
                    convolve(next_b, s, -u if degree % 2 else u, b)
            for s, u in b_parts.items():
                convolve(next_b, s, u, a)
            a_parts, b_parts = next_a, next_b
            degree += e * ring.variables[i].degree
        total_a = total_a + a_parts.get(n, zero)
        total_b = total_b + b_parts.get(n, zero)
    return total_a, total_b


# -- differentials ---------------------------------------------------------------


def d2_on_y(page: ExtensionPage, beta: Root, twist: int) -> Poly:
    """Second-page value on the degree-1 fiber class at the given twist."""
    ctx = page.ctx
    if beta not in page.fiber_roots:
        raise DomainError(f"{beta.label()} is not a fiber root of this page")
    if not 0 <= twist < ctx.r:
        raise DomainError(f"twist {twist} outside [0, {ctx.r})")
    y = functools.partial(page.var, "y")
    products = (y(a, twist) * y(b, twist) for a, b in ctx.pairs(beta))
    return sum(products, page.ring.zero())


def transgression_power(page: ExtensionPage, beta: Root, twist: int, j: int) -> Poly:
    """Page-(2p^j+1) value on (x_beta^{(twist)})^{p^j}; zero iff twist+1+j >= r."""
    ctx = page.ctx
    if twist < 0 or j < 0:
        raise DomainError("twist and j must be non-negative")
    if beta not in page.fiber_roots:
        raise DomainError(f"{beta.label()} is not a fiber root of this page")
    if twist + 1 + j >= ctx.r:
        return page.ring.zero()
    key = (beta, twist, j)
    if key not in page._transgressions:
        page._transgressions[key] = pair_sum(
            page.ring,
            ctx.pairs(beta),
            lambda a: page.var("x", a, twist) ** (ctx.p**j),
            lambda b: page.var("y", b, twist + 1 + j),
        )
    return page._transgressions[key]


def d2(page: ExtensionPage, f: Poly) -> Poly:
    """The second-page derivation: ``d2_on_y`` on fiber y, zero elsewhere."""
    values = {
        i: d2_on_y(page, g.root, g.twist)
        for i, g in enumerate(page.generators)
        if g.kind == "y" and g.root in page.fiber_roots
    }

    def rule(i: int, e: int):
        power = page.ring.monomial({page.generators[i].name: e})
        return {0: power}, ({0: values[i]} if i in values else {})

    return _fold(page, f, 0, rule)[1]


def first_nonvanishing_differential(page: ExtensionPage, monomial: dict):
    """Scan pages 2p^j+1 for the first nonzero value on a fiber monomial.

    ``monomial`` maps (root, twist) to the exponent of x_root^{(twist)}.
    On page 2p^j+1 the factors with p-adic valuation exactly j contribute
    via the transgression of their p^j-th-power chunk; factors of lower
    valuation died on earlier pages only if their transgressions were
    truncated to zero, in which case they stay zero forever.
    Returns (j, value) or None when every page vanishes.
    """
    ctx = page.ctx
    p, r = ctx.p, ctx.r
    for (beta, twist), n in monomial.items():
        if beta not in page.fiber_roots:
            raise DomainError("monomial must live in the fiber polynomial part")
        if n < 0 or not 0 <= twist < r:
            raise DomainError("bad exponent data")
    names = {generator_name("x", b.label(), t): n for (b, t), n in monomial.items()}
    f = page.ring.monomial(names)
    for j in range(0, max(r - 1, 0)):
        q = p**j

        def rule(i: int, e: int):
            g = page.generators[i]
            power = page.ring.monomial({g.name: e})
            if e % q or (e // q) % p == 0:
                return {0: power}, {}
            value = transgression_power(page, g.root, g.twist, j).scale(e // q)
            return {0: power}, {0: page.ring.monomial({g.name: e - q}) * value}

        total = _fold(page, f, 0, rule)[1]
        if not total.is_zero():
            return j, total
    return None


def permanent_cycle_monomial(monomial: dict, r: int, p: int) -> bool:
    """Divisibility criterion: every exponent n_l divisible by p^{r-l-1}."""
    for (_, twist), n in monomial.items():
        if not 0 <= twist < r:
            raise DomainError(f"twist {twist} outside [0, {r})")
        if n % p ** (r - twist - 1):
            return False
    return True


# -- Steenrod fragment --------------------------------------------------------------


def _parse_op(op: str) -> tuple[bool, int]:
    text = op.strip()
    bock = text.startswith("b")
    if bock:
        text = text[1:]
    if not (text.startswith("P") and text[1:].isdecimal()):
        raise UnsupportedOperationError(f"cannot parse operation {op!r}")
    return bock, int(text[1:])


def _is_supported(n: int, p: int) -> bool:
    if n == 0:
        return True
    while n % p == 0:
        n //= p
    return n == 1


def steenrod_apply(page: ExtensionPage, op: str, f: Poly) -> Poly:
    """Apply P^0, P^{p^j}, bP^0 or bP^{p^j} to a page class, as part n of
    the fold whose rules the module docstring lists.  Operations P^n with n
    neither zero nor a p-power are outside the encoded fragment."""
    bock, n = _parse_op(op)
    ctx = page.ctx
    if f.ring != page.ring:
        raise DomainError("class does not live on this page")
    if not _is_supported(n, ctx.p):
        raise UnsupportedOperationError(
            f"P^{n} is outside the encoded fragment at p={ctx.p}"
        )
    p, r = ctx.p, ctx.r

    def rule(i: int, e: int):
        g = page.generators[i]
        top = g.twist + 1 >= r  # ' is zero at the top twist
        if g.kind == "y":
            shifted = {} if top else {0: page.var("y", g.root, g.twist + 1)}
            return shifted, {0: page.var("x", g.root, g.twist)}
        x = page.ring.var(g.name)
        x1 = page.ring.zero() if top else page.var("x", g.root, g.twist + 1)
        grades = range(min(e, n) + 1)
        return {s: x ** (p * s) * x1 ** (e - s) * math.comb(e, s) for s in grades}, {}

    a, b = _fold(page, f, n, rule)
    return b if bock else a


# -- first-page weight enumerator ---------------------------------------------------


def aj_page(roots, r: int, p: int) -> tuple[PolyRing, tuple[ModelGenerator, ...]]:
    """The first page on ``roots`` as a ring, and the class of each variable.

    Block n (1 <= n <= r) holds the twist n-1 classes of each root:
    ``x[root]{n}`` of degree 2 and weight p^n root, and the exterior
    ``y[root]{n}`` of degree 1 and weight p^{n-1} root.  Variables run by
    block, then root, x before y.  Pages are memoised on (roots, r, p).
    """
    return _aj_page(tuple(roots), r, p)


@functools.cache
def _aj_page(roots: tuple[Root, ...], r: int, p: int):
    gens = tuple(
        ModelGenerator(kind, root, twist, p)
        for twist in range(r)
        for root in roots
        for kind in "xy"
    )
    names = [f"{g.kind}[{g.root.label()}]{{{g.twist + 1}}}" for g in gens]
    return PolyRing(p, [g.descriptor(n) for g, n in zip(gens, names)]), gens


class _MonomialFields(NamedTuple):
    ring: PolyRing
    generators: tuple[ModelGenerator, ...]
    exps: tuple[int, ...]


class AJMonomial(_MonomialFields):
    """One first-page monomial: an exponent vector on the ring of ``aj_page``.

    Its filtration index sums the weight scale of each factor: p^n for
    ``x[root]{n}`` and p^{n-1} for ``y[root]{n}``.  The memoised name lives
    outside equality and hash.
    """

    @property
    def degree(self) -> int:
        return self.ring.monomial_degree(self.exps)

    @functools.cached_property
    def name(self) -> str:
        return self.ring.monomial_str(self.exps)

    def _factors(self):
        return ((g, e) for g, e in zip(self.generators, self.exps) if e)

    @property
    def filtration(self) -> int:
        return sum(g.scale * e for g, e in self._factors())

    def block_profile(self) -> tuple[dict, dict]:
        """({n: a_n}, {n: b_n}): symmetric and exterior exponents per block."""
        a: dict[int, int] = {}
        b: dict[int, int] = {}
        for g, e in self._factors():
            target = a if g.kind == "x" else b
            target[g.twist + 1] = target.get(g.twist + 1, 0) + e
        return a, b

    def block_y_roots(self, block: int) -> tuple[Root, ...]:
        return tuple(
            g.root for g, _ in self._factors() if g.kind == "y" and g.twist + 1 == block
        )

    def to_json_dict(self) -> dict:
        a, b = self.block_profile()
        return {
            "name": self.name,
            "a": dict(sorted(a.items())),
            "b": dict(sorted(b.items())),
            "filtration": self.filtration,
            "degree": self.degree,
        }


def aj_E1_enumerate(
    roots,
    r: int,
    p: int,
    total_degree: int,
    target_weight: tuple[int, ...],
    max_monomials: int = 200_000,
):
    """All first-page monomials of the given degree and T-weight, by name.

    The search places the exterior ``y[root]{1}`` first, then the other
    variables of ``aj_page`` from the largest weight per degree down.
    Weights are non-negative, so a branch is cut when a coordinate
    overshoots, or when the weight still missing exceeds in some coordinate,
    or falls short of in total, what the degree left brings at the best or
    the least weight per degree among the variables not yet placed; all
    ratios are compared in integers.  Every weight is p^k times a root, and
    only ``y[root]{1}`` has k = 0, so a branch is also cut when the weight
    missing is not divisible by the gcd of the weights left.  A state
    (position, degree left, weight missing) that found nothing is never redone.
    """
    ring, gens = aj_page(roots, r, p)
    target_weight = ring.check_weight(target_weight)
    degrees = ring._degrees
    weights = ring._weights
    order, best = ring.weight_order(lead={i for i, g in enumerate(gens) if g.scale == 1})
    scale = math.lcm(*degrees)
    # over order[n:]: the gcd of the weights, and the least weight sum per degree
    # times the lcm of the degrees
    step, low = [0], [math.inf]
    for i in reversed(order):
        step.append(math.gcd(step[-1], *weights[i]))
        low.append(min(low[-1], sum(weights[i]) * scale // degrees[i]))
    step, low = step[::-1], low[::-1]

    @functools.cache
    def bounds(pos: int, degree_left: int):
        """The least total, and the most weight in each coordinate, that order[pos:] add."""
        most = tuple(degree_left * a // b for a, b in best[pos])
        return -(-degree_left * low[pos] // scale), most

    found: list[tuple[int, ...]] = []
    exps = [0] * ring.nvars
    dead = set()  # the exponents from pos on are zero on entry to a state

    def rec(pos: int, degree_left: int, missing: tuple) -> bool:
        if degree_left == 0:
            if not any(missing):
                found.append(tuple(exps))
                if len(found) > max_monomials:
                    raise BudgetError(
                        f"first-page enumeration in degree {total_degree}, weight "
                        f"{target_weight} exceeded the budget of {max_monomials} monomials"
                    )
            return not any(missing)
        state = (pos, degree_left, missing)  # missing is rebound below
        if pos == len(order) or math.gcd(*missing) % step[pos]:
            return False
        least, most = bounds(pos, degree_left)
        if sum(missing) < least or any(map(gt, missing, most)) or state in dead:
            return False
        i = order[pos]
        hit = rec(pos + 1, degree_left, missing)
        top = 1 if ring.variables[i].parity == "odd" else degree_left // degrees[i]
        for e in range(1, top + 1):
            missing = tuple(map(sub, missing, weights[i]))
            if min(missing) < 0:
                break
            exps[i] = e
            hit |= rec(pos + 1, degree_left - e * degrees[i], missing)
        exps[i] = 0
        if not hit:
            dead.add(state)
        return hit

    rec(0, total_degree, target_weight)
    out = [AJMonomial(ring, gens, e) for e in found]
    out.sort(key=lambda m: m.name)
    return out


class UniquenessReport(NamedTuple):
    """Outcome of the weight-space search pinning down a lifted class.

    The classification follows the first-differential pattern of the
    source argument: a block-2 wedge factor on a decomposable root is not
    a cycle, and a block-2 wedge pair assembling to a root of the algebra
    is hit by the partner that contracts the pair.  Both tests are
    heuristic (no differential is actually inverted), so the raw monomial
    list is always included for auditing.
    """

    beta: Root
    r: int
    p: int
    degree: int
    weight: tuple[int, ...]
    monomials: tuple[AJMonomial, ...]
    paired: tuple[tuple[AJMonomial, str], ...]
    survivors: tuple[AJMonomial, ...]

    @property
    def surviving_count(self) -> int:
        return len(self.survivors)

    def to_json_dict(self) -> dict:
        return {
            "beta": self.beta.label(),
            "r": self.r,
            "p": self.p,
            "degree": self.degree,
            "weight": list(self.weight),
            "monomials": [m.to_json_dict() for m in self.monomials],
            "paired": [{"name": m.name, "reason": why} for m, why in self.paired],
            "survivors": [m.name for m in self.survivors],
            "surviving_count": self.surviving_count,
            "classification": "heuristic",
        }


def uniqueness_witness(ctx: ModelContext, beta: Root) -> UniquenessReport:
    """Search the (2p^{r-1}, p^r beta) weight space of the quotient's first page.

    Requires the decomposition-count hypothesis for the context (every
    level-2 root has fewer than p two-term splittings); monomials that the
    first differential implicates are then classified away and the rest is
    reported.
    """
    pctx = ctx.parabolic()
    if not check_pairing_hypothesis(pctx, ctx.p).ok:
        raise DomainError(
            "pairing hypothesis fails for this context; "
            "the uniqueness search is not justified"
        )
    if not pctx.system.contains(beta):
        raise DomainError(f"{beta.label()} is not a positive root")
    if pctx.level(beta) != ctx.top_level:
        raise DomainError("the search targets roots of the extension's top level")
    r, p = ctx.r, ctx.p
    roots = ctx.roots()
    root_set = set(roots)
    decomposable = {root for root in roots if ctx.pairs(root)}
    degree = 2 * p ** (r - 1)
    weight = tuple(p**r * c for c in beta.coeffs)
    monomials = tuple(aj_E1_enumerate(roots, r, p, degree, weight))

    def classify(mono: AJMonomial) -> str | None:
        wedge = mono.block_y_roots(2)
        for root in wedge:
            if root in decomposable:
                return f"wedge factor on the decomposable root {root.label()}"
        for a in wedge:
            for b in wedge:
                if a < b and a + b in root_set:
                    return f"wedge pair {a.label()}, {b.label()} assembling to a root"
        return None

    paired = []
    survivors = []
    for mono in monomials:
        why = classify(mono)
        if why is None:
            survivors.append(mono)
        else:
            paired.append((mono, why))
    return UniquenessReport(
        beta=beta,
        r=r,
        p=p,
        degree=degree,
        weight=weight,
        monomials=monomials,
        paired=tuple(paired),
        survivors=tuple(survivors),
    )
