"""Point-counting evidence for the commuting-nilpotent varieties.

Every system here is a chain condition on the level-1 coordinates: N - 1
nodes, each an r-vector X[a_s](0..r-1), of which some vanish and some pairs
are proportional (all their 2x2 minors vanish).  The integer relations are
derived from that condition, and a presentation is materialised per
characteristic on demand.  Counts need only the strata of the condition:
for every zero pattern of the free nodes, the nonzero nodes fall into
classes joined by the proportional pairs, and a stratum of c classes and k
nonzero nodes has (q^r - 1)^c (q - 1)^(k - c) points over F_q.  Dimensions
are bracketed by log_q of exact counts over two primes, and component
decompositions are checked by inclusion-exclusion over unions of systems.

The component systems attached to sub-diagrams follow the pattern of the
worked four-strand case: coordinates on removed nodes vanish, coordinates
inside a retained segment are pairwise proportional.  The sub-diagram
indexing of components is conjectural, so reports carry residuals and
never hard-fail on a mismatch.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import NamedTuple

from .errors import BudgetError, ConfigError, DomainError
from .polyalg import (
    DEFAULT_POINT_BUDGET, IdealPresentation, check_point_count, pair_terms, plain_ring,
)

# re-exported: ``commvar.count_points`` names the enumeration oracle of the
# counts here, and perfbench's tracer wraps it under that name
from .polyalg import count_points  # noqa: F401
from .rootsys import generator_name

#: how far log_q of a count may sit from the predicted dimension
DIM_WINDOW = 0.5

SignedTerm = tuple[int, tuple[tuple[str, int], ...]]


class _SystemFields(NamedTuple):
    label: str
    N: int
    r: int
    zero: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()
    extra: tuple[str, ...] = ()


class VarietySystem(_SystemFields):
    """A chain condition on the nodes 1..N-1, each an r-vector: the ``zero``
    nodes vanish and the two nodes of each of ``pairs`` are proportional.
    Each label of ``extra`` adds coordinates X[label](0..r-1) that no
    relation involves; at every twist they follow the nodes.  The memos
    (variables, relations, strata) live outside equality and hash."""

    @functools.cached_property
    def variables(self) -> tuple[str, ...]:
        labels = [f"a{s}" for s in range(1, self.N)] + list(self.extra)
        return tuple(generator_name("X", x, l) for l in range(self.r) for x in labels)

    @property
    def free_rank(self) -> int:
        """Rank of the affine factor of the ``extra`` coordinates."""
        return len(self.extra) * self.r

    @functools.cached_property
    def relations(self) -> tuple[tuple[SignedTerm, ...], ...]:
        """Each zero coordinate, then each minor of each pair, as signed terms."""
        twists = range(self.r)
        zeros = [
            ((1, ((generator_name("X", f"a{s}", l), 1),)),)
            for s in self.zero
            for l in twists
        ]
        minors = [
            _minor(f"a{s}", f"a{t}", l1, l2)
            for s, t in self.pairs
            for l1, l2 in itertools.combinations(twists, 2)
        ]
        return tuple(zeros + minors)

    def presentation(self, char: int) -> IdealPresentation:
        ring = plain_ring(char, self.variables, label=self.label)
        return IdealPresentation(
            ring,
            [ring.from_terms((c, dict(exps)) for c, exps in rel) for rel in self.relations],
        )

    def union(self, other: "VarietySystem") -> "VarietySystem":
        """The intersection of the two varieties: both conditions at once."""
        if (self.N, self.r, self.extra) != (other.N, other.r, other.extra):
            raise DomainError("systems over different variable sets")
        return VarietySystem(
            f"{self.label} & {other.label}",
            self.N,
            self.r,
            zero=tuple(sorted({*self.zero, *other.zero})),
            pairs=self.pairs + tuple(p for p in other.pairs if p not in self.pairs),
            extra=self.extra,
        )

    @functools.cached_property
    def strata(self) -> Counter:
        """(classes c, nonzero nodes k) -> the number of zero patterns of the
        free nodes whose k nonzero nodes the pairs join into c classes.

        A pair binds only at r >= 2 (a minor needs two twists).  The patterns
        of each connected component of the binding pairs are enumerated, with
        union-find over its pairs, and the strata of the components convolve."""
        free = [s for s in range(1, self.N) if s not in self.zero]
        pairs = [(s, t) for s, t in self.pairs if s in free and t in free and self.r > 1]
        component = {s: [s] for s in free}
        for s, t in pairs:
            nodes, other = component[s], component[t]
            if nodes is not other:
                nodes += other
                component.update(dict.fromkeys(other, nodes))
        out = {(0, 0): 1}  # plain dicts: a Counter's missing key costs a Python call
        for nodes in {id(nodes): nodes for nodes in component.values()}.values():
            index = {s: i for i, s in enumerate(nodes)}
            edges = [(index[s], index[t]) for s, t in pairs if s in index]
            part: dict = {}
            for live in range(1 << len(nodes)):  # bit i set: nodes[i] is nonzero
                root = list(range(len(nodes)))  # union-find forest over the nodes
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
                part[c, k] = part.get((c, k), 0) + 1
            joint: dict = {}
            for (c, k), m in out.items():
                for (c2, k2), m2 in part.items():
                    key = c + c2, k + k2
                    joint[key] = joint.get(key, 0) + m * m2
            out = joint
        return Counter(out)

    def count_polynomial(self, q: int) -> int:
        """The count polynomial at the integer q: the sum over the strata of
        (q^r - 1)^c (q - 1)^(k - c), times q per free coordinate.  At a
        prime power q it is the number of F_q points."""
        unit = q**self.r - 1
        total = sum(m * unit**c * (q - 1) ** (k - c) for (c, k), m in self.strata.items())
        return total * q**self.free_rank

    def count(self, q: int, max_assignments: int | None = None) -> int:
        """Number of F_q points.  q must be a power of an odd prime (exit 2),
        and the budget bounds the nominal q^n assignments (exit 3), which also
        bounds the 2^(free nodes) zero patterns of the strata."""
        check_point_count(q, len(self.variables), max_assignments=max_assignments)
        return self.count_polynomial(q)


def _minor(a: str, b: str, l1: int, l2: int) -> tuple[SignedTerm, ...]:
    """X_a(l1) X_b(l2) - X_a(l2) X_b(l1) as signed terms."""
    return tuple(
        (sign, ((f, 1), (h, 1)))
        for sign, f, h in pair_terms(
            [(a, b)],
            lambda s: generator_name("X", s, l1),
            lambda s: generator_name("X", s, l2),
        )
    )


def y_variety_system(N: int, r: int) -> VarietySystem:
    """Level-1 coordinates of the stage-3 quotient with consecutive minors."""
    if N < 3 or r < 1:
        raise ConfigError("need N >= 3 and r >= 1")
    return VarietySystem(
        label=f"Y_{r}(U{N}/G3)",
        N=N,
        r=r,
        pairs=tuple((s, s + 1) for s in range(1, N - 1)),
    )


def x_variety_system(N: int, r: int) -> VarietySystem:
    """Full stage-3 quotient system: the chain minors of the Y system.

    The level-2 coordinates X[a_s+a_(s+1)](l) appear in no relation, so the
    system splits off an affine factor of rank (N-2) r.  Variables follow the
    coordinate algebra: for each twist, the level-1 coordinates, then the
    level-2 ones.
    """
    y = y_variety_system(N, r)
    return VarietySystem(
        label=f"X_{r}(U{N}/G3)",
        N=N,
        r=r,
        pairs=y.pairs,
        extra=tuple(f"a{s}+a{s + 1}" for s in range(1, N - 1)),
    )


def u3_y_closed_form(q: int, r: int) -> int:
    """Pairs of proportional r-vectors: 1 + (q+1)(q^r - 1)."""
    return 1 + (q + 1) * (q**r - 1)


def dim_estimate(count: int, q: int) -> float:
    if count <= 0:
        return float("-inf")
    return math.log(count) / math.log(q)


def dim_matches(count: int, q: int, dim: int) -> bool:
    """Does log_q of ``count`` sit within ``DIM_WINDOW`` of the dimension ``dim``?"""
    return abs(dim_estimate(count, q) - dim) <= DIM_WINDOW


# -- sub-diagram component combinatorics ---------------------------------------


class Subdiagram(NamedTuple):
    """A retained-node subset of the type-A path on N-1 nodes."""

    N: int
    nodes: frozenset[int]

    def segments(self) -> tuple[tuple[int, int], ...]:
        out = []
        run: list[int] = []
        for s in range(1, self.N):
            if s in self.nodes:
                run.append(s)
            elif run:
                out.append((run[0], run[-1]))
                run = []
        if run:
            out.append((run[0], run[-1]))
        return tuple(out)

    @property
    def components(self) -> int:
        return len(self.segments())

    def predicted_dim(self, r: int) -> int:
        return len(self.nodes) + (r - 1) * self.components

    def label(self) -> str:
        if not self.nodes:
            return "empty"
        return "|".join(
            f"a{lo}" if lo == hi else f"a{lo}-a{hi}" for lo, hi in self.segments()
        )


class SubdiagramFamily(NamedTuple):
    N: int
    r: int
    members: tuple[Subdiagram, ...]

    def predicted_dims(self) -> dict[str, int]:
        return {d.label(): d.predicted_dim(self.r) for d in self.members}

    def max_predicted_dim(self) -> int:
        return max(d.predicted_dim(self.r) for d in self.members)

    def members_json(self) -> list[dict]:
        return [
            {
                "label": d.label(),
                "nodes": sorted(d.nodes),
                "components": d.components,
                "predicted_dim": d.predicted_dim(self.r),
            }
            for d in self.members
        ]


def _check_budget(work: int, what: str, budget: int | None) -> None:
    """Exit 3 when ``work`` steps exceed ``budget``; ``what`` names them."""
    budget = DEFAULT_POINT_BUDGET if budget is None else budget
    if work > budget:
        raise BudgetError(f"{what} exceed the enumeration budget {budget}")


def subdiagram_components(N: int, r: int, budget: int | None = None) -> SubdiagramFamily:
    """Recursive family: remove a node only if it splits off a new component.

    Such a node is inside a segment, so the members are the path minus each
    pairwise non-adjacent set of nodes 2..N-2: F(N-1) of them, refused before
    they are listed when that exceeds ``budget``."""
    if N < 3 or r < 1:
        raise ConfigError("need N >= 3 and r >= 1")
    size, last = 1, 1  # F(s) and F(s-1), from s = 2
    for _ in range(N - 3):
        size, last = size + last, size
    _check_budget(size, f"F({N - 1}) = {size} sub-diagrams of N = {N}", budget)
    # the non-adjacent subsets of nodes 2..s, and of nodes 2..s-1
    removed, shorter = [()], [()]
    for s in range(2, N - 1):
        removed, shorter = removed + [(*rest, s) for rest in shorter], removed
    members = sorted(
        (Subdiagram(N, frozenset(range(1, N)).difference(gone)) for gone in removed),
        key=lambda d: (-len(d.nodes), sorted(d.nodes)),
    )
    return SubdiagramFamily(N, r, tuple(members))


def component_system(N: int, r: int, diagram: Subdiagram) -> VarietySystem:
    """Removed coordinates vanish; retained segments are pairwise proportional."""
    return VarietySystem(
        label=f"V[{diagram.label()}]",
        N=N,
        r=r,
        zero=tuple(s for s in range(1, N) if s not in diagram.nodes),
        pairs=tuple(
            pair
            for lo, hi in diagram.segments()
            for pair in itertools.combinations(range(lo, hi + 1), 2)
        ),
    )


#: the four-strand components: V1 drops the middle node, V2 keeps it
U4_COMPONENTS = {"V1": "a1|a3", "V2": "a1-a3"}


def u4_component_counts(
    r: int, q_list, budget: int | None = None
) -> dict[int, dict[str, int]]:
    """Per q: the counts of Y, V1, V2 and V1&V2, and the inclusion-exclusion
    residual Y - (V1 + V2 - V1&V2), which is 0 when V1 and V2 cover Y.

    A relabelling of ``conjecture_check(4, r, ...)``, whose family is exactly
    V1 and V2."""
    report = conjecture_check(4, r, q_list, budget)
    (both,) = report.subset_counts.values()
    return {
        q: {
            "Y": report.y_counts[q],
            **{
                v: report.component_counts[label][q]
                for v, label in U4_COMPONENTS.items()
            },
            "V1&V2": both[q],
            "residual": report.residuals[q],
        }
        for q in report.q_list
    }


# -- reports ---------------------------------------------------------------------


class ComponentReport(NamedTuple):
    """Inclusion-exclusion evidence for a conjectural component decomposition."""

    N: int
    r: int
    q_list: tuple[int, ...]
    family: SubdiagramFamily
    y_counts: dict[int, int]
    component_counts: dict[str, dict[int, int]]
    subset_counts: dict[tuple[str, ...], dict[int, int]]
    residuals: dict[int, int]

    def dim_estimates(self) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {"Y": {}}
        for q, c in self.y_counts.items():
            out["Y"][q] = dim_estimate(c, q)
        for label, counts in self.component_counts.items():
            out[label] = {q: dim_estimate(c, q) for q, c in counts.items()}
        return out

    def max_dim_matches(self) -> dict[int, bool]:
        best = self.family.max_predicted_dim()
        return {q: dim_matches(c, q, best) for q, c in self.y_counts.items()}

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "N": self.N,
            "r": self.r,
            "q_list": list(self.q_list),
            "conjectural": True,
            "members": self.family.members_json(),
            "y_counts": {str(q): c for q, c in self.y_counts.items()},
            "component_counts": {
                label: {str(q): c for q, c in counts.items()}
                for label, counts in self.component_counts.items()
            },
            "subset_counts": {
                "&".join(key): {str(q): c for q, c in counts.items()}
                for key, counts in self.subset_counts.items()
            },
            "residuals": {str(q): v for q, v in self.residuals.items()},
            "dim_estimates": {
                label: {str(q): est for q, est in per.items()}
                for label, per in self.dim_estimates().items()
            },
            "max_dim_matches": {str(q): v for q, v in self.max_dim_matches().items()},
        }


def conjecture_check(
    N: int,
    r: int,
    q_list=(3,),
    max_assignments: int | None = None,
) -> ComponentReport:
    """Count the quotient variety and its predicted components exhaustively.

    Inclusion-exclusion runs over all non-empty subsets of the predicted
    family (intersections are unions of the relation systems).  A zero
    residual means the predicted components cover every rational point with
    the right multiplicities; a nonzero residual is reported, not raised.
    Y's count checks q and the budget for every subset: they share its variables.
    A q listed twice would subtract each subset twice, so it is refused.  After
    Y's count, itself bounded by q^n, and before any subset is counted, the
    budget bounds the 2^k - 1 subsets of the k members times the 2^(N-1) zero
    patterns each may visit.
    """
    q_list = tuple(q_list)
    if len(set(q_list)) < len(q_list):
        raise ConfigError(f"q_list names a q more than once: {list(q_list)}")
    y_system = y_variety_system(N, r)
    y_counts = {q: y_system.count(q, max_assignments) for q in q_list}
    family = subdiagram_components(N, r, max_assignments)
    k = len(family.members)
    work = ((1 << k) - 1) << (N - 1)
    what = f"(2^{k} - 1) subsets of the {k}-member family times 2^{N - 1} zero patterns"
    _check_budget(work, f"{what} = {work}", max_assignments)
    systems = {d.label(): component_system(N, r, d) for d in family.members}
    report = ComponentReport(N, r, q_list, family, y_counts, {}, {}, dict(y_counts))
    labels = [d.label() for d in family.members]
    for size in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, size):
            merged = functools.reduce(VarietySystem.union, map(systems.get, combo))
            counts = {q: merged.count_polynomial(q) for q in q_list}
            if size == 1:
                report.component_counts[combo[0]] = counts
            else:
                report.subset_counts[combo] = counts
            for q in q_list:
                report.residuals[q] += (-1) ** size * counts[q]
    return report
