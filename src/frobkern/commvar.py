"""Point-counting evidence for the commuting-nilpotent varieties.

Systems are stored with signed integer coefficients so the same equations
can be counted over fields of different characteristics; a presentation is
materialised per characteristic on demand.  Everything here is exhaustive
enumeration: dimensions are bracketed by log_q of exact counts over two
primes rather than computed symbolically, and component decompositions are
checked by inclusion-exclusion over unions of relation systems.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ConfigError, DomainError
from .polyalg import (
    GF,
    IdealPresentation,
    count_points,
    pair_terms,
    plain_ring,
    solution_chunks,
)
from .rootsys import generator_name

#: solution rows that ``solution_rows`` may list; it is the brute-force
#: oracle that the tests check ``count_points`` against
DEFAULT_POINT_LIST_BUDGET = 600_000

#: how far log_q of a count may sit from the predicted dimension
DIM_WINDOW = 0.5

SignedTerm = tuple[int, tuple[tuple[str, int], ...]]


@dataclass(frozen=True)
class VarietySystem:
    """A polynomial system with integer coefficients over named variables."""

    label: str
    variables: tuple[str, ...]
    relations: tuple[tuple[SignedTerm, ...], ...]
    free_rank: int = 0  # affine factor split off the ambient quotient variety

    def presentation(self, char: int) -> IdealPresentation:
        ring = plain_ring(char, self.variables, label=self.label)
        return IdealPresentation(
            ring,
            [ring.from_terms((c, dict(exps)) for c, exps in rel) for rel in self.relations],
        )

    def union(self, other: "VarietySystem") -> "VarietySystem":
        if self.variables != other.variables:
            raise DomainError("systems over different variable sets")
        merged = list(self.relations)
        for rel in other.relations:
            if rel not in merged:
                merged.append(rel)
        return VarietySystem(
            f"{self.label} & {other.label}",
            self.variables,
            tuple(merged),
            free_rank=self.free_rank,
        )

    def count(self, q: int, max_assignments: int | None = None) -> int:
        char = GF._factor(q)[0]
        return count_points(self.presentation(char), q, max_assignments=max_assignments)


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


def _chain_variables(N: int, r: int) -> tuple[str, ...]:
    return tuple(generator_name("X", f"a{s}", l) for l in range(r) for s in range(1, N))


def y_variety_system(N: int, r: int) -> VarietySystem:
    """Level-1 coordinates of the stage-3 quotient with consecutive minors."""
    if N < 3 or r < 1:
        raise ConfigError("need N >= 3 and r >= 1")
    relations = []
    for s in range(1, N - 1):
        for l1 in range(r):
            for l2 in range(l1 + 1, r):
                relations.append(_minor(f"a{s}", f"a{s+1}", l1, l2))
    return VarietySystem(
        label=f"Y_{r}(U{N}/G3)",
        variables=_chain_variables(N, r),
        relations=tuple(relations),
        free_rank=(N - 2) * r,
    )


def x_variety_system(N: int, r: int) -> VarietySystem:
    """Full stage-3 quotient system: the chain minors of the Y system.

    The level-2 coordinates X[a_s+a_(s+1)](l) appear in no relation, so the
    system splits off an affine factor of rank (N-2) r.  Variables follow the
    coordinate algebra: for each twist, the level-1 coordinates, then the
    level-2 ones.
    """
    y = y_variety_system(N, r)
    labels = [f"a{s}" for s in range(1, N)] + [f"a{s}+a{s + 1}" for s in range(1, N - 1)]
    return VarietySystem(
        label=f"X_{r}(U{N}/G3)",
        variables=tuple(generator_name("X", label, l) for l in range(r) for label in labels),
        relations=y.relations,
        free_rank=y.free_rank,
    )


def u3_y_closed_form(q: int, r: int) -> int:
    """Pairs of proportional r-vectors: 1 + (q+1)(q^r - 1)."""
    return 1 + (q + 1) * (q**r - 1)


def dim_estimate(count: int, q: int) -> float:
    if count <= 0:
        return float("-inf")
    return math.log(count) / math.log(q)


def solution_rows(
    system: VarietySystem, q: int, max_rows: int | None = None
) -> np.ndarray:
    """All F_q solutions as rows of variable values (index encoding)."""
    budget = DEFAULT_POINT_LIST_BUDGET if max_rows is None else max_rows
    n = len(system.variables)
    if q**n > budget:
        raise BudgetError(f"{q}^{n} assignments exceed the point-list budget {budget}")
    char = GF._factor(q)[0]
    chunks = solution_chunks(system.presentation(char), GF(q, char=char))
    found = np.concatenate(list(chunks))
    return np.stack([(found // q**i % q).astype(np.int32) for i in range(n)], axis=1)


# -- sub-diagram component combinatorics ---------------------------------------


@dataclass(frozen=True)
class Subdiagram:
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


@dataclass(frozen=True)
class SubdiagramFamily:
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


def subdiagram_components(N: int, r: int) -> SubdiagramFamily:
    """Recursive family: remove a node only if it splits off a new component."""
    if N < 3:
        raise ConfigError("need N >= 3")
    full = Subdiagram(N, frozenset(range(1, N)))
    found = {full.nodes}
    queue = [full]
    while queue:
        diagram = queue.pop()
        for node in sorted(diagram.nodes):
            smaller = Subdiagram(N, diagram.nodes - {node})
            if smaller.components == diagram.components + 1:
                if smaller.nodes not in found:
                    found.add(smaller.nodes)
                    queue.append(smaller)
    members = sorted(
        (Subdiagram(N, nodes) for nodes in found),
        key=lambda d: (-len(d.nodes), sorted(d.nodes)),
    )
    return SubdiagramFamily(N, r, tuple(members))


def component_system(N: int, r: int, diagram: Subdiagram) -> VarietySystem:
    """Removed coordinates vanish; retained segments are pairwise proportional."""
    variables = _chain_variables(N, r)
    relations = []
    removed = [s for s in range(1, N) if s not in diagram.nodes]
    for s in removed:
        for l in range(r):
            relations.append(((1, ((f"X[a{s}]({l})", 1),)),))
    for lo, hi in diagram.segments():
        for s in range(lo, hi + 1):
            for t in range(s + 1, hi + 1):
                for l1 in range(r):
                    for l2 in range(l1 + 1, r):
                        relations.append(_minor(f"a{s}", f"a{t}", l1, l2))
    return VarietySystem(
        label=f"V[{diagram.label()}]",
        variables=variables,
        relations=tuple(relations),
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


@dataclass
class ComponentReport:
    """Inclusion-exclusion evidence for a conjectural component decomposition."""

    N: int
    r: int
    q_list: tuple[int, ...]
    family: SubdiagramFamily
    y_counts: dict[int, int] = field(default_factory=dict)
    component_counts: dict[str, dict[int, int]] = field(default_factory=dict)
    subset_counts: dict[tuple[str, ...], dict[int, int]] = field(default_factory=dict)
    residuals: dict[int, int] = field(default_factory=dict)

    def dim_estimates(self) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {"Y": {}}
        for q, c in self.y_counts.items():
            out["Y"][q] = dim_estimate(c, q)
        for label, counts in self.component_counts.items():
            out[label] = {q: dim_estimate(c, q) for q, c in counts.items()}
        return out

    def max_dim_matches(self) -> dict[int, bool]:
        best = self.family.max_predicted_dim()
        return {
            q: abs(dim_estimate(c, q) - best) <= DIM_WINDOW
            for q, c in self.y_counts.items()
        }

    def component_dim_matches(self) -> dict[str, dict[int, bool]]:
        out = {}
        dims = self.family.predicted_dims()
        for label, counts in self.component_counts.items():
            out[label] = {
                q: abs(dim_estimate(c, q) - dims[label]) <= DIM_WINDOW
                for q, c in counts.items()
            }
        return out

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
    """
    family = subdiagram_components(N, r)
    y_system = y_variety_system(N, r)
    systems = {d.label(): component_system(N, r, d) for d in family.members}
    report = ComponentReport(N=N, r=r, q_list=tuple(q_list), family=family)
    labels = [d.label() for d in family.members]
    for q in q_list:
        report.y_counts[q] = y_system.count(q, max_assignments)
        report.residuals[q] = report.y_counts[q]
    for size in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, size):
            merged = functools.reduce(VarietySystem.union, map(systems.get, combo))
            counts = {q: merged.count(q, max_assignments) for q in q_list}
            if size == 1:
                report.component_counts[combo[0]] = counts
            else:
                report.subset_counts[combo] = counts
            for q in q_list:
                report.residuals[q] += (-1) ** size * counts[q]
    return report
