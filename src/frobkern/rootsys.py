"""Classical root-system data for types A-D, parabolic level/shape bookkeeping.

Roots are stored as integer coefficient vectors over the simple basis
``a1, ..., an``.  Relative to a subset ``J`` of simple roots we record for
each positive root outside the Levi its height (total coefficient sum),
its level (coefficient sum over simple roots outside ``J``) and its shape
(the component supported outside ``J``).  The descending central series of
the unipotent radical is then read off level-wise: the ``v``-th stage is
spanned by the roots of level >= v.

Root systems and contexts are cached; a context keeps its level table and
a root system the two-term decompositions of each root it was asked about.

The fixed total order on roots compares coefficient vectors from the
highest simple-root index downwards, so alpha < alpha + gamma whenever
gamma is a nonzero non-negative combination (the order respects addition).
For type A this agrees with reading the strictly-upper-triangular matrix
positions column-major.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property
from operator import sub
from typing import NamedTuple

from .errors import BudgetError, ConfigError, DomainError
from .polyalg import DEFAULT_POINT_BUDGET, check_odd_prime

FAMILIES = ("A", "B", "C", "D")


class _RootFields(NamedTuple):
    coeffs: tuple[int, ...]


class Root(_RootFields):
    """A root written in the simple basis; coeffs[i] multiplies a(i+1).
    Roots compare by ``sort_key`` in every direction, never in tuple order."""

    def __new__(cls, coeffs):
        return super().__new__(cls, tuple(map(int, coeffs)))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def is_positive(self) -> bool:
        return any(self.coeffs) and min(self.coeffs) >= 0

    def __add__(self, other: "Root") -> "Root":
        if len(self.coeffs) != len(other.coeffs):
            raise DomainError("cannot add roots of different ranks")
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Root") -> "Root":
        if len(self.coeffs) != len(other.coeffs):
            raise DomainError("cannot subtract roots of different ranks")
        return Root(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def sort_key(self) -> tuple[int, ...]:
        # Highest-index coefficient dominates; respects addition on the
        # positive cone.
        return tuple(reversed(self.coeffs))

    def __lt__(self, other: "Root") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Root") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Root") -> bool:
        return other < self

    def __ge__(self, other: "Root") -> bool:
        return other <= self

    def label(self) -> str:
        return self._label

    @cached_property
    def _label(self) -> str:  # generator names ask for it hundreds of times a model
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            if c == 1:
                parts.append(f"a{i}")
            elif c:
                parts.append(f"{c}a{i}")
        return "+".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Root({self.label()})"


def generator_name(kind: str, label: str, twist: int) -> str:
    """The name kind[label](twist) of a twisted generator or coordinate."""
    return f"{kind}[{label}]({twist})"


def parse_root(text: str, rank: int) -> Root:
    """Parse either a comma list of coefficients or a label like a1+2a3."""
    text = text.strip()
    if not text:
        raise DomainError("empty root")
    if "," in text or text.lstrip("-").isdigit():
        try:
            coeffs = [int(t) for t in text.split(",")]
        except ValueError:
            raise DomainError(f"cannot parse root coefficients {text!r}") from None
        if len(coeffs) != rank:
            raise DomainError(f"expected {rank} coefficients, got {len(coeffs)}")
        return Root(tuple(coeffs))
    coeffs = [0] * rank
    for part in text.split("+"):
        part = part.strip()
        head, _, idx = part.partition("a")
        if not (idx.isdecimal() and (not head or head.removeprefix("-").isdecimal())):
            raise DomainError(f"cannot parse root component {part!r}")
        i = int(idx)
        if not 1 <= i <= rank:
            raise DomainError(f"simple root a{i} out of range for rank {rank}")
        coeffs[i - 1] += int(head) if head else 1
    return Root(tuple(coeffs))


@cache
def _segments(family: str, n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Every positive root as segments (lo, hi, c): the sum of c(a_lo + ... + a_hi).

    A segment with lo > hi is empty.  The segments of one root are disjoint.
    """
    if family == "A":
        return tuple(((i, j, 1),) for i in range(1, n + 1) for j in range(i, n + 1))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    differences = [((i, j - 1, 1),) for i, j in pairs]  # e_i - e_j
    if family == "B":
        # e_i and e_i + e_j, with a_n the short root e_n
        return tuple(
            differences
            + [((i, n, 1),) for i in range(1, n + 1)]
            + [((i, j - 1, 1), (j, n, 2)) for i, j in pairs]
        )
    if family == "C":
        # e_i + e_j and 2e_i, with a_n the long root 2e_n
        return tuple(
            differences
            + [((i, j - 1, 1), (j, n - 1, 2), (n, n, 1)) for i, j in pairs]
            + [((i, n - 1, 2), (n, n, 1)) for i in range(1, n + 1)]
        )
    if family == "D":
        # e_i + e_n and e_i + e_j (j < n), with a_n the fork node e_{n-1} + e_n
        return tuple(
            differences
            + [((i, n - 2, 1), (n, n, 1)) for i in range(1, n)]
            + [
                ((i, j - 1, 1), (j, n - 2, 2), (n - 1, n - 1, 1), (n, n, 1))
                for i, j in pairs
                if j < n
            ]
        )
    raise ConfigError(f"unknown family {family!r}")  # pragma: no cover


def _positive_roots(family: str, n: int) -> list[Root]:
    roots = []
    for segments in _segments(family, n):
        coeffs = [0] * n
        for lo, hi, c in segments:
            coeffs[lo - 1 : hi] = [c] * (hi - lo + 1)
        roots.append(Root(tuple(coeffs)))
    return sorted(roots, key=Root.sort_key)


def classical_positive_count(family: str, n: int) -> int:
    if family == "A":
        return n * (n + 1) // 2
    if family in ("B", "C"):
        return n * n
    return n * n - n  # D


class _RootSystemFields(NamedTuple):
    family: str
    rank: int
    simple_roots: tuple[str, ...]
    positive_roots: tuple[Root, ...]


class RootSystemData(_RootSystemFields):
    """A positive-root table; its memos live outside equality and hash."""

    def __new__(cls, family, rank, simple_roots, positive_roots):
        expected = classical_positive_count(family, rank)
        if len(positive_roots) != expected:
            raise ConfigError(
                f"{family}{rank}: got {len(positive_roots)} "
                f"positive roots, expected {expected}"
            )
        for beta in positive_roots:
            if not beta.is_positive():
                raise ConfigError(f"non-positive root {beta} in table")
        self = super().__new__(cls, family, rank, simple_roots, positive_roots)
        self._splittings = {}
        return self

    def simple_index(self, label: str) -> int:
        try:
            return self.simple_roots.index(label)
        except ValueError:
            raise ConfigError(f"unknown simple root {label!r}") from None

    @cached_property
    def _by_coeffs(self) -> dict[tuple[int, ...], Root]:
        return {beta.coeffs: beta for beta in self.positive_roots}

    def contains(self, beta: Root) -> bool:
        return beta.coeffs in self._by_coeffs

    def decompositions(self, beta: Root) -> tuple[tuple[Root, Root], ...]:
        """Pairs alpha < alpha' of positive roots summing to beta, by alpha (memoised)."""
        pairs = self._splittings.get(beta)
        if pairs is None:
            lookup, target = self._by_coeffs, beta.coeffs
            found = []
            for alpha in self.positive_roots:
                rest = lookup.get(tuple(map(sub, target, alpha.coeffs)))
                if rest is not None and alpha < rest:
                    found.append((alpha, rest))
            found.sort(key=lambda ab: ab[0].sort_key())
            pairs = self._splittings[beta] = tuple(found)
        return pairs


def _classical_type(family: str, rank: int) -> str:
    """The family's letter, once (family, rank) is known to be a classical type."""
    family = family.upper()
    if family not in FAMILIES:
        raise ConfigError(f"family {family!r} not supported (use A, B, C or D)")
    min_rank = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
    if rank < min_rank:
        raise ConfigError(f"{family}{rank} is not a valid classical type here")
    return family


def build_root_system(family: str, rank: int) -> RootSystemData:
    """Positive-root table for a classical family, in the fixed order."""
    return _root_system(_classical_type(family, rank), rank)


@cache
def _root_system(family: str, rank: int) -> RootSystemData:
    labels = tuple(f"a{i}" for i in range(1, rank + 1))
    return RootSystemData(family, rank, labels, tuple(_positive_roots(family, rank)))


class _ParabolicFields(NamedTuple):
    system: RootSystemData
    J: frozenset[str]


class ParabolicContext(_ParabolicFields):
    """A root system together with a choice J of simple roots (the Levi)."""

    def __new__(cls, system, J=frozenset()):
        J = frozenset(J)
        for label in J:
            system.simple_index(label)
        return super().__new__(cls, system, J)

    @property
    def rank(self) -> int:
        return self.system.rank

    @cached_property
    def _outside_mask(self) -> tuple[bool, ...]:
        return tuple(lab not in self.J for lab in self.system.simple_roots)

    def _level_of(self, beta: Root) -> int:
        return sum(itertools.compress(beta.coeffs, self._outside_mask))

    @cached_property
    def _levels(self) -> dict[Root, int]:
        """Level of every positive root: the sum of its coefficients outside J."""
        roots = self.system.positive_roots
        columns = itertools.compress(zip(*(b.coeffs for b in roots)), self._outside_mask)
        return dict(zip(roots, map(sum, zip([0] * len(roots), *columns))))

    @cached_property
    def _radical(self) -> tuple[Root, ...]:
        return tuple(b for b, v in self._levels.items() if v >= 1)

    @cached_property
    def _layers(self) -> dict[int, tuple[Root, ...]]:
        """Radical roots by level, each layer in the fixed order, as the table is."""
        layers: dict[int, list[Root]] = {}
        for b, v in self._levels.items():
            if v:
                layers.setdefault(v, []).append(b)
        return {v: tuple(roots) for v, roots in layers.items()}

    @cached_property
    def _level2_pairs(self) -> tuple:  # (root, splittings), read by the scan at every p
        return tuple((beta, summand_pairs(beta, self)) for beta in roots_of_level(self, 2))

    def level(self, beta: Root) -> int:
        level = self._levels.get(beta)
        return self._level_of(beta) if level is None else level

    def shape(self, beta: Root) -> Root:
        mask = self._outside_mask
        return Root(tuple(c if out else 0 for c, out in zip(beta.coeffs, mask)))

    def radical_roots(self) -> tuple[Root, ...]:
        """Roots of the unipotent radical: positive roots of level >= 1."""
        return self._radical

    def max_level(self) -> int:
        return max(self._layers, default=0)


class _LevelFields(NamedTuple):
    height: int
    level: int
    shape: Root


class LevelClass(_LevelFields):
    def __new__(cls, height, level, shape):
        if level > height:
            raise DomainError("level cannot exceed height")
        return super().__new__(cls, height, level, shape)


def classify_root(beta: Root, ctx: ParabolicContext) -> LevelClass:
    """Height/level/shape of a radical root relative to ctx.J."""
    if not ctx.system.contains(beta):
        raise DomainError(f"{beta} is not a positive root of {ctx.system.family}{ctx.rank}")
    level = ctx.level(beta)
    if level == 0:
        raise DomainError(f"{beta} lies in the Levi subsystem for J={sorted(ctx.J)}")
    return LevelClass(height=beta.height, level=level, shape=ctx.shape(beta))


def gamma_roots(ctx: ParabolicContext, v: int) -> tuple[Root, ...]:
    """Roots of level >= v, in the fixed order (the v-th central-series stage)."""
    if v < 1:
        raise DomainError("central series stage v must be >= 1")
    stage = (b for u, layer in ctx._layers.items() if u >= v for b in layer)
    return tuple(sorted(stage, key=Root.sort_key))


def roots_of_level(ctx: ParabolicContext, v: int) -> tuple[Root, ...]:
    if v < 1:
        raise DomainError("central series stage v must be >= 1")
    return ctx._layers.get(v, ())


def summand_pairs(
    beta: Root, ctx: ParabolicContext, min_level: int = 1
) -> list[tuple[Root, Root]]:
    """All ordered pairs alpha < alpha' of radical roots with alpha+alpha' = beta.

    Both members must have level >= min_level (use min_level=i when working
    inside the i-th stage of the central series).  Pairs are returned sorted
    and duplicate-free; a root never decomposes as alpha+alpha in a reduced
    system, so the strict order loses nothing.
    """
    if not ctx.system.contains(beta):
        raise DomainError(f"{beta} is not a positive root")
    levels, least = ctx._levels, max(min_level, 1)
    return [
        (a, b)
        for a, b in ctx.system.decompositions(beta)
        if levels[a] >= least and levels[b] >= least
    ]


def check_scan_budget(
    family: str, rank: int, J: frozenset[str] | set[str] | tuple = (),
    budget: int | None = None,
) -> None:
    """Refuse a level-2 pairing scan that would read more than ``budget`` coefficients.

    The positive-root table holds (positive roots) x rank coefficients, and
    the scan reads (level-2 roots) x (positive roots) x rank of them.  Levels
    are counted on the segments of the roots, so no table is built here.
    ``budget`` defaults to ``DEFAULT_POINT_BUDGET``.
    """
    family = _classical_type(family, rank)
    budget = DEFAULT_POINT_BUDGET if budget is None else budget
    table = classical_positive_count(family, rank) * rank
    if table > budget:
        raise BudgetError(
            f"{family}{rank}: the positive-root table holds {table} coefficients, "
            f"over the enumeration budget {budget}"
        )
    # level-2 roots, counted on their segments; outside[k]: a1..ak outside J
    outside = list(
        itertools.accumulate((f"a{k}" not in J for k in range(1, rank + 1)), initial=0)
    )
    level2 = sum(
        sum(c * (outside[hi] - outside[lo - 1]) for lo, hi, c in root) == 2
        for root in _segments(family, rank)
    )
    if level2 * table > budget:
        raise BudgetError(
            f"{family}{rank}: the pairing scan reads {level2} level-2 roots x "
            f"{table} table coefficients = {level2 * table}, over the enumeration "
            f"budget {budget}"
        )


class PairingReport(NamedTuple):
    """Outcome of the level-2 decomposition-count scan for one context."""

    family: str
    rank: int
    J: tuple[str, ...]
    p: int
    ok: bool
    per_root: tuple[tuple[Root, int, bool], ...]  # (root, #pairs, ok)
    witnesses: tuple[tuple[Root, tuple[Root, ...]], ...]

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "J": list(self.J),
            "per_root": [
                {"root": r.label(), "pairs": n, "ok": ok} for r, n, ok in self.per_root
            ],
            "witnesses": [
                {"root": r.label(), "roots": [w.label() for w in ws]}
                for r, ws in self.witnesses
            ],
        }


def check_pairing_hypothesis(ctx: ParabolicContext, p: int) -> PairingReport:
    """Scan level-2 roots for p disjoint two-term decompositions.

    Distinct decompositions of the same root are automatically disjoint
    (alpha + alpha' = alpha + alpha'' forces alpha' = alpha''), so 2p
    distinct level-1 roots pairing to beta exist exactly when beta has at
    least p decompositions into level-1 summands (levels add, so both
    summands of a level-2 root have level 1).  On failure the first p
    decompositions are flattened into the witness tuple.  The context holds
    its root table already: ``check_scan_budget`` bounds the scan before
    the table is built.
    """
    check_odd_prime(p)
    per_root = []
    witnesses = []
    for beta, pairs in ctx._level2_pairs:
        ok = len(pairs) < p
        per_root.append((beta, len(pairs), ok))
        if not ok:
            flat = tuple(itertools.chain.from_iterable(pairs[:p]))
            witnesses.append((beta, flat))
    return PairingReport(
        family=ctx.system.family,
        rank=ctx.rank,
        J=tuple(sorted(ctx.J)),
        p=p,
        ok=all(ok for _, _, ok in per_root),
        per_root=tuple(per_root),
        witnesses=tuple(witnesses),
    )


def context(
    family: str, rank: int, J: frozenset[str] | set[str] | tuple = ()
) -> ParabolicContext:
    """The (cached) context of J in the named root system."""
    return _context(family.upper(), rank, frozenset(J))


@cache
def _context(family: str, rank: int, J: frozenset[str]) -> ParabolicContext:
    return ParabolicContext(build_root_system(family, rank), J)
