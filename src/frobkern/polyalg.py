"""Graded-commutative polynomial arithmetic over F_p, Groebner bases and
dimension counting.

A ring holds even (polynomial) and odd (exterior) variables; monomials are
dense exponent tuples in a fixed variable order, odd exponents never exceed
one, and products pick up the Koszul sign from transposing odd factors.
Ideal machinery (Buchberger, normal forms, Hilbert series) is restricted
to the even subring, which is all the model ideals need.  Every divisibility
test there first compares support bitmasks (Singular's divisor mask), and
the Hilbert numerator comes from Bigatti's pivot recursion.

The checks that every F_q point count makes before any work (q a power of
an odd prime, then the budget on q^n) live here too; the counts themselves
are in ``commvar``, and their numpy oracle ``count_points`` defers to
``pointcount``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import add, le, mul, sub

from .errors import BudgetError, ConfigError, DomainError, UnsupportedOperationError

EVEN = "even"
ODD = "odd"

#: nominal assignments q^n that a point count accepts (about 5^10)
DEFAULT_POINT_BUDGET = 10_000_000


#: the primes below 43; as Miller-Rabin bases they decide every n below
#: ``_MR_BOUND`` (Sorenson & Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin on ``_MR_BASES``.  A composite verdict is a proof at any
    size; an n from ``_MR_BOUND`` on that passes every base is undecided, a
    BudgetError."""
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    if not n % 2 or not all(
        x == 1 or n - 1 in (pow(x, 1 << i, n) for i in range(s))
        for x in (pow(a, (n - 1) >> s, n) for a in _MR_BASES)
    ):
        return False
    if n >= _MR_BOUND:
        raise BudgetError(
            f"{n} passes Miller-Rabin on the primes below 43, which decides"
            f" primality only below {_MR_BOUND}"
        )
    return True


def check_odd_prime(p: int) -> None:
    """Every ring is over F_p with p odd: the Koszul signs need -1 != 1."""
    if not is_prime(p) or p == 2:
        raise ConfigError(f"p must be an odd prime, got {p}")


@dataclass(frozen=True)
class VariableDescriptor:
    """One generator: name, parity, cohomological degree and T-weight."""

    name: str
    parity: str = EVEN
    degree: int = 0
    weight: tuple[int, ...] = ()

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ConfigError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.parity == ODD and self.degree % 2 == 0:
            raise ConfigError(f"odd variable {self.name} needs odd degree")
        if self.parity == EVEN and self.degree % 2 == 1:
            raise ConfigError(f"even variable {self.name} needs even degree")
        object.__setattr__(self, "weight", tuple(int(w) for w in self.weight))


class PolyRing:
    """F_p polynomial-exterior ring on an ordered variable list."""

    def __init__(self, p: int, variables, label: str = ""):
        check_odd_prime(p)
        variables = tuple(variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate variable names")
        wlens = {len(v.weight) for v in variables}
        if len(wlens) > 1:
            raise ConfigError("all variables must share the weight-vector length")
        self.p = p
        self.variables = variables
        self.label = label
        self.index = {v.name: i for i, v in enumerate(variables)}
        self._odd = tuple(i for i, v in enumerate(variables) if v.parity == ODD)
        self._bits = tuple(1 << i for i in range(len(variables)))
        self._degrees = tuple(v.degree for v in variables)
        self._weights = tuple(v.weight for v in variables)
        self._weight_columns = tuple(zip(*self._weights))
        self.weight_len = wlens.pop() if wlens else 0

    # -- basic structure ---------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.p, self.variables))

    def __repr__(self):
        tag = self.label or ",".join(v.name for v in self.variables[:4])
        return f"PolyRing(F{self.p}; {tag}{'...' if self.nvars > 4 else ''})"

    def descriptor(self, name: str) -> VariableDescriptor:
        return self.variables[self.index[name]]

    # -- element constructors ----------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def const(self, c: int) -> "Poly":
        c %= self.p
        return Poly(self, {(0,) * self.nvars: c} if c else {})

    def one(self) -> "Poly":
        return self.const(1)

    def var(self, name: str) -> "Poly":
        if name not in self.index:
            raise DomainError(f"no variable {name!r} in {self!r}")
        return self.monomial({name: 1})

    def monomial(self, exps: dict, coeff: int = 1) -> "Poly":
        e = [0] * self.nvars
        for name, k in exps.items():
            if name not in self.index:
                raise DomainError(f"no variable {name!r} in {self!r}")
            if k < 0:
                raise DomainError("exponents must be non-negative")
            i = self.index[name]
            if i in self._odd and k >= 2:
                raise DomainError(f"exterior variable {name} cannot carry exponent {k}")
            e[i] = k
        coeff %= self.p
        return Poly(self, {tuple(e): coeff} if coeff else {})

    def from_terms(self, terms) -> "Poly":
        out = self.zero()
        for coeff, exps in terms:
            out = out + self.monomial(exps, coeff)
        return out

    # -- monomial helpers ----------------------------------------------------

    def monomial_degree(self, exps) -> int:
        return sum(map(mul, exps, self._degrees))

    def monomial_weight(self, exps) -> tuple[int, ...]:
        return tuple(sum(map(mul, exps, column)) for column in self._weight_columns)

    def weight_order(self):
        """(order, best): the variables from the largest weight per degree
        down, and best[n][k] = (num, den), the largest weight per degree in
        coordinate k among the variables order[n:], for cross-multiplying."""
        degrees = self._degrees
        weights = self._weights
        scale = math.lcm(*degrees)
        order = sorted(range(self.nvars), key=lambda i: -sum(weights[i]) * scale // degrees[i])
        best = [[(0, 1)] * self.weight_len]
        for i in reversed(order):
            best.append(
                [
                    (w, degrees[i]) if w * den > num * degrees[i] else (num, den)
                    for w, (num, den) in zip(weights[i], best[-1])
                ]
            )
        best.reverse()
        return order, best

    def mul_monomials(self, e1, e2):
        """(sign, exps) for the graded product, or None if it vanishes."""
        sign = 1
        if self._odd:
            o1 = [i for i in self._odd if e1[i]]
            o2 = [i for i in self._odd if e2[i]]
            if o1 and o2:
                s2 = set(o2)
                if any(i in s2 for i in o1):
                    return None
                inv = sum(1 for i in o1 for j in o2 if i > j)
                sign = -1 if inv % 2 else 1
        return sign, tuple(map(add, e1, e2))

    def monomial_str(self, exps) -> str:
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(self.variables[i].name)
            elif e:
                parts.append(f"{self.variables[i].name}^{e}")
        return "*".join(parts) if parts else "1"


class Poly:
    """Immutable element of a PolyRing in canonical form."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: v for e, c in terms.items() if (v := c % ring.p)}
        self._lead = None

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise DomainError("operands live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return self + (-other)

    def scale(self, c: int) -> "Poly":
        return Poly(self.ring, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                prod = ring.mul_monomials(e1, e2)
                if prod is None:
                    continue
                sign, e = prod
                terms[e] = terms.get(e, 0) + sign * c1 * c2
        return Poly(ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined")
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            if n >= 2 and any(e[i] for i in self.ring._odd):
                return self.ring.zero()
            return Poly(self.ring, {tuple(n * x for x in e): pow(c, n, self.ring.p)})
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.const(other)
        return (
            isinstance(other, Poly) and self.ring == other.ring and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self):
        return sorted(self.terms, key=_lead_key)

    def leading(self):
        """(exps, coeff) of the degrevlex-leading term."""
        if self._lead is None:
            if not self.terms:
                raise DomainError("zero polynomial has no leading term")
            e = min(self.terms, key=_lead_key)
            self._lead = (e, self.terms[e])
        return self._lead

    def monic(self) -> "Poly":
        _, c = self.leading()
        return self.scale(pow(c, -1, self.ring.p))

    def homogeneous_degree(self):
        """The common cohomological degree of all terms; None if mixed."""
        degs = {self.ring.monomial_degree(e) for e in self.terms}
        if not degs:
            return 0
        return degs.pop() if len(degs) == 1 else None

    def uniform_weight(self):
        """The common T-weight of all terms, or None if mixed."""
        ws = {self.ring.monomial_weight(e) for e in self.terms}
        if not ws:
            return (0,) * self.ring.weight_len
        w = ws.pop()
        return w if not ws else None

    def is_even(self) -> bool:
        odd = set(self.ring._odd)
        return all(all(e[i] == 0 for i in odd) for e in self.terms)

    def to_json_dict(self) -> dict:
        out = []
        for e in self.monomials():
            exps = {
                self.ring.variables[i].name: k for i, k in enumerate(e) if k
            }
            out.append({"c": self.terms[e], "e": exps})
        return {"terms": out}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in self.monomials():
            c = self.terms[e]
            m = self.ring.monomial_str(e)
            if m == "1":
                bits.append(str(c))
            elif c == 1:
                bits.append(m)
            else:
                bits.append(f"{c}*{m}")
        return " + ".join(bits)


class IdealPresentation:
    """Ambient ring plus a relation list.

    Every relation must be homogeneous in cohomological degree and a T-weight
    eigenvector (DomainError otherwise).  Rings whose variables all sit in
    degree zero with no weights pass the check vacuously, which is how the
    generic Groebner examples are phrased.

    The presentation keeps one Buchberger engine: ``hilbert_series`` runs it
    only as far as the degree it asks for, and ``groebner`` runs the same
    state to completion.
    """

    def __init__(self, ring: PolyRing, relations):
        self.ring = ring
        self.relations = tuple(r for r in relations if not r.is_zero())
        for r in self.relations:
            if r.ring != ring:
                raise DomainError("relation from a different ring")
            if r.homogeneous_degree() is None:
                raise DomainError(f"relation {r} is not degree-homogeneous")
            if r.uniform_weight() is None:
                raise DomainError(f"relation {r} is not a T-weight eigenvector")
        self._engine = None
        self._gb = None

    def groebner(self) -> "GroebnerBasis":
        if self._gb is None:
            self._gb = buchberger(self)
        return self._gb


@dataclass(frozen=True)
class GroebnerStats:
    """What the Buchberger engine did; reported beside a payload, never in it."""

    pairs: int = 0  # S-pairs taken from the queue
    product_skipped: int = 0  # coprime leading monomials
    chain_skipped: int = 0  # chain criterion
    deferred: int = 0  # pairs still pending above the requested degree
    reductions: int = 0  # S-polynomials reduced
    zero_reductions: int = 0  # ... of which to zero
    basis_size: int = 0


@dataclass(frozen=True)
class GroebnerBasis:
    ring: PolyRing
    basis: tuple[Poly, ...]
    stats: GroebnerStats = field(default_factory=GroebnerStats, compare=False)


def _quotient(e1, e2):
    return tuple(a - b for a, b in zip(e1, e2))


def _lcm(e1, e2):
    return tuple(map(max, e1, e2))


def _support(exps):
    """(index, exponent) pairs of the nonzero exponents, for divisibility tests."""
    return tuple((i, k) for i, k in enumerate(exps) if k)


def _mask(ring: PolyRing, exps) -> int:
    """Bit i set when exponent i is positive.  A divisor's mask lies inside its
    multiple's, so ``dmask & ~mask`` rejects most non-divisors at once."""
    return sum(itertools.compress(ring._bits, exps))


def _lead_key(exps):
    """The one key of the degrevlex order: min(key) is the leading monomial."""
    return (-sum(exps), exps[::-1])


def _even_only(ring: PolyRing, polys) -> None:
    for f in polys:
        if not f.is_even():
            raise UnsupportedOperationError(
                "Groebner machinery only covers the even subring"
            )


def _divisor(g: Poly):
    """(lead mask, lead support, lead, inverse lead coefficient, tail terms) of g."""
    e, c = g.leading()
    tail = [(t, v) for t, v in g.terms.items() if t != e]
    return _mask(g.ring, e), _support(e), e, pow(c, -1, g.ring.p), tail


def _reduce(work: dict, divisors, ring: PolyRing) -> dict:
    """Remainder of the term dict ``work`` (consumed) under ``divisors``.

    The leading term of ``work`` is top-reduced by the first divisor whose
    lead divides it; a term that no lead divides moves to the remainder.  A
    heap of ``_lead_key`` values finds the leading term; entries whose
    monomial has since cancelled are skipped.
    """
    p = ring.p
    heap = [(_lead_key(e), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e, 0)
        if not c:
            continue
        outside = ~_mask(ring, e)
        for dmask, support, le, inv, tail in divisors:
            if not dmask & outside and all(e[i] >= k for i, k in support):
                break
        else:
            remainder[e] = c
            continue
        q = _quotient(e, le)
        factor = c * inv % p
        for t, v in tail:
            m = tuple(map(add, q, t))
            old = work.get(m)
            new = ((old or 0) - factor * v) % p
            if new:
                work[m] = new
                if old is None:
                    heapq.heappush(heap, (_lead_key(m), m))
            elif old is not None:
                del work[m]
    return remainder


def normal_form(f: Poly, G) -> Poly:
    """Remainder of f under division by the polynomials of G.

    A zero remainder certifies ideal membership for any divisor set; the
    remainder is unique (and the map idempotent) once G is a reduced
    Groebner basis.
    """
    ring = f.ring
    if isinstance(G, _Engine):
        divisors = G.divisors  # the engine checked its relations once
    else:
        basis = G.basis if isinstance(G, GroebnerBasis) else tuple(G)
        _even_only(ring, (f, *basis))
        divisors = [_divisor(g) for g in basis if not g.is_zero()]
    if not divisors:
        return f
    return Poly(ring, _reduce(dict(f.terms), divisors, ring))


def _s_poly(f: Poly, g: Poly) -> Poly:
    ring = f.ring
    ef, cf = f.leading()
    eg, cg = g.leading()
    lcm = _lcm(ef, eg)
    terms: dict = {}
    for h, e, scale in ((f, ef, pow(cf, -1, ring.p)), (g, eg, -pow(cg, -1, ring.p))):
        u = _quotient(lcm, e)
        for t, v in h.terms.items():
            m = tuple(map(add, u, t))
            terms[m] = terms.get(m, 0) + scale * v
    return Poly(ring, terms)


class _Engine:
    """Buchberger state of one even ideal: the basis so far, pending S-pairs.

    Pairs leave a heap ordered by the cohomological degree of
    lcm(lead_i, lead_j), ties broken by (i, j).  A pair is skipped by the
    product criterion (coprime leads) or the chain criterion (some lead_k
    divides the lcm and neither (i, k) nor (j, k) is pending).  Relations are
    degree-homogeneous (``IdealPresentation`` checks), so when every even
    variable has positive degree, an S-pair of degree D reduces to a
    polynomial homogeneous of degree D, and pairs above a degree cannot
    change the leading ideal at or below it: ``advance(limit)`` then stops
    before the first such pair.  Other ideals always run to completion.
    """

    def __init__(self, ring: PolyRing, relations):
        _even_only(ring, relations)
        self.ring = ring
        self.basis: list[Poly] = []  # monic, in insertion order
        self.divisors: list = []  # _divisor of each basis element
        self.queue: list = []  # heap of (degree, i, j)
        self.pending: set = set()  # (i, j) still in the queue
        self.graded = all(d > 0 for i, d in enumerate(ring._degrees) if i not in ring._odd)
        self.counts: Counter = Counter()  # GroebnerStats fields
        for r in relations:
            if not r.is_zero():
                self._add(r.monic())

    def _add(self, g: Poly) -> None:
        n = len(self.basis)
        e = g.leading()[0]
        degrees = self.ring._degrees
        base = self.ring.monomial_degree(e)
        for k, (_, support, _, _, _) in enumerate(self.divisors):
            # the degree of lcm(lead_k, e), from lead_k's few nonzero exponents
            degree = base + sum(degrees[a] * (b - e[a]) for a, b in support if b > e[a])
            heapq.heappush(self.queue, (degree, k, n))
            self.pending.add((k, n))
        self.basis.append(g)
        self.divisors.append(_divisor(g))

    def _chain(self, i: int, j: int, mask: int, lcm) -> bool:
        pending = self.pending
        for k, (dmask, support, _, _, _) in enumerate(self.divisors):
            if (
                not dmask & ~mask
                and k != i
                and k != j
                and all(lcm[a] >= b for a, b in support)
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                return True
        return False

    def advance(self, limit: int | None = None) -> None:
        """Process pairs up to degree ``limit`` (all of them when None)."""
        if not self.graded:
            limit = None
        queue, counts = self.queue, self.counts
        while queue and (limit is None or queue[0][0] <= limit):
            _, i, j = heapq.heappop(queue)
            self.pending.discard((i, j))
            counts["pairs"] += 1
            mi, _, ei, _, _ = self.divisors[i]
            mj, _, ej, _, _ = self.divisors[j]
            if not mi & mj:
                counts["product_skipped"] += 1
                continue
            if self._chain(i, j, mi | mj, _lcm(ei, ej)):
                counts["chain_skipped"] += 1
                continue
            h = normal_form(_s_poly(self.basis[i], self.basis[j]), self)
            counts["reductions"] += 1
            if h.is_zero():
                counts["zero_reductions"] += 1
            else:
                self._add(h.monic())

    def stats(self, basis_size: int) -> GroebnerStats:
        return GroebnerStats(
            **self.counts, deferred=len(self.pending), basis_size=basis_size
        )


def buchberger(ideal: IdealPresentation, degree: int | None = None) -> GroebnerBasis:
    """Groebner basis (degrevlex) of an even-subring ideal.

    Without ``degree`` the basis is complete, minimal and reduced.  With
    ``degree`` the engine stops once every pending pair lies above that
    cohomological degree (graded ideals only, see ``_Engine``), and the
    basis holds the elements whose leading monomial has degree <= ``degree``:
    their leads generate the leading ideal in those degrees, but the basis
    is neither minimal nor reduced.  An ``IdealPresentation`` keeps the
    engine between calls.
    """
    if ideal._engine is None:
        ideal._engine = _Engine(ideal.ring, ideal.relations)
    engine = ideal._engine
    engine.advance(degree)
    ring, G = engine.ring, engine.basis
    if degree is not None:
        below = tuple(g for g in G if ring.monomial_degree(g.leading()[0]) <= degree)
        return GroebnerBasis(ring, below, engine.stats(len(below)))
    # minimalise: drop elements whose lead is divisible by another lead
    minimal: list[Poly] = []
    for g in sorted(G, key=lambda g: _lead_key(g.leading()[0]), reverse=True):
        eg = g.leading()[0]
        if not any(all(map(le, h.leading()[0], eg)) for h in minimal):
            minimal.append(g)
    # inter-reduce tails
    reduced = []
    for k, g in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1 :]
        reduced.append(normal_form(g, others).monic() if others else g)
    reduced.sort(key=lambda g: _lead_key(g.leading()[0]), reverse=True)
    return GroebnerBasis(ring, tuple(reduced), engine.stats(len(reduced)))


# -- graded dimension --------------------------------------------------------


def _minimal(leads, left: int) -> list:
    """The minimal generators of degree <= ``left`` among (degree, mask,
    exponents) leads, ascending: a divisor has at most its multiple's degree."""
    minimal = []
    for lead in sorted(l for l in leads if l[0] <= left):
        _, m, e = lead
        if not any(not fm & ~m and all(map(le, f, e)) for _, fm, f in minimal):
            minimal.append(lead)
    return minimal


def _numerator(minimal, left: int, grade) -> Counter:
    """Numerator of the Hilbert series of ring/(leads), through degree ``left``.

    ``minimal`` holds the minimal generators as (degree, support mask,
    exponents), none above ``left``; the result maps grade to coefficient,
    every term of degree <= ``left``.  Pairwise coprime leads give the
    product of 1 - grade(m).  Otherwise Bigatti's pivot P = x_i^k splits
    N(I) = N(I + (P)) + grade(P) N(I : P) (Bigatti 1997): i is the variable
    in most leads and k the median of its positive exponents, below the pure
    power x_i^j when that is a lead, so that P is not in I.  A lead
    contributes terms of at least its degree, so leads above what is left of
    the degree are dropped.
    """
    # occurs[i]: the number of leads that x_i divides
    occurs = Counter(
        i for _, _, e in minimal for i in itertools.compress(itertools.count(), e)
    )
    ((i, most),) = occurs.most_common(1) or [(0, 0)]
    if most <= 1:  # pairwise coprime leads
        out = Counter({grade(()): 1})
        for _, _, e in minimal:
            g = grade(e)
            for h, c in list(out.items()):
                if h[0] + g[0] <= left:
                    out[tuple(map(add, h, g))] -= c
        return out
    bit = 1 << i
    powers = sorted(e[i] for _, m, e in minimal if m & bit)
    k = powers[len(powers) // 2]
    for _, m, e in minimal:
        if m == bit:  # the pure power x_i^j is a lead, and P must stay outside I
            k = min(k, e[i] - 1)
    pivot = tuple(k if j == i else 0 for j in range(len(minimal[0][2])))
    gp = grade(pivot)
    step = gp[0] // k  # the degree of x_i
    colon = [  # each lead divided by its gcd with the pivot
        (
            d - min(k, e[i]) * step,
            m if e[i] > k else m & ~bit,
            (*e[:i], max(e[i] - k, 0), *e[i + 1 :]),
        )
        for d, m, e in minimal
    ]
    below = [lead for lead in minimal if lead[2][i] < k]
    out = _numerator(below + [(gp[0], bit, pivot)], left, grade)
    rest = left - gp[0]
    for g, c in _numerator(_minimal(colon, rest), rest, grade).items():
        out[tuple(map(add, g, gp))] += c
    return out


def hilbert_series(
    presentation: IdealPresentation,
    degree: int,
    weight: tuple[int, ...] | None = None,
) -> list[int]:
    """F_p-dimensions of the degree 0..``degree`` components of ambient/ideal.

    With ``weight``, of the components of that T-weight.  The leading ideal of
    the Groebner basis through ``degree`` has the numerator of the Hilbert
    series (graded by degree and, when asked, T-weight); each even variable
    divides it by 1 - t^d s^w and each odd one multiplies it by 1 + t^d s^w.
    """
    ring = presentation.ring
    bound = 2 * ring.p * ring.p + 2  # refuses runs whose basis would take long
    if degree > bound:
        raise BudgetError(f"degree {degree} exceeds the bound 2p^2 + 2 = {bound}")
    if degree < 0:
        return []
    if any(d <= 0 for d in ring._degrees):
        raise DomainError("dimension counting needs positive variable degrees")
    if weight is not None and len(weight) != ring.weight_len:
        raise DomainError("weight vector has the wrong length")
    weighted = weight is not None

    def grade(e):
        return (ring.monomial_degree(e), *(ring.monomial_weight(e) if weighted else ()))

    key = tuple(weight) if weighted else ()
    # with no negative variable weight, a class (k, wt) that order[n:] cannot
    # bring to the target by degree ``degree`` is dropped, both while order[n]
    # expands (it may still add to the class) and after it
    monotone = weighted and min(itertools.chain(*ring._weights), default=0) >= 0
    order, best = ring.weight_order() if monotone else (range(ring.nvars), None)

    def keep(k, wt, n):
        return not monotone or all(
            0 <= m and m * den <= (degree - k) * num
            for m, (num, den) in zip(map(sub, key, wt), best[n])
        )

    leads = [g.leading()[0] for g in buchberger(presentation, degree).basis]
    leads = _minimal(((ring.monomial_degree(e), _mask(ring, e), e) for e in leads), degree)
    # by_degree[k]: {weight (or ()): coefficient} of the series in degree k
    by_degree = [Counter() for _ in range(degree + 1)]
    for g, c in _numerator(leads, degree, grade).items():
        if keep(g[0], g[1:], 0):
            by_degree[g[0]][g[1:]] += c
    for n, i in enumerate(order):
        d = ring._degrees[i]
        w = ring._weights[i] if weighted else ()
        # 1/(1 - x) reads the terms it has just made; 1 + x only the old ones
        odd = i in ring._odd
        for k in range(degree, d - 1, -1) if odd else range(d, degree + 1):
            for wt, c in list(by_degree[k - d].items()):
                wt = tuple(map(add, wt, w))
                if keep(k, wt, n):
                    by_degree[k][wt] += c
        if monotone:
            for k, terms in enumerate(by_degree):
                by_degree[k] = Counter(
                    {wt: c for wt, c in terms.items() if keep(k, wt, n + 1)}
                )
    return [terms[key] for terms in by_degree]


def graded_dimension(
    presentation: IdealPresentation,
    degree: int,
    weight: tuple[int, ...] | None = None,
) -> int:
    """F_p-dimension of the (degree[, weight]) component of ambient/ideal."""
    return hilbert_series(presentation, degree, weight)[degree] if degree >= 0 else 0


# -- point-count checks --------------------------------------------------------


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)), by integer Newton steps down from a power of two above it."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def prime_power(q: int, char: int | None = None) -> tuple[int, int]:
    """(p, k) with q = p^k, k the largest exponent with an integer k-th root
    p of q, and p prime; a q that is no power of ``char`` (when given) is a
    configuration error."""
    if q < 2:
        raise ConfigError("q must be at least 2")
    k = next(k for k in range(q.bit_length(), 0, -1) if _iroot(q, k) ** k == q)
    p = _iroot(q, k)
    if not is_prime(p):
        raise ConfigError(f"q = {q} is not a prime power")
    if char is not None and p != char:
        raise ConfigError(f"q = {q} is not a power of the characteristic {char}")
    return p, k


def check_point_count(
    q: int, n: int, char: int | None = None, max_assignments: int | None = None
) -> None:
    """The checks every point count makes before any work: q is a power of
    an odd prime, of ``char`` when given (exit 2), then the nominal q^n
    assignments fit the budget (exit 3)."""
    check_odd_prime(prime_power(q, char)[0])
    total = q**n
    budget = DEFAULT_POINT_BUDGET if max_assignments is None else max_assignments
    if total > budget:
        raise BudgetError(
            f"{q}^{n} = {total} assignments exceed the enumeration budget {budget}"
        )


def count_points(
    system: IdealPresentation,
    q: int,
    max_assignments: int | None = None,
    chunk: int = 1 << 16,
) -> int:
    """Number of F_q solutions of an even polynomial system, by the numpy
    enumerator ``pointcount.count_points``.  No command calls it: the import
    waits for the first call, so numpy stays off the command-line path."""
    from . import pointcount

    return pointcount.count_points(system, q, max_assignments, chunk)


def plain_ring(p: int, names, label: str = "") -> PolyRing:
    """Even degree-0 variables with no weights: the generic Groebner setting."""
    return PolyRing(p, [VariableDescriptor(n) for n in names], label=label)


def pair_terms(pairs, f, g):
    """Terms of the pair sum over (a, b) in ``pairs`` of f(a) g(b) - g(a) f(b),
    as (sign, factor, factor) triples.

    Every relation family has this form: with f and g the same class at two
    twists it is a commutation minor.  The factors are whatever ``f`` and
    ``g`` return: ring elements, or variable names for the integer systems.
    """
    for a, b in pairs:
        yield 1, f(a), g(b)
        yield -1, g(a), f(b)


def pair_sum(ring: PolyRing, pairs, f, g) -> Poly:
    """The pair sum of ``pair_terms`` as an element of ``ring``."""
    return sum(((u * v).scale(s) for s, u, v in pair_terms(pairs, f, g)), ring.zero())
