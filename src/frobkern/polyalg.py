"""Graded-commutative polynomial arithmetic over F_p, Groebner bases and
dimension counting.

A ring holds even (polynomial) and odd (exterior) variables; monomials are
dense exponent tuples in a fixed variable order, odd exponents never exceed
one, and products pick up the Koszul sign from transposing odd factors.
Ideal machinery (Buchberger, normal forms, Hilbert series) is restricted to
the even subring, which is all the model ideals need.  It packs a monomial
into one int (``_Packing``): a product is a sum, the degrevlex order is the
order of ints, and a divisibility test is a support-mask prefilter
(Singular's divisor mask), then one subtraction and one mask.  The Hilbert
numerator comes from Bigatti's pivot recursion.

The checks that every F_q point count makes before any work (q a power of
an odd prime, then the budget on q^n by the shared ``check_budget``) live
here too; the counts are in ``commvar``, and their numpy oracle
``count_points`` defers to ``pointcount``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from operator import add, le, mul, sub
from typing import NamedTuple

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


class _DescriptorFields(NamedTuple):
    name: str
    parity: str
    degree: int
    weight: tuple[int, ...]


class VariableDescriptor(_DescriptorFields):
    """One generator: name, parity, cohomological degree and T-weight."""

    def __new__(cls, name: str, parity: str = EVEN, degree: int = 0, weight=()):
        if parity not in (EVEN, ODD):
            raise ConfigError(f"parity must be 'even' or 'odd', got {parity!r}")
        if degree % 2 != (parity == ODD):
            raise ConfigError(f"{parity} variable {name} needs {parity} degree")
        return super().__new__(cls, name, parity, degree, tuple(int(w) for w in weight))


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
        self.nvars = len(variables)
        self._odd = tuple(i for i, v in enumerate(variables) if v.parity == ODD)
        self._degrees = tuple(v.degree for v in variables)
        self._weights = tuple(v.weight for v in variables)
        self._weight_columns = tuple(zip(*self._weights))
        self.weight_len = wlens.pop() if wlens else 0

    # -- basic structure ---------------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.p, self.variables))

    def __repr__(self):
        names = ",".join(v.name for v in self.variables[:4])
        tag = self.label or names + ("..." if self.nvars > 4 else "")
        return f"PolyRing(F{self.p}; {tag})"

    def descriptor(self, name: str) -> VariableDescriptor:
        return self.variables[self.index[name]]

    def check_weight(self, weight) -> tuple[int, ...]:
        """``weight`` as a tuple; a length other than the ring's is a DomainError."""
        weight = tuple(weight)
        if len(weight) != self.weight_len:
            raise DomainError("weight vector has the wrong length")
        return weight

    # -- element constructors ----------------------------------------------

    def zero(self) -> "Poly":
        return _canonical(self, {})

    def const(self, c: int) -> "Poly":
        c %= self.p
        return _canonical(self, {(0,) * self.nvars: c} if c else {})

    def one(self) -> "Poly":
        return self.const(1)

    def var(self, name: str) -> "Poly":
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
        return _canonical(self, {tuple(e): coeff} if coeff else {})

    # -- monomial helpers ----------------------------------------------------

    def monomial_degree(self, exps) -> int:
        return sum(map(mul, exps, self._degrees))

    def monomial_weight(self, exps) -> tuple[int, ...]:
        return tuple(sum(map(mul, exps, column)) for column in self._weight_columns)

    def weight_order(self, lead=()):
        """(order, best): the variables in ``lead``, then the rest, each from the
        largest weight per degree down; best[n][k] = (num, den) is the largest
        weight per degree in coordinate k among order[n:], for cross-multiplying."""
        degrees = self._degrees
        weights = self._weights
        scale = math.lcm(*degrees)
        ratio = [-sum(w) * scale // d for w, d in zip(weights, degrees)]
        order = sorted(range(self.nvars), key=lambda i: (i not in lead, ratio[i]))
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

    def monomial_str(self, exps) -> str:
        names = (v.name for v in self.variables)
        return "*".join(x if e == 1 else f"{x}^{e}" for x, e in zip(names, exps) if e) or "1"


class Poly:
    """Immutable element of a PolyRing, every coefficient in 1..p-1."""

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
        terms, p = dict(self.terms), self.ring.p
        for e, c in other.terms.items():
            if v := (terms.get(e, 0) + c) % p:
                terms[e] = v
            else:  # only a term already present cancels
                del terms[e]
        return _canonical(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.ring, {e: self.ring.p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int) -> "Poly":
        p = self.ring.p  # a unit times a nonzero coefficient is nonzero mod p
        terms = {e: c * v % p for e, v in self.terms.items()} if c % p else {}
        return _canonical(self.ring, terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        if len(self.terms) == len(other.terms) == 1 and not ring._odd:
            ((e1, c1),), ((e2, c2),) = self.terms.items(), other.terms.items()
            return _canonical(ring, {tuple(map(add, e1, e2)): c1 * c2 % ring.p})
        return Poly(ring, _add_product({}, self, other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined")
        if len(self.terms) == 1:
            ((e, c),) = self.terms.items()
            if n >= 2 and any(e[i] for i in self.ring._odd):
                return self.ring.zero()
            return _canonical(self.ring, {tuple(n * x for x in e): pow(c, n, self.ring.p)})
        result, base = self.ring.one(), self
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
        """The common cohomological degree of all terms (0 for zero); None if mixed."""
        degrees = set(map(self.ring.monomial_degree, self.terms)) or {0}
        return degrees.pop() if len(degrees) == 1 else None

    def uniform_weight(self):
        """The common T-weight of all terms (0 for zero), or None if mixed."""
        ws = set(map(self.ring.monomial_weight, self.terms)) or {(0,) * self.ring.weight_len}
        return ws.pop() if len(ws) == 1 else None

    def is_even(self) -> bool:
        odd = set(self.ring._odd)
        return all(all(e[i] == 0 for i in odd) for e in self.terms)

    def to_json_dict(self) -> dict:
        names = [v.name for v in self.ring.variables]
        terms = [(self.terms[e], zip(names, e)) for e in self.monomials()]
        return {"terms": [{"c": c, "e": {x: k for x, k in exps if k}} for c, exps in terms]}

    def __repr__(self):
        bits = []
        for e in self.monomials():
            c, m = self.terms[e], self.ring.monomial_str(e)
            bits.append(str(c) if m == "1" else m if c == 1 else f"{c}*{m}")
        return " + ".join(bits) or "0"


def _add_product(terms: dict, f: Poly, g: Poly, sign: int = 1) -> dict:
    """``terms`` (returned) with sign * f * g added in, coefficients unreduced: a
    product of monomials sharing an exterior variable vanishes, and otherwise
    picks up the sign of the transpositions that sort its exterior factors."""
    f._check(g)
    odd = f.ring._odd
    for e1, c1 in f.terms.items():
        o1 = [i for i in odd if e1[i]]
        for e2, c2 in g.terms.items():
            s = sign
            if o1 and (o2 := [j for j in odd if e2[j]]):
                if not set(o1).isdisjoint(o2):
                    continue
                s *= (-1) ** sum(i > j for i in o1 for j in o2)
            e = tuple(map(add, e1, e2))
            terms[e] = terms.get(e, 0) + s * c1 * c2
    return terms


def _canonical(ring: PolyRing, terms: dict) -> Poly:
    """The Poly on ``terms``, whose coefficients already lie in 1..p-1."""
    f = Poly.__new__(Poly)
    f.ring, f.terms, f._lead = ring, terms, None
    return f


class IdealPresentation:
    """Ambient ring plus a relation list.

    Every relation must be homogeneous in cohomological degree and a T-weight
    eigenvector (DomainError otherwise).  Rings whose variables all sit in
    degree zero with no weights pass the check vacuously, which is how the
    generic Groebner examples are phrased.  The presentation keeps one
    Buchberger engine: ``hilbert_series`` runs it only as far as the degree it
    asks for, and ``groebner`` runs the same state to completion.
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
        self._engine = self._gb = None

    def groebner(self) -> "GroebnerBasis":
        if self._gb is None:
            self._gb = buchberger(self)
        return self._gb


class GroebnerStats(NamedTuple):
    """What the Buchberger engine did; reported beside a payload, never in it."""

    pairs: int = 0  # S-pairs taken from the queue
    product_skipped: int = 0  # coprime leading monomials
    chain_skipped: int = 0  # chain criterion
    deferred: int = 0  # pairs still pending above the requested degree
    reductions: int = 0  # S-polynomials reduced
    zero_reductions: int = 0  # ... of which to zero
    basis_size: int = 0


class _GroebnerFields(NamedTuple):
    ring: PolyRing
    basis: tuple[Poly, ...]


class GroebnerBasis(_GroebnerFields):
    """A basis and its ``stats``, which live outside equality and hash."""

    def __new__(cls, ring: PolyRing, basis, stats: GroebnerStats = GroebnerStats()):
        self = super().__new__(cls, ring, basis)
        self.stats = stats
        return self


def _lead_key(exps):
    """The one key of the degrevlex order: min(key) is the leading monomial."""
    return (-sum(exps), exps[::-1])


#: byte 0 to the digit 0 and every other byte to 1, for ``_Packing.mask``
_BINARY = b"0" + b"1" * 255


class _Packing:
    """Monomials in n variables as ints: exponent i fills the ``width``-bit
    field at bit width * i, whose top bit is a guard kept clear, and the total
    degree, negated, sits above the fields.  A product is then a sum, the
    least int leads (as ``_lead_key``), and a divides b when b - a borrows into
    no guard bit.  The width starts at 8 and doubles until every total degree,
    hence every exponent, is below ``bound`` = 2^(width - 1)."""

    def __init__(self, ring: PolyRing, polys=(), degree: int = 0):
        """Wide enough for ``polys`` (in the even subring), or else for ``degree``."""
        if not all(f.is_even() for f in polys):
            raise UnsupportedOperationError("Groebner machinery only covers the even subring")
        terms = itertools.chain.from_iterable(f.terms for f in polys)
        degree, width = max(map(sum, terms), default=degree), 8
        while degree >> width - 1:
            width *= 2
        self.n, self.width, self.bound = ring.nvars, width, 1 << width - 1
        self.shift = self.n * width
        self.low = (1 << self.shift) - 1
        self.guard = self.low // ((1 << width) - 1) * self.bound

    def pack(self, exps) -> int:
        if (w := self.width) == 8:
            return int.from_bytes(bytes(exps), "little") - (sum(exps) << self.shift)
        return sum(x << w * i for i, x in enumerate(exps)) - (sum(exps) << self.shift)

    def unpack(self, k: int) -> tuple[int, ...]:
        if (w := self.width) == 8:
            return tuple((k & self.low).to_bytes(self.n, "little"))
        return tuple(k >> w * i & (1 << w) - 1 for i in range(self.n))

    def mask(self, k: int) -> int:
        """Bit i set when exponent i is positive: a divisor's lies inside its multiple's."""
        if self.width == 8:
            return int((k & self.low).to_bytes(self.n + 1, "big").translate(_BINARY), 2)
        return sum(1 << i for i, x in enumerate(self.unpack(k)) if x)

    def lcm(self, a: int, b: int) -> int:
        """Each field of a where a's is at least b's, else of b."""
        a, b = a & self.low, b & self.low
        keep = (((a | self.guard) - b) & self.guard) // self.bound * ((1 << self.width) - 1)
        m = b ^ (a ^ b) & keep
        return m - (sum(self.unpack(m)) << self.shift)

    def divisor(self, terms: dict, p: int):
        """(lead mask, lead, 1 / lead coefficient, tail) of a nonzero packed term dict."""
        lead = min(terms)
        return self.mask(lead), lead, pow(terms.pop(lead), -1, p), list(terms.items())


def _reduce(work: dict, divisors, packing: _Packing, p: int) -> dict:
    """Remainder of the packed term dict ``work`` (consumed) under the records
    ``divisors`` of ``_Packing.divisor``: the leading term of ``work``, found by
    a heap whose cancelled entries are skipped, is top-reduced by the first
    divisor whose lead divides it (masks reject most others before the
    guard-bit test), else moves to the remainder."""
    heap = list(work)
    heapq.heapify(heap)
    remainder = {}
    mask, guard = packing.mask, packing.guard
    while heap:
        k = heapq.heappop(heap)
        c = work.pop(k, 0)
        if not c:
            continue
        outside = ~mask(k)
        for dmask, lead, inv, tail in divisors:
            if not dmask & outside and not (q := k - lead) & guard:
                break
        else:
            remainder[k] = c
            continue
        factor = c * inv % p
        for t, v in tail:
            m = q + t
            if m not in work:  # a new term: both factors are units mod p
                work[m] = -factor * v % p
                heapq.heappush(heap, m)
            elif new := (work[m] - factor * v) % p:
                work[m] = new
            else:
                del work[m]
    return remainder


def normal_form(f: Poly, G) -> Poly:
    """Remainder of f under division by the polynomials of G.

    A zero remainder certifies ideal membership for any divisor set; the
    remainder is unique (and the map idempotent) once G is a reduced
    Groebner basis.
    """
    ring = f.ring
    basis = G.basis if isinstance(G, GroebnerBasis) else tuple(G)
    packing = _Packing(ring, (f, *basis))
    pack, p = packing.pack, ring.p
    packed = [{pack(e): c for e, c in g.terms.items()} for g in (f, *basis)]
    divisors = [packing.divisor(terms, p) for terms in packed[1:] if terms]
    if not divisors:
        return f
    remainder = _reduce(packed[0], divisors, packing, p)
    return _canonical(ring, {packing.unpack(k): c for k, c in remainder.items()})


class _Engine:
    """Buchberger state of one even ideal: the basis so far, pending S-pairs.

    Elements are monic ``_Packing.divisor`` records.  Pairs leave a heap by the
    cohomological degree of lcm(lead_i, lead_j), then (i, j), unless the
    product criterion (coprime leads) or the chain criterion (some lead_k
    divides the lcm and neither (i, k) nor (j, k) is pending) skips them.
    Relations are degree-homogeneous, so when every even variable has positive
    degree a pair of degree D reduces in degree D, and ``advance(limit)`` keeps
    the pairs above ``limit`` in a plain list, outside the heap and ``pending``:
    the chain criterion never asks for them, as (i, k) lies at most at the
    degree of (i, j).  Other ideals run to completion.  A pair whose lcm
    outgrows the fields first repacks every element at a width that holds it.
    """

    def __init__(self, ring: PolyRing, relations):
        self.ring = ring
        self.packing = _Packing(ring, relations)
        self.leads: list = []  # (degree, mask, exponents) of each lead
        self.divisors: list = []  # each element, as a record of _reduce
        self.queue: list = []  # heap of (degree, i, j), the pairs at most ``limit``
        self.pending: set = set()  # (i, j) in the queue
        self.later: list = []  # (degree, i, j) of the pairs above ``limit``
        self.limit = -1
        self.graded = all(d > 0 for i, d in enumerate(ring._degrees) if i not in ring._odd)
        self.counts: Counter = Counter()  # GroebnerStats fields
        for r in relations:
            if r:
                self._add({self.packing.pack(e): c for e, c in r.terms.items()})

    def _add(self, terms: dict) -> None:
        """Append the monic multiple of the packed ``terms`` and queue its pairs."""
        mask, k, inv, tail = self.packing.divisor(terms, self.ring.p)
        e = self.packing.unpack(k)
        degrees, base, n = self.ring._degrees, self.ring.monomial_degree(e), len(self.leads)
        for i, (d, m, f) in enumerate(self.leads):
            d += base  # the degree of lcm(f, e): less that of gcd(f, e), on common bits
            common = m & mask
            while common:
                a = (common & -common).bit_length() - 1
                d -= degrees[a] * min(f[a], e[a])
                common &= common - 1
            if d <= self.limit:
                heapq.heappush(self.queue, (d, i, n))
                self.pending.add((i, n))
            else:
                self.later.append((d, i, n))
        self.leads.append((base, mask, e))
        self.divisors.append((mask, k, 1, [(t, c * inv % self.ring.p) for t, c in tail]))

    def _chain(self, i: int, j: int, mask: int, lcm: int) -> bool:
        pending, guard, outside = self.pending, self.packing.guard, ~mask
        return any(
            not dmask & outside and k != i and k != j and not (lcm - lead) & guard
            and (min(i, k), max(i, k)) not in pending and (min(j, k), max(j, k)) not in pending
            for k, (dmask, lead, _, _) in enumerate(self.divisors)
        )

    def _s_poly(self, i: int, j: int) -> dict:
        """The packed S-polynomial of elements i and j, whose leads are 1 and cancel."""
        (_, ki, _, ti), (_, kj, _, tj) = self.divisors[i], self.divisors[j]
        lcm, p = self.packing.lcm(ki, kj), self.ring.p
        work = {lcm - ki + t: c for t, c in ti}
        for t, c in tj:
            if v := (work.get(m := lcm - kj + t, 0) - c) % p:
                work[m] = v
            else:
                del work[m]
        return work

    def _repack(self, degree: int) -> None:
        """Rewrite every element at a width that holds total degree ``degree``."""
        old, new = self.packing, _Packing(self.ring, degree=degree)
        for n, (m, k, inv, tail) in enumerate(self.divisors):
            tail = [(new.pack(old.unpack(t)), c) for t, c in tail]
            self.divisors[n] = m, new.pack(old.unpack(k)), inv, tail
        self.packing = new

    def advance(self, limit: int | None = None) -> None:
        """Process pairs up to degree ``limit`` (all of them when None)."""
        self.limit = limit = math.inf if limit is None or not self.graded else limit
        ready = [pair for pair in self.later if pair[0] <= limit]
        self.later = [pair for pair in self.later if pair[0] > limit]
        self.pending.update(pair[1:] for pair in ready)
        self.queue += ready
        heapq.heapify(queue := self.queue)
        counts, divisors = self.counts, self.divisors
        while queue:
            _, i, j = heapq.heappop(queue)
            self.pending.discard((i, j))
            counts["pairs"] += 1
            (mi, ki, _, _), (mj, kj, _, _) = divisors[i], divisors[j]
            if not mi & mj:
                counts["product_skipped"] += 1
                continue
            lcm = self.packing.lcm(ki, kj)
            if self._chain(i, j, mi | mj, lcm):
                counts["chain_skipped"] += 1
                continue
            if (total := -(lcm >> self.packing.shift)) >= self.packing.bound:
                self._repack(total)
            h = _reduce(self._s_poly(i, j), divisors, self.packing, self.ring.p)
            counts["reductions"] += 1
            counts["zero_reductions"] += not h
            if h:
                self._add(h)

    def poly(self, i: int) -> Poly:
        _, k, _, tail = self.divisors[i]
        unpack = self.packing.unpack
        return _canonical(self.ring, {unpack(k): 1, **{unpack(t): c for t, c in tail}})

    def result(self, basis) -> GroebnerBasis:
        """``basis``, with the work done so far as its stats."""
        basis = tuple(basis)
        stats = GroebnerStats(**self.counts, deferred=len(self.later), basis_size=len(basis))
        return GroebnerBasis(self.ring, basis, stats)


def _advanced(ideal: IdealPresentation, degree: int | None) -> _Engine:
    """The ideal's engine, run through ``degree``."""
    if ideal._engine is None:
        ideal._engine = _Engine(ideal.ring, ideal.relations)
    ideal._engine.advance(degree)
    return ideal._engine


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
    engine = _advanced(ideal, degree)
    elements, leads = range(len(engine.leads)), engine.leads
    if degree is not None:
        return engine.result(engine.poly(i) for i in elements if leads[i][0] <= degree)
    # minimalise: drop elements whose lead is divisible by another lead
    minimal: list[Poly] = []
    for i in sorted(elements, key=lambda i: engine.divisors[i][1], reverse=True):
        if not any(all(map(le, h.leading()[0], leads[i][2])) for h in minimal):
            minimal.append(engine.poly(i))
    # inter-reduce tails, and order by lead from the last
    reduced = [normal_form(g, minimal[:k] + minimal[k + 1 :]) for k, g in enumerate(minimal)]
    reduced.sort(key=lambda g: _lead_key(g.leading()[0]), reverse=True)
    return engine.result(g.monic() for g in reduced)


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


def _numerator(minimal, left: int, grade) -> dict:
    """Numerator of the Hilbert series of ring/(leads), through degree ``left``.

    ``minimal`` holds the minimal generators as (degree, support mask,
    exponents), none above ``left``; the result maps grade to coefficient,
    every term of degree <= ``left``.  Pairwise coprime leads give the
    product of 1 - grade(m).  Otherwise Bigatti's pivot P = x_i^k splits
    N(I) = N(I + (P)) + grade(P) N(I : P) (Bigatti 1997): i is the first
    variable in most leads and k the median of its positive exponents, below
    the pure power x_i^j when that is a lead, so that P is not in I.  A lead
    contributes terms of at least its degree, so leads above what is left of
    the degree are dropped.
    """
    # occurs[i]: the number of leads that x_i divides
    occurs = [len(column) - column.count(0) for column in zip(*(e for _, _, e in minimal))]
    most = max(occurs, default=0)
    if most <= 1:  # pairwise coprime leads
        out = {grade(()): 1}
        for _, _, e in minimal:
            g = grade(e)
            for h, c in list(out.items()):
                if h[0] + g[0] <= left:
                    h = tuple(map(add, h, g))
                    out[h] = out.get(h, 0) - c
        return out
    i = occurs.index(most)
    bit = 1 << i
    powers = sorted(e[i] for _, m, e in minimal if m & bit)
    # below a pure power x_i^j that is a lead, so that P stays outside I
    k = min([powers[len(powers) // 2], *(e[i] - 1 for _, m, e in minimal if m == bit)])
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
        g = tuple(map(add, g, gp))
        out[g] = out.get(g, 0) + c
    return out


def hilbert_series(
    presentation: IdealPresentation, degree: int, weight: tuple[int, ...] | None = None
) -> list[int]:
    """F_p-dimensions of the degree 0..``degree`` components of ring/ideal.

    With ``weight``, of the components of that T-weight.  The leading ideal of
    the Groebner basis through ``degree`` has the numerator of the Hilbert
    series (graded by degree and, when asked, T-weight); each class of m
    variables of one degree d, weight w and parity divides it by
    (1 - t^d s^w)^m when even and multiplies it by (1 + t^d s^w)^m when odd.
    """
    ring = presentation.ring
    bound = 2 * ring.p * ring.p + 2  # refuses runs whose basis would take long
    if degree > bound:
        raise BudgetError(f"degree {degree} exceeds the bound 2p^2 + 2 = {bound}")
    if degree < 0:
        return []
    if any(d <= 0 for d in ring._degrees):
        raise DomainError("dimension counting needs positive variable degrees")
    weighted = weight is not None
    key = ring.check_weight(weight) if weighted else ()

    def grade(e):
        return (ring.monomial_degree(e), *(ring.monomial_weight(e) if weighted else ()))

    def cls(i):  # the variables of one class multiply the series by one factor
        return ring._degrees[i], ring._weights[i] if weighted else (), i in ring._odd

    # with no negative variable weight, a class (k, wt) that order[n:] cannot
    # bring to the target by degree ``degree`` is dropped once the factors of
    # order[:n] are in, both as the last run makes it and after that run
    monotone = weighted and min(itertools.chain(*ring._weights), default=0) >= 0
    order, best = ring.weight_order() if monotone else (sorted(range(ring.nvars), key=cls), ())

    def keep(k, wt, n):
        return not monotone or all(
            0 <= m and m * den <= (degree - k) * num
            for m, (num, den) in zip(map(sub, key, wt), best[n])
        )

    leads = _minimal(_advanced(presentation, degree).leads, degree)
    # by_degree[k]: {weight (or ()): coefficient} of the series in degree k
    by_degree: list[dict] = [{} for _ in range(degree + 1)]
    for g, c in _numerator(leads, degree, grade).items():
        if keep(g[0], g[1:], 0):
            terms = by_degree[g[0]]
            terms[g[1:]] = terms.get(g[1:], 0) + c
    n = 0  # the variables of ``order`` whose factors are in
    for (d, w, odd), run in itertools.groupby(order, key=cls):
        m = len(tuple(run))
        n += m
        # x^j has coefficient C(m, j) in (1 + x)^m and C(m - 1 + j, j) in 1/(1 - x)^m;
        # degrees go down, so x^j multiplies terms of the series before this run
        for k in range(degree, d - 1, -1):
            for j in range(1, k // d + 1):
                if not (b := math.comb(m, j) if odd else math.comb(m - 1 + j, j)):
                    break
                shift, terms = tuple(j * x for x in w), by_degree[k]
                for wt, c in by_degree[k - j * d].items():
                    wt = tuple(map(add, wt, shift))
                    if keep(k, wt, n):
                        terms[wt] = terms.get(wt, 0) + b * c
        if monotone:
            for k, terms in enumerate(by_degree):
                by_degree[k] = {wt: c for wt, c in terms.items() if keep(k, wt, n)}
    return [terms.get(key, 0) for terms in by_degree]


def graded_dimension(
    presentation: IdealPresentation, degree: int, weight: tuple[int, ...] | None = None
) -> int:
    """F_p-dimension of the (degree[, weight]) component of ring/ideal."""
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


def show_value(name: str, value: int) -> str:
    """``name = value``, or ``name`` past 2^9999: str() refuses an int of 4300 digits."""
    return f"{name} = {value}" if value.bit_length() < 10_000 else name


def check_budget(work: int, what: str, budget: int | None = None) -> None:
    """Exit 3 when ``work`` steps exceed ``budget``; ``what`` names them."""
    budget = DEFAULT_POINT_BUDGET if budget is None else budget
    if work > budget:
        raise BudgetError(f"{what} exceed the enumeration budget {budget}")


def check_point_count(
    q: int, n: int, char: int | None = None, max_assignments: int | None = None
) -> None:
    """The checks every point count makes before any work: q is a power of
    an odd prime, of ``char`` when given (exit 2), then the nominal q^n
    assignments fit the budget (exit 3)."""
    check_odd_prime(prime_power(q, char)[0])
    total = q**n
    check_budget(total, f"{show_value(f'{q}^{n}', total)} assignments", max_assignments)


def count_points(
    system: IdealPresentation, q: int, max_assignments: int | None = None, chunk: int = 1 << 16
) -> int:
    """Number of F_q solutions of an even polynomial system, by the numpy
    enumerator ``pointcount.count_points``.  No command calls it: the import
    waits for the first call, so numpy stays off the command-line path."""
    from . import pointcount

    return pointcount.count_points(system, q, max_assignments, chunk)


def pair_sum(ring: PolyRing, pairs, f, g) -> Poly:
    """The sum over (a, b) in ``pairs`` of f(a) g(b) - g(a) f(b) in ``ring``.

    Every relation family has this form: with f and g the same class at two
    twists it is a commutation minor.
    """
    terms: dict = {}
    for a, b in pairs:
        _add_product(terms, f(a), g(b))
        _add_product(terms, g(a), f(b), -1)
    return Poly(ring, terms)
