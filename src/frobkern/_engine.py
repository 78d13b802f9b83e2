"""The packed-int Groebner engine behind ``polyalg``'s public functions.

It reads a ring only through ``p``, ``nvars``, ``_degrees`` and ``_odd`` (a
``polyalg.PolyRing``), takes and returns polynomials as term dicts {exponent
tuple: coefficient}, and imports nothing from ``polyalg``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from operator import add, itemgetter, mul

from .errors import UnsupportedOperationError

#: byte 0 to the digit 0 and every other byte to 1, for ``_Packing.mask``
_BINARY = b"0" + b"1" * 255


class _Packing:
    """Monomials in n variables as ints: exponent i fills the ``width``-bit
    field at bit width * i, whose top bit is a guard kept clear, and the total
    degree, negated, sits above the fields.  A product is then a sum, the
    least int leads (as ``polyalg._lead_key``), and a divides b when b - a
    borrows into no guard bit, tested after a support-mask prefilter
    (Singular's divisor mask).  The width starts at 8 and doubles until every
    total degree, hence every exponent, is below ``bound`` = 2^(width - 1)."""

    def __init__(self, ring, polys=(), degree: int = 0):
        """Wide enough for the term dicts ``polys`` (even), or else for ``degree``."""
        terms = list(itertools.chain.from_iterable(polys))
        if any(e[i] for e in terms for i in ring._odd):
            raise UnsupportedOperationError("Groebner machinery only covers the even subring")
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


def _remainder(ring, f: dict, basis) -> dict:
    """The remainder of the term dict ``f`` under the term dicts ``basis``."""
    packing = _Packing(ring, (f, *basis))
    pack, p = packing.pack, ring.p
    divisors = [packing.divisor({pack(e): c for e, c in g.items()}, p) for g in basis if g]
    remainder = _reduce({pack(e): c for e, c in f.items()}, divisors, packing, p)
    return {packing.unpack(k): c for k, c in remainder.items()}


class _Engine:
    """Buchberger state of the even ideal of the term dicts ``relations``: the
    basis so far, pending S-pairs.

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

    def __init__(self, ring, relations):
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
                self._add({self.packing.pack(e): c for e, c in r.items()})

    def _add(self, terms: dict) -> None:
        """Append the monic multiple of the packed ``terms`` and queue its pairs."""
        mask, k, inv, tail = self.packing.divisor(terms, self.ring.p)
        e = self.packing.unpack(k)
        degrees, n = self.ring._degrees, len(self.leads)
        base = sum(map(mul, e, degrees))
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

    def basis(self, degree: int | None = None) -> list[dict]:
        """The monic elements as term dicts: those of lead degree <= ``degree`` in
        order, or with None those whose lead no other divides, from the least up."""
        if degree is None:
            records = _minimal(self.divisors, self.packing.guard)
        else:
            records = [r for (d, _, _), r in zip(self.leads, self.divisors) if d <= degree]
        unpack = self.packing.unpack
        return [{unpack(k): 1, **{unpack(t): c for t, c in tail}} for _, k, _, tail in records]

    def numerator(self, left: int, columns) -> dict:
        """``_numerator`` of the leads of degree at most ``left``: x^e has the
        grade (sum of e_i c_i, for each column c of ``columns``), and the
        first column holds the variables' degrees."""
        leads = [(m, k, tuple(sum(map(mul, e, c)) for c in columns))
                 for (d, m, e), (_, k, _, _) in zip(self.leads, self.divisors) if d <= left]
        return _numerator(_minimal(leads, self.packing.guard), left, columns, self.packing)


def _minimal(leads, guard: int) -> list[tuple]:
    """The leads that no other lead divides, each a tuple (mask, packed lead,
    ...), from the least up, the first of equal leads kept: a divisor comes
    no later than its multiple, as it has at most its total degree."""
    minimal = []
    for lead in sorted(leads, key=itemgetter(1), reverse=True):
        outside, k = ~lead[0], lead[1]
        for other in minimal:
            if not other[0] & outside and not (k - other[1]) & guard:
                break
        else:
            minimal.append(lead)
    return minimal


def _numerator(minimal, left: int, columns, packing: _Packing) -> dict:
    """Numerator {grade: coefficient} of the Hilbert series of ring/(leads)
    through degree ``left``, from the minimal leads (support mask, packed lead,
    grade) of degree <= ``left``, graded as ``_Engine.numerator`` says.

    Pairwise coprime leads give the product of 1 - grade(m).  Otherwise
    Bigatti's pivot P = x_i^k splits N(I) = N(I + (P)) + grade(P) N(I : P)
    (Bigatti 1997): x_i is in most leads, and k is the median of its positive
    exponents, below any pure power x_i^j among the leads, so P is not in I.
    The colon takes t = min(k, e_i) x_i, packed, off each lead, and t
    grade(x_i) off its grade; leads above the degree left are dropped.
    """
    seen = shared = 0  # the variables in some lead, and in two or more
    for m, _, _ in minimal:
        shared |= seen & m
        seen |= m
    if not shared:  # pairwise coprime leads
        out = {(0,) * len(columns): 1}
        for _, _, g in minimal:
            for h, c in list(out.items()):
                if h[0] + g[0] <= left:
                    h = tuple(map(add, h, g))
                    out[h] = out.get(h, 0) - c
        return out
    occurs = [0] * packing.n  # occurs[i]: the number of leads that x_i divides
    for m, _, _ in minimal:
        m &= shared
        while m:
            occurs[(m & -m).bit_length() - 1] += 1
            m &= m - 1
    i = occurs.index(max(occurs))
    bit, at, field = 1 << i, packing.width * i, (1 << packing.width) - 1
    powers = sorted(l >> at & field for m, l, _ in minimal if m & bit)
    # below a pure power x_i^j that is a lead, so that P stays outside I
    pure = ((l >> at & field) - 1 for m, l, _ in minimal if m == bit)
    k = min([powers[len(powers) // 2], *pure])
    x, gx = (1 << at) - (1 << packing.shift), tuple(c[i] for c in columns)  # x_i, packed
    gp = tuple(k * a for a in gx)
    rest = left - gp[0]
    below, colon = [(bit, k * x, gp)], []
    for lead in minimal:
        m, l, g = lead
        if (e := l >> at & field) < k:
            below.append(lead)
        if e:
            t = min(k, e)
            lead = m if e > k else m & ~bit, l - t * x, tuple(a - t * b for a, b in zip(g, gx))
        if lead[2][0] <= rest:
            colon.append(lead)
    out = _numerator(below, left, columns, packing)
    for g, c in _numerator(_minimal(colon, packing.guard), rest, columns, packing).items():
        g = tuple(map(add, g, gp))
        out[g] = out.get(g, 0) + c
    return out
