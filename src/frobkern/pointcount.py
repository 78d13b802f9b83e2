"""Brute-force F_q point counting on numpy field tables.

This is the independent oracle for the stratified counts of ``commvar``:
the tests check ``VarietySystem.count`` against ``count_points`` on a ring
that writes the same chain condition as polynomials, and ``count_points``
against the full point list of ``solution_rows``.  No command imports this
module, so numpy stays off the command-line path: it comes with the
``test`` extra (``pip install -e .[test]``), not with the package.

Extension fields are realised through precomputed tables so that the
evaluation and elimination paths are plain table gathers.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from .errors import BudgetError, UnsupportedOperationError
from .polyalg import IdealPresentation, check_point_count, prime_power

#: solution rows that ``solution_rows`` may list
DEFAULT_POINT_LIST_BUDGET = 600_000
#: field elements in one chunk of count_points' elimination batch
FIBRE_ELEMENTS = 1 << 16


class GF:
    """F_q with q = p^k, elements indexed 0..q-1 by base-p digit vectors: the
    coefficients of 1, x, ..., x^(k-1) modulo a primitive degree-k f.

    Index c < p is the constant c, so F_p-coefficients embed as themselves.
    Addition is digit-wise; multiplication adds discrete logarithms to the
    base x.  The tables double as numpy gather targets.
    """

    def __init__(self, q: int, char: int | None = None):
        p, k = prime_power(q, char)
        self.q, self.p, self.k = q, p, k
        # exp[i] = x^i for i < 2(q - 1), so a sum of two logarithms needs no mod
        exp = np.array(self._powers_of_x(p, k) * 2, dtype=np.int32)
        log = np.zeros(q, dtype=np.int32)
        log[exp[: q - 1]] = np.arange(q - 1, dtype=np.int32)
        idx = np.arange(q, dtype=np.int32)
        self.add_table = np.zeros((q, q), dtype=np.int32)
        self.neg_table = np.zeros(q, dtype=np.int32)
        for j in range(k):  # digit j of every index, worth p^j
            d = idx // p**j % p
            self.add_table += (d[:, None] + d[None, :]) % p * p**j
            self.neg_table += -d % p * p**j
        self.mul_table = np.zeros((q, q), dtype=np.int32)
        self.mul_table[1:, 1:] = exp[log[1:, None] + log[None, 1:]]
        self.inv_table = np.zeros(q, dtype=np.int32)
        self.inv_table[1:] = exp[q - 1 - log[1:]]

    @staticmethod
    def _powers_of_x(p: int, k: int) -> list[int]:
        """Indices of x^0, ..., x^(q-2) modulo the first monic degree-k f, by
        coefficient tuple (c0, ..., c(k-1)), in which x has order q - 1.
        Distinct nonzero powers make f primitive, hence irreducible."""
        for tail in itertools.product(range(p), repeat=k):
            if not tail[0]:
                continue  # f(0) = 0: x is no unit
            powers, digits = [1], [1] + [0] * (k - 1)
            while True:  # x is a unit, so its powers return to 1
                top = digits[-1]  # x^k = -(c0 + c1 x + ... + c(k-1) x^(k-1))
                digits = [(d - top * c) % p for d, c in zip([0] + digits[:-1], tail)]
                index = sum(d * p**j for j, d in enumerate(digits))
                if index == 1:
                    break
                powers.append(index)
            if len(powers) == p**k - 1:
                return powers

    def add_vec(self, a, b):
        return self.add_table[a, b]

    def mul_vec(self, a, b):
        return self.mul_table[a, b]

    def pow_vec(self, a, e: int):
        result = np.zeros_like(a) + 1  # index 1 is the unit
        base = a
        while e:
            if e & 1:
                result = self.mul_table[result, base]
            base = self.mul_table[base, base]
            e >>= 1
        return result


def _evaluate(gf: GF, terms, cols, size: int):
    """Field indices of the sum of coeff * prod(cols[i] ** e) over the
    (exps, coeff) ``terms``, with a column of ``size`` indices per variable."""
    acc = np.zeros(size, dtype=np.int32)
    for exps, coeff in terms:
        term = np.full(size, coeff % gf.p, dtype=np.int32)
        for i, e in enumerate(exps):
            if e:
                term = gf.mul_vec(term, cols[i] if e == 1 else gf.pow_vec(cols[i], e))
        acc = gf.add_vec(acc, term)
    return acc


def _survivors(gf: GF, n: int, enumerated, relations, chunk: int):
    """Per chunk of assignments k, which give enumerated[j] the element of
    index digit j of k in base q: the k on which every relation (a term list)
    vanishes, in order, and their columns over all n variables (None off
    ``enumerated``).  A relation is evaluated where the ones before vanished."""
    total = gf.q ** len(enumerated)
    for start in range(0, total, chunk):
        keep = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = [None] * n
        for j, i in enumerate(enumerated):
            cols[i] = (keep // gf.q**j % gf.q).astype(np.int32)
        for terms in relations:
            ok = _evaluate(gf, terms, cols, len(keep)) == 0
            keep = keep[ok]
            cols = [None if c is None else c[ok] for c in cols]
        yield keep, cols


def solution_chunks(system: IdealPresentation, gf: GF, chunk: int = 1 << 16):
    """Per chunk of ``chunk`` assignments, the indices k of the F_q solutions,
    where assignment k gives variable i the element of index digit i of k."""
    n = system.ring.nvars
    rels = [list(r.terms.items()) for r in system.relations]
    return (found for found, _ in _survivors(gf, n, range(n), rels, chunk))


def solution_rows(
    system: IdealPresentation, q: int, max_rows: int | None = None
) -> np.ndarray:
    """All F_q solutions of an even polynomial system as rows of variable
    values (index encoding)."""
    _check_even(system.ring)
    budget = DEFAULT_POINT_LIST_BUDGET if max_rows is None else max_rows
    n = system.ring.nvars
    if q**n > budget:
        raise BudgetError(f"{q}^{n} assignments exceed the point-list budget {budget}")
    chunks = solution_chunks(system, GF(q, char=system.ring.p))
    found = np.concatenate(list(chunks))
    return np.stack([(found // q**i % q).astype(np.int32) for i in range(n)], axis=1)


def _check_even(ring) -> None:
    if ring._odd:
        raise UnsupportedOperationError("point counting needs an even-variable ring")


def _cover(relations) -> tuple[list[int], list[int]]:
    """Split the variables in use into a cover to enumerate, grown greedily (the
    variable in most open monomials, then the lowest index), and the unknowns
    outside it: at most one in each monomial, with exponent 1."""
    monomials = [exps for rel in relations for exps in rel.terms]
    used = {i for exps in monomials for i, e in enumerate(exps) if e}
    cover = {i for exps in monomials for i, e in enumerate(exps) if e > 1}
    while True:
        tally = Counter()
        for exps in monomials:
            rest = [i for i, e in enumerate(exps) if e and i not in cover]
            if len(rest) > 1:
                tally.update(rest)
        if not tally:
            return sorted(cover), sorted(used - cover)
        cover.add(min(tally, key=lambda i: (-tally[i], i)))


def _eliminate(gf: GF, matrix):
    """Rank of A and solvability of A y + b = 0 for each [A | b] (field
    indices, b last) of a batch, reducing ``matrix`` in place.  Column by
    column, a row with a nonzero entry is the pivot and clears that column
    from every row, itself included: its equation is spent fixing one
    unknown.  Then the system is solvable exactly where b is zero."""
    every = np.arange(len(matrix))
    rank = np.zeros(len(matrix), dtype=np.int64)
    for c in range(matrix.shape[2] - 1):
        col = matrix[:, :, c]
        nonzero = col != 0
        pivot = nonzero.argmax(axis=1)  # where col is zero, the update adds 0
        scale = gf.neg_table[gf.inv_table[col[every, pivot]]]  # -1 / pivot
        pivot_row = gf.mul_vec(scale[:, None], matrix[every, pivot, c + 1 :])
        rest = matrix[:, :, c + 1 :]
        rest[...] = gf.add_vec(rest, gf.mul_vec(col[:, :, None], pivot_row[:, None, :]))
        rank += nonzero.any(axis=1)
    return rank, ~matrix[:, :, -1].any(axis=1)


def count_points(
    system: IdealPresentation,
    q: int,
    max_assignments: int | None = None,
    chunk: int = 1 << 16,
) -> int:
    """Number of F_q solutions of an even polynomial system.

    Enumerates a variable cover (``_cover``), filtered by the relations inside
    it; the other relations are affine in the m remaining variables, and each
    solvable fibre adds q^(m - rank).  The budget bounds q^nvars.
    """
    ring = system.ring
    _check_even(ring)
    n = ring.nvars
    check_point_count(q, n, ring.p, max_assignments)  # before the q x q tables
    gf = GF(q, char=ring.p)
    cover, unknowns = _cover(system.relations)
    filters, fibre = [], []
    for rel in system.relations:
        terms = rel.terms.items()  # each monomial holds at most one unknown
        row = [[t for t in terms if t[0][i]] for i in unknowns]
        row.append([t for t in terms if not any(t[0][i] for i in unknowns)])  # b
        (fibre if any(row[:-1]) else filters).append(row)
    shape = (len(fibre), len(unknowns) + 1)  # one row per fibre relation, b last
    step = max(1, min(chunk, FIBRE_ELEMENTS // max(1, shape[0] * shape[1])))
    count = 0
    for found, cols in _survivors(gf, n, cover, [row[-1] for row in filters], step):
        one = np.ones(len(found), dtype=np.int32)  # unknowns read as 1 in their column
        cols = [one if c is None else c for c in cols]
        matrix = np.zeros((len(found), *shape), dtype=np.int32)
        for r, row in enumerate(fibre):
            for j, terms in enumerate(row):
                matrix[:, r, j] = _evaluate(gf, terms, cols, len(found))
        ranks, solvable = _eliminate(gf, matrix)
        for rank, k in enumerate(np.bincount(ranks[solvable])):
            count += int(k) * q ** (n - len(cover) - rank)
    return count
