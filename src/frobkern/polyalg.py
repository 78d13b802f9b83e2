"""Graded-commutative polynomial arithmetic over F_p, Groebner bases and
dimension counting.

A ring holds even (polynomial) and odd (exterior) variables; monomials are
dense exponent tuples in a fixed variable order, odd exponents never exceed
one, and products pick up the Koszul sign from transposing odd factors.
Ideal machinery (Buchberger, normal forms, Hilbert series) is restricted to
the even subring, which is all the model ideals need.  Its public functions
live here; they hand term dicts to the packed-int engine in ``_engine`` and
build ``Poly`` and ``GroebnerBasis`` from the term dicts it returns.

The checks that every F_q point count makes before any work (q a power of
an odd prime, then the budget on q^n by the shared ``check_budget``) live
here too; the counts are in ``commvar``, and their numpy oracle
``count_points`` defers to ``pointcount``.
"""

from __future__ import annotations

import itertools
import math
from operator import add, mul, sub
from typing import NamedTuple

from ._engine import _Engine, _remainder
from .errors import BudgetError, ConfigError, DomainError

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


def normal_form(f: Poly, G) -> Poly:
    """Remainder of f under division by the polynomials of G.

    A zero remainder certifies ideal membership for any divisor set; the
    remainder is unique (and the map idempotent) once G is a reduced
    Groebner basis.
    """
    basis = G.basis if isinstance(G, GroebnerBasis) else G
    return _canonical(f.ring, _remainder(f.ring, f.terms, [g.terms for g in basis]))


def _advanced(ideal: IdealPresentation, degree: int | None) -> _Engine:
    """The ideal's engine, run through ``degree``."""
    if ideal._engine is None:
        ideal._engine = _Engine(ideal.ring, [r.terms for r in ideal.relations])
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
    basis = [_canonical(ideal.ring, terms) for terms in engine.basis(degree)]
    if degree is None:  # inter-reduce the minimal (monic) elements, order leads from the last
        basis = [normal_form(g, basis[:k] + basis[k + 1 :]) for k, g in enumerate(basis)]
        basis.sort(key=lambda g: _lead_key(g.leading()[0]), reverse=True)
    stats = GroebnerStats(**engine.counts, deferred=len(engine.later), basis_size=len(basis))
    return GroebnerBasis(ideal.ring, tuple(basis), stats)


# -- graded dimension --------------------------------------------------------


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

    engine = _advanced(presentation, degree)
    columns = (ring._degrees, *(ring._weight_columns if weighted else ()))
    # by_degree[k]: {weight (or ()): coefficient} of the series in degree k
    by_degree: list[dict] = [{} for _ in range(degree + 1)]
    for g, c in engine.numerator(degree, columns).items():
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
