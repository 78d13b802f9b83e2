"""Rings that the tests build by hand: the plain ring of the generic Groebner
setting, polynomials from signed terms, the S-polynomial from public
operations alone, the ring of a chain condition of ``commvar``, and a
pure-python count of every F_q point.

``commvar.VarietySystem`` is chain data only and counts its points from its
strata.  ``chain_ring`` writes the same condition as polynomials, so that
the numpy enumerator of ``frobkern.pointcount`` counts it on a path that
shares no code with the strata; the tests check it term for term against
``grmodel.vr_coordinate_algebra`` on the X systems.
"""

import itertools

from frobkern.polyalg import IdealPresentation, PolyRing, VariableDescriptor
from frobkern.rootsys import generator_name


def plain_ring(p, names, label=""):
    """Even degree-0 variables with no weights: the generic Groebner setting."""
    return PolyRing(p, [VariableDescriptor(n) for n in names], label=label)


def from_terms(ring, terms):
    """The sum of coeff times the monomial ``exps`` ({name: exponent}) over
    the (coeff, exps) ``terms``."""
    return sum((ring.monomial(exps, coeff) for coeff, exps in terms), ring.zero())


def s_polynomial(f, g):
    """lcm/lead(f) f/c_f - lcm/lead(g) g/c_g, from the public Poly operations."""
    ring = f.ring
    (ef, cf), (eg, cg) = f.leading(), g.leading()
    lcm = [max(a, b) for a, b in zip(ef, eg)]

    def cofactor(e, c):
        exps = {v.name: m - k for v, m, k in zip(ring.variables, lcm, e) if m > k}
        return ring.monomial(exps, pow(c, -1, ring.p))

    return cofactor(ef, cf) * f - cofactor(eg, cg) * g


def chain_names(system):
    """For each twist l: X[a_s](l) for the nodes s, then X[label](l) for the
    labels of ``extra``."""
    labels = [f"a{s}" for s in range(1, system.N)] + list(system.extra)
    return [generator_name("X", x, l) for l in range(system.r) for x in labels]


def chain_relations(system):
    """The chain condition as signed terms (coeff, {name: exponent}): each
    coordinate of each zero node, then the minor
    X[a_s](l) X[a_t](m) - X[a_s](m) X[a_t](l) of each pair (s, t), l < m."""

    def x(s, l):
        return generator_name("X", f"a{s}", l)

    zeros = [[(1, {x(s, l): 1})] for s in system.zero for l in range(system.r)]
    minors = [
        [(1, {x(s, l): 1, x(t, m): 1}), (-1, {x(s, m): 1, x(t, l): 1})]
        for s, t in system.pairs
        for l, m in itertools.combinations(range(system.r), 2)
    ]
    return zeros + minors


def chain_ring(system, p):
    """The chain condition of a ``commvar.VarietySystem`` over F_p."""
    ring = plain_ring(p, chain_names(system))
    return IdealPresentation(ring, [from_terms(ring, rel) for rel in chain_relations(system)])


def table_count(relations, nvars, gf):
    """Pure-python oracle for any q, characteristic 2 included: every point,
    through the field tables.  A relation is a map exponent vector ->
    integer coefficient, such as ``Poly.terms``."""
    add, mul = gf.add_table.tolist(), gf.mul_table.tolist()
    count = 0
    for point in itertools.product(range(gf.q), repeat=nvars):
        for rel in relations:
            total = 0
            for exps, coeff in rel.items():
                v = coeff % gf.p
                for i, e in enumerate(exps):
                    for _ in range(e):
                        v = mul[v][point[i]]
                total = add[total][v]
            if total:
                break
        else:
            count += 1
    return count
