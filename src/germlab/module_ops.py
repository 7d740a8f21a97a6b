"""Derived module operations built on the standard-basis kernel.

Everything here reduces to one primitive: standard bases of graph modules
under a block-eliminating order.  `syzygies` reads relations off such a
basis, and `submodule_pullback` is the one place that projects them:
intersections, subquotient dimensions and Theta_X (`derlog`) are all
pullbacks, which keeps every computation inside a single local-ordering
engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import ContainmentViolation
from .ring import Polynomial, RingSpec
from .standard_basis import ModuleElement, Submodule, local_colength, standard_basis


def syzygies(gens: Sequence[ModuleElement]) -> Submodule:
    """Generators of the relation module {a in O^r : sum a_i * g_i = 0}.

    Computed from a standard basis of the graph module spanned by the
    g_i extended with tag components e_i, under an order that eliminates
    the first block: basis elements with vanishing leading block are
    exactly the syzygies, read off their tag parts.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("syzygies need at least one generator")
    ring = gens[0].ring
    m = gens[0].rank
    for g in gens:
        if g.ring != ring or g.rank != m:
            raise ValueError("generators live in different modules")
    r = len(gens)
    zero = ring.zero_monomial()
    graph = []
    for i, g in enumerate(gens):
        vec = dict(g.terms)
        vec[(m + i, zero)] = Fraction(1)
        graph.append(ModuleElement._raw(ring, m + r, vec))
    sb = standard_basis(Submodule(ring, m + r, graph), block=m)
    tags = []
    for el, (lead_comp, _) in zip(sb.elements, sb.lead_terms):
        if lead_comp >= m:
            # Lead in the trailing block forces the whole leading block to vanish.
            vec = {(c - m, mono): coeff for (c, mono), coeff in el.terms.items()}
            tags.append(ModuleElement._raw(ring, r, vec))
    return Submodule(ring, r, list(dict.fromkeys(tags)))


def intersect(M: Submodule, N: Submodule) -> Submodule:
    """Generators of M intersect N: the images sum_i a_i * g_i of the rows
    a of the pullback of N along M's generators g_i."""
    if M.ring != N.ring or M.rank != N.rank:
        raise ValueError("submodules live in different ambient modules")
    if M.is_zero() or N.is_zero():
        return Submodule.zero(M.ring, M.rank)
    zero = ModuleElement.zero(M.ring, M.rank)
    combos = [
        sum((g * a for g, a in zip(M.generators, row.components) if a), zero)
        for row in submodule_pullback(M.generators, N).generators
    ]
    return Submodule(M.ring, M.rank, list(dict.fromkeys(combos)))


def product(I: Submodule, J: Submodule) -> Submodule:
    """The ideal generated by all pairwise products of generators."""
    if I.rank != 1 or J.rank != 1:
        raise ValueError("product is defined for ideals only")
    if I.ring != J.ring:
        raise ValueError("mixed rings")
    polys = []
    for a in I.polynomials():
        for b in J.polynomials():
            polys.append(a * b)
    return Submodule.ideal(I.ring, list(dict.fromkeys(polys)))


def module_sum(M: Submodule, N: Submodule) -> Submodule:
    """The submodule generated by both generator lists."""
    if M.ring != N.ring or M.rank != N.rank:
        raise ValueError("submodules live in different ambient modules")
    return Submodule(M.ring, M.rank, list(M.generators) + list(N.generators))


def _determinant(matrix: list[list[Polynomial]], ring: RingSpec) -> Polynomial:
    """Exact determinant by cofactor expansion along the first row."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Polynomial.zero(ring)
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        cofactor = entry * _determinant(minor, ring)
        total = total + cofactor if j % 2 == 0 else total - cofactor
    return total


def jacobian_minors(fs: Sequence[Polynomial], k: int) -> Submodule:
    """The ideal of all k x k minors of the Jacobian matrix of fs."""
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one function")
    ring = fs[0].ring
    if k > ring.n:
        raise ValueError(f"minor size {k} exceeds the {ring.n} variables")
    if k < 1 or k > len(fs):
        raise ValueError(f"minor size {k} out of range for {len(fs)} functions")
    jacobian = [[f.derivative(i) for i in range(ring.n)] for f in fs]
    minors = []
    for rows in combinations(range(len(fs)), k):
        for cols in combinations(range(ring.n), k):
            matrix = [[jacobian[r][c] for c in cols] for r in rows]
            minors.append(_determinant(matrix, ring))
    return Submodule.ideal(ring, list(dict.fromkeys(minors)))


def submodule_pullback(gens: Sequence[ModuleElement], N: Submodule) -> Submodule:
    """The module K = {a in O^r : sum a_i * g_i lies in N} of a generator
    sequence g_1..g_r.

    K is the projection of the syzygy module of (g_1..g_r, n_1..n_s) onto
    the first r coordinates.  A zero generator keeps its position, so K
    has rank r and contains its unit vector.
    """
    gens = list(gens)
    r = len(gens)
    projected = [
        ModuleElement._raw(N.ring, r, {(c, m): v for (c, m), v in rel.terms.items() if c < r})
        for rel in syzygies(gens + list(N.generators)).generators
    ]
    return Submodule(N.ring, r, list(dict.fromkeys(projected)))


def subquotient_dimension(M: Submodule, N: Submodule):
    """Vector-space dimension of M/N for N contained in M (module colength).

    Containment is verified by normal-form membership of every generator
    of N; violation raises ContainmentViolation.  Returns INFINITE when
    the quotient has infinite dimension.
    """
    if M.ring != N.ring or M.rank != N.rank:
        raise ValueError("submodules live in different ambient modules")
    if M.is_zero():
        if N.is_zero():
            return 0
        raise ContainmentViolation("second module is not contained in the first")
    sb = standard_basis(M)
    for g in N.generators:
        if not sb.contains(g):
            raise ContainmentViolation("second module is not contained in the first")
    return local_colength(submodule_pullback(M.generators, N))
