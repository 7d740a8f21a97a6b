"""Derived module operations built on the standard-basis kernel.

Everything here reduces to one primitive, the submodule pullback
K = {a : sum a_i * g_i in N}, read off one standard basis of a graph
module under a block-eliminating order (`submodule_pullback`).  Syzygies
are the pullback of the zero submodule; intersections, Theta_X (`derlog`)
and the correction term c2 (`invariants`) are pullbacks too, which keeps
every computation inside a single local-ordering engine.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .ring import Polynomial, RingSpec
from .standard_basis import ModuleElement, Submodule, standard_basis


def syzygies(gens: Sequence[ModuleElement]) -> Submodule:
    """Generators of the relation module {a in O^r : sum a_i * g_i = 0}:
    the pullback of the zero submodule along the g_i."""
    gens = list(gens)
    if not gens:
        raise ValueError("syzygies need at least one generator")
    return submodule_pullback(gens, Submodule.zero(gens[0].ring, gens[0].rank))


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
    sequence g_1..g_r in N's ambient module O^m.

    The graph module in O^(m+r) spanned by the (g_i | e_i) and the
    (n_j | 0), n_j the generators of N, meets 0 + O^r in exactly 0 + K.
    Under the order that eliminates the first block, the standard-basis
    elements that lead in the tag block generate that part, and K is
    spanned by their tag parts.  A zero generator keeps its position, so K
    has rank r and contains its unit vector.
    """
    ring, m, r = N.ring, N.rank, len(gens)
    if any(g.ring != ring or g.rank != m for g in gens):
        raise ValueError("generators live in different modules")
    zero = ring.zero_monomial()
    graph = [ModuleElement._raw(ring, m + r, {**g.terms, (m + i, zero): Fraction(1)})
             for i, g in enumerate(gens)]
    graph += [ModuleElement._raw(ring, m + r, n.terms) for n in N.generators]
    sb = standard_basis(Submodule(ring, m + r, graph), block=m)
    tags = [
        ModuleElement._raw(ring, r, {(c - m, mono): v for (c, mono), v in el.terms.items()})
        for el, (lead_comp, _) in zip(sb.elements, sb.lead_terms)
        if lead_comp >= m
    ]
    return Submodule(ring, r, list(dict.fromkeys(tags)))
