"""Independent linear-algebra oracles for colengths, syzygies, tangency
and quasihomogeneous weights.

Everything here is plain sparse Gaussian elimination over Fraction acting
on raw term dicts ({monomial: coeff} or {(component, monomial): coeff}).
Nothing imports the Mora/standard-basis machinery these oracles are used
to cross-check.  `term_key` specifies the module orders as tuple keys,
against which the tests check the kernel's packed terms.
`detect_quasihomogeneous` reads only the exponents of the polynomials it
is given and of a germ's generators.

Colengths are computed as stabilized truncations: dim O^rank / (M + m^D)
equals (number of module monomials of degree < D) minus the rank of the
matrix whose rows are all monomial multiples of the generators truncated
below degree D.  For a finite colength the value is nondecreasing in D and
becomes constant once m^D lands inside the module, so stabilizing twice in
a row is accepted as converged.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, lcm

from germlab.ring import negdegrevlex_key


class OracleDidNotStabilize(RuntimeError):
    pass


def term_key(block: int = 0):
    """Key function on (component, monomial) pairs whose lexicographic
    comparison is the module order; the key is injective.

    With `block == 0` the order is term-over-position: compare the
    monomial parts and break ties by preferring the smaller component
    index.  With `block > 0` it is block-eliminating: every term whose
    component lies in the leading block (components 0 .. block-1) beats
    every term in the trailing block, and within a block terms compare
    term-over-position.
    """
    if block == 0:
        def top_key(term):
            c, m = term
            return negdegrevlex_key(m) + (-c,)
        return top_key

    def block_key(term):
        c, m = term
        return (1 if c < block else 0,) + negdegrevlex_key(m) + (-c,)
    return block_key


def monomials_below(n: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples in n variables with total degree < degree."""
    out = []
    for total in range(degree):
        for bars in combinations_with_replacement(range(n), total):
            mono = [0] * n
            for i in bars:
                mono[i] += 1
            out.append(tuple(mono))
    return out


def _mono_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _row_rank(rows, column_index) -> int:
    """Rank of sparse rows over Fraction; columns ordered by column_index."""
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row, key=column_index.__getitem__)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivot.items():
                val = row.get(c, 0) - factor * v
                if val:
                    row[c] = val
                else:
                    row.pop(c, None)
    return len(pivots)


def _truncated_rows(n, rank, gens, degree):
    """All monomial multiples of the generators, truncated below `degree`."""
    multipliers = monomials_below(n, degree)
    rows = []
    for vec in gens:
        for alpha in multipliers:
            row = {}
            for (comp, mono), coeff in vec.items():
                shifted = _mono_add(mono, alpha)
                if sum(shifted) < degree:
                    row[(comp, shifted)] = coeff
            if row:
                rows.append(row)
    return rows


def _column_index(n, rank, degree):
    cols = [
        (comp, mono)
        for mono in monomials_below(n, degree)
        for comp in range(rank)
    ]
    cols.sort(key=lambda t: (sum(t[1]), t[0], t[1]))
    return {c: i for i, c in enumerate(cols)}


def truncated_span_dim(n, rank, gens, degree) -> int:
    """dim of the image of the module span in O^rank / m^degree."""
    return _row_rank(_truncated_rows(n, rank, gens, degree), _column_index(n, rank, degree))


def truncated_colength(n, rank, gens, cap: int = 26) -> int:
    """Stabilized dim O^rank / (span(gens) + m^D); fails loudly if no plateau."""
    dims = []
    for degree in range(2, cap):
        total = rank * len(monomials_below(n, degree))
        dims.append(total - truncated_span_dim(n, rank, gens, degree))
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return dims[-1]
    raise OracleDidNotStabilize(f"no plateau up to degree {cap}: {dims}")


def truncated_subquotient(n, rank, gens_big, gens_small, cap: int = 26) -> int:
    """Stabilized dim (M + m^D)/(N + m^D) for N contained in M."""
    dims = []
    for degree in range(2, cap):
        cols = _column_index(n, rank, degree)
        big = _row_rank(_truncated_rows(n, rank, gens_big, degree), cols)
        small = _row_rank(_truncated_rows(n, rank, gens_small, degree), cols)
        dims.append(big - small)
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            return dims[-1]
    raise OracleDidNotStabilize(f"no plateau up to degree {cap}: {dims}")


def _nullspace(equations, unknowns):
    """Basis of the solution space of the sparse homogeneous system."""
    index = {u: i for i, u in enumerate(unknowns)}
    pivots: dict = {}
    for eq in equations:
        row = dict(eq)
        while row:
            for pu, pr in list(pivots.items()):
                if pu in row:
                    factor = row[pu]
                    for c, v in pr.items():
                        val = row.get(c, 0) - factor * v
                        if val:
                            row[c] = val
                        else:
                            row.pop(c, None)
            if not row:
                break
            lead = min(row, key=index.__getitem__)
            inv = Fraction(1) / row[lead]
            normalized = {c: v * inv for c, v in row.items()}
            for pu, pr in pivots.items():
                if lead in pr:
                    factor = pr[lead]
                    for c, v in normalized.items():
                        val = pr.get(c, 0) - factor * v
                        if val:
                            pr[c] = val
                        else:
                            pr.pop(c, None)
            pivots[lead] = normalized
            break
    basis = []
    for u in unknowns:
        if u in pivots:
            continue
        vec = {u: Fraction(1)}
        for pu, pr in pivots.items():
            coeff = pr.get(u)
            if coeff:
                vec[pu] = -coeff
        basis.append(vec)
    return basis


def detect_quasihomogeneous(f, X):
    """Positive rational weights making the polynomial f (or None) and
    every generator of the germ X weighted-homogeneous, or None.

    The constraints say that within each polynomial all exponent vectors
    have equal weighted degree; the candidate weights form the kernel of
    the exponent-difference matrix, and a positive point is searched by a
    bounded sweep of rational combinations of the kernel basis.  Weights
    are returned as coprime positive integers.
    """
    ring = X.ring
    polys = [] if X.is_ambient else list(X.generators)
    if f is not None and not f.is_zero():
        if f.ring != ring:
            raise ValueError("mixed rings")
        polys.append(f)
    n = ring.n
    rows = []
    for p in polys:
        monos = sorted(p.terms)
        base = monos[0]
        for mono in monos[1:]:
            rows.append({i: a - b for i, (a, b) in enumerate(zip(mono, base)) if a != b})
    kernel = _nullspace(rows, range(n))
    if not kernel:
        return None
    t = len(kernel)
    for bound in range(1, 13):
        if (2 * bound + 1) ** t > 3_000_000:
            break
        for lam in product(range(-bound, bound + 1), repeat=t):
            if max(abs(v) for v in lam) != bound:
                continue
            weights = [sum(l * vec.get(i, 0) for l, vec in zip(lam, kernel)) for i in range(n)]
            if all(w > 0 for w in weights):
                return _normalize_weights(weights)
    return None


def _normalize_weights(weights):
    denom = lcm(*(w.denominator for w in weights))
    ints = [int(w * denom) for w in weights]
    return tuple(v // gcd(*ints) for v in ints)


def exact_polynomial_syzygies(n, rank, gens, coeff_degree) -> list[tuple[dict, ...]]:
    """All relations (a_1..a_r) with deg a_i < coeff_degree, exactly.

    The products have bounded degree, so vanishing modulo a high enough
    power of the maximal ideal is literal vanishing: no stabilization is
    needed, the kernel of one finite matrix is the answer.
    """
    r = len(gens)
    max_deg = max((sum(m) for vec in gens for (_, m) in vec), default=0)
    bound = coeff_degree + max_deg
    multipliers = monomials_below(n, coeff_degree)
    unknowns = [(i, alpha) for i in range(r) for alpha in multipliers]
    equations: dict = {}
    for i, vec in enumerate(gens):
        for alpha in multipliers:
            for (comp, mono), coeff in vec.items():
                key = (comp, _mono_add(mono, alpha))
                if sum(key[1]) >= bound:
                    continue
                row = equations.setdefault(key, {})
                val = row.get((i, alpha), 0) + coeff
                if val:
                    row[(i, alpha)] = val
                else:
                    row.pop((i, alpha), None)
    eq_rows = [row for row in equations.values() if row]
    basis = _nullspace(eq_rows, unknowns)
    out = []
    for vec in basis:
        coords = tuple(
            {alpha: coeff for (i, alpha), coeff in vec.items() if i == idx and coeff}
            for idx in range(r)
        )
        out.append(coords)
    return out


def truncated_tangent_fields(n, gen_polys, field_degree, cap: int = 14):
    """Polynomial vector fields xi of degree < field_degree with every
    df_r(xi) in the ideal of the gen_polys, found by stabilized truncation.

    Returns a list of {(component, monomial): coeff} dicts.  The spaces are
    nested decreasing in the truncation degree, so two equal consecutive
    dimensions certify stabilization; the caller should still confirm the
    tangency of each returned field exactly.
    """
    gradients = []
    for p in gen_polys:
        grads = []
        for i in range(n):
            d = {}
            for mono, coeff in p.items():
                if mono[i]:
                    lowered = list(mono)
                    lowered[i] -= 1
                    d[tuple(lowered)] = coeff * mono[i]
            grads.append(d)
        gradients.append(grads)

    xi_monos = monomials_below(n, field_degree)
    xi_unknowns = [("xi", comp, alpha) for comp in range(n) for alpha in xi_monos]

    previous_dim = None
    previous_basis = None
    for trunc in range(field_degree + 1, cap):
        b_monos = monomials_below(n, trunc)
        unknowns = list(xi_unknowns)
        for r in range(len(gen_polys)):
            for s in range(len(gen_polys)):
                unknowns += [("b", r, s, beta) for beta in b_monos]
        equations: dict = {}

        def put(eq_key, unknown, coeff):
            row = equations.setdefault(eq_key, {})
            val = row.get(unknown, 0) + coeff
            if val:
                row[unknown] = val
            else:
                row.pop(unknown, None)

        for r in range(len(gen_polys)):
            for comp in range(n):
                for mono, coeff in gradients[r][comp].items():
                    for alpha in xi_monos:
                        key = _mono_add(mono, alpha)
                        if sum(key) < trunc:
                            put((r, key), ("xi", comp, alpha), coeff)
            for s, p in enumerate(gen_polys):
                for mono, coeff in p.items():
                    for beta in b_monos:
                        key = _mono_add(mono, beta)
                        if sum(key) < trunc:
                            put((r, key), ("b", r, s, beta), -coeff)
        basis = _nullspace(list(equations.values()), unknowns)
        projected = []
        for vec in basis:
            row = {
                (comp, alpha): coeff
                for (tag, comp, alpha), coeff in (
                    (u, c) for u, c in vec.items() if u[0] == "xi"
                )
            }
            if row:
                projected.append(row)
        cols = {u: i for i, u in enumerate(sorted(
            ((comp, alpha) for comp in range(n) for alpha in xi_monos),
            key=lambda t: (sum(t[1]), t[0], t[1]),
        ))}
        reduced = _reduced_basis(projected, cols)
        dim = len(reduced)
        if previous_dim is not None and dim == previous_dim:
            return previous_basis if previous_basis is not None else reduced
        previous_dim = dim
        previous_basis = reduced
    raise OracleDidNotStabilize(f"tangent-field space did not stabilize below degree {cap}")


def _reduced_basis(rows, column_index):
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row, key=column_index.__getitem__)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = Fraction(1) / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            factor = row[lead]
            for c, v in pivot.items():
                val = row.get(c, 0) - factor * v
                if val:
                    row[c] = val
                else:
                    row.pop(c, None)
    return list(pivots.values())
