"""The local monomial ordering and its extensions to free modules.

Monomials are ordered by negative-degree reverse-lexicographic order
(`negdegrevlex_key`): x^a beats x^b iff |a| < |b|, or the degrees tie and
the rightmost nonzero entry of a-b is negative.  It is a local order (1
beats every variable) compatible with multiplication.

`term_key` extends it to (component, monomial) pairs as a key function
whose lexicographic comparison is the module order.  The key is
injective, so maxima are unique and all computations are deterministic.
It is the specification of the order: the standard-basis kernel packs
each term into one int whose integer order is the reverse of this one
(`standard_basis._Packing`), and the tests check the packing against
`term_key` on random terms.
"""

from __future__ import annotations

from .ring import negdegrevlex_key


def term_key(block: int = 0):
    """Key function on (component, monomial) pairs.

    With `block == 0` the order is term-over-position: compare the
    monomial parts and break ties by preferring the smaller component
    index.  With `block > 0` it is block-eliminating: every term whose
    component lies in the leading block (components 0 .. block-1) beats
    every term in the trailing block, and within a block terms compare
    term-over-position.  The block order is what makes submodule pullbacks
    work: an element whose lead component lies in the trailing block can
    have no leading-block terms at all.
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
