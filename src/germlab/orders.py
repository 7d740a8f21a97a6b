"""Local monomial orderings and their extensions to free modules.

Every ordering here is realized as a key function mapping a monomial
(`negdegrevlex_key`) or a (component, monomial) pair
(`ModuleOrder.term_key`) to a tuple of ints such that the order relation
coincides with lexicographic comparison of keys.  Lead terms are then just
`max(..., key=...)` over term dicts, and the key is injective, so maxima
are unique and all computations are deterministic.
"""

from __future__ import annotations

from .ring import RingSpec, negdegrevlex_key


class LocalOrder:
    """Negative-degree reverse-lexicographic order on monomials.

    x^a beats x^b iff |a| < |b|, or the degrees tie and the rightmost
    nonzero entry of a-b is negative.  This is a local order (1 beats every
    variable) compatible with multiplication.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: RingSpec):
        self.ring = ring

    def __eq__(self, other) -> bool:
        return isinstance(other, LocalOrder) and self.ring == other.ring

    def __hash__(self) -> int:
        return hash(("LocalOrder", self.ring))

    def __repr__(self) -> str:
        return f"LocalOrder({self.ring!r})"


class ModuleOrder:
    """Extension of a LocalOrder to terms of a free module.

    Two schemes are supported:

    * term-over-position: compare the monomial parts with the base order
      and break ties by preferring the smaller component index;
    * block-eliminating: every term whose component lies in the leading
      block (components 0 .. lead_rank-1) beats every term in the trailing
      block, and within a block terms compare term-over-position.

    The block scheme is what makes syzygy extraction work: an element whose
    lead component lies in the trailing block can have no leading-block
    terms at all.
    """

    __slots__ = ("base", "scheme", "lead_rank")

    def __init__(self, base: LocalOrder, scheme: str = "top", lead_rank: int = 0):
        if scheme not in ("top", "block"):
            raise ValueError(f"unknown module-order scheme {scheme!r}")
        self.base = base
        self.scheme = scheme
        self.lead_rank = lead_rank

    @classmethod
    def term_over_position(cls, base: LocalOrder) -> ModuleOrder:
        return cls(base, "top")

    @classmethod
    def block_eliminating(cls, base: LocalOrder, lead_rank: int) -> ModuleOrder:
        if lead_rank < 1:
            raise ValueError("leading block must contain at least one component")
        return cls(base, "block", lead_rank)

    def term_key(self):
        """Key function on (component, monomial) pairs."""
        if self.scheme == "top":
            def top_key(term):
                c, m = term
                return negdegrevlex_key(m) + (-c,)
            return top_key

        lead_rank = self.lead_rank

        def block_key(term):
            c, m = term
            return (1 if c < lead_rank else 0,) + negdegrevlex_key(m) + (-c,)
        return block_key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ModuleOrder)
            and self.base == other.base
            and self.scheme == other.scheme
            and self.lead_rank == other.lead_rank
        )

    def __hash__(self) -> int:
        return hash(("ModuleOrder", self.base, self.scheme, self.lead_rank))

    def __repr__(self) -> str:
        if self.scheme == "top":
            return f"ModuleOrder.top({self.base!r})"
        return f"ModuleOrder.block({self.base!r}, lead_rank={self.lead_rank})"
