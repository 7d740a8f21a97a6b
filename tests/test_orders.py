"""Axioms and worked comparisons for the local and module orderings."""

from hypothesis import given, strategies as st

from germlab.ring import negdegrevlex_key

from _oracle import term_key

TOP = term_key()

monos3 = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


def compare(key, a, b) -> int:
    """1 if a beats b under `key`, -1 if b beats a, 0 on equality."""
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


def test_compare_examples():
    assert compare(negdegrevlex_key, (0, 0), (1, 0)) == 1  # 1 beats x
    assert compare(negdegrevlex_key, (1, 0), (0, 2)) == 1  # degree 1 beats degree 2
    assert compare(negdegrevlex_key, (2, 1), (1, 2)) == 1  # x^2*y beats x*y^2
    assert compare(negdegrevlex_key, (1, 1), (1, 1)) == 0


@given(monos3, monos3)
def test_totality_and_antisymmetry(a, b):
    result = compare(negdegrevlex_key, a, b)
    assert result in (-1, 0, 1)
    assert (result == 0) == (a == b)
    assert compare(negdegrevlex_key, b, a) == -result


@given(monos3, monos3, monos3)
def test_transitivity(a, b, c):
    if compare(negdegrevlex_key, a, b) >= 0 and compare(negdegrevlex_key, b, c) >= 0:
        assert compare(negdegrevlex_key, a, c) >= 0


@given(monos3, monos3, monos3)
def test_multiplicativity(a, b, c):
    shifted = lambda m: tuple(x + y for x, y in zip(m, c))
    assert compare(negdegrevlex_key, a, b) == compare(negdegrevlex_key, shifted(a), shifted(b))


@given(monos3)
def test_one_is_maximal(mono):
    one = (0, 0, 0)
    if sum(mono) > 0:
        assert compare(negdegrevlex_key, one, mono) == 1


def test_module_order_top_breaks_ties_by_component():
    assert compare(TOP, (0, (1, 0)), (1, (1, 0))) == 1  # smaller component wins
    assert compare(TOP, (3, (0, 0)), (0, (1, 0))) == 1  # monomial part first


def test_block_order_dominates_trailing_block():
    block = term_key(2)
    # any term in components 0..1 beats any term in the rest
    assert compare(block, (1, (5, 5)), (2, (0, 0))) == 1
    assert compare(block, (4, (0, 0)), (0, (3, 0))) == -1
    # within a block: term over position
    assert compare(block, (2, (1, 0)), (3, (0, 2))) == 1


@given(monos3, monos3)
def test_block_order_scalar_compatible(a, b):
    block = term_key(1)
    for comp in (0, 2):
        before = compare(block, (comp, a), (comp, b))
        after = compare(block, (comp, tuple(x + 1 for x in a)), (comp, tuple(x + 1 for x in b)))
        assert before == after
