"""Packed coset-closure group orders against the permutation closure in
oracles.py.

Permutation matrices over GF(2**d), d = 1, 2, 3, generate a group
isomorphic to the permutation group of their permutations, so the order
found by the packed closure must equal the oracle's.  A pair of
permutation matrices acting componentwise is the permutation of the
disjoint union of both point sets.  Generators that are already in the
group of the earlier ones (a repeat, the identity, a product) must leave
the order unchanged, and so must the order of the generators.  Each
planted fault in the closure changes the order of the smallest
generators that catch it, or makes the walk fail.
"""

from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from ytwo import spectool
from ytwo.quadspace import RMatrix
from ytwo.rings import FiniteField
from ytwo.spectool import (
    EXPECTED_ORDERS,
    eta_component_matrices,
    group_order_bfs,
    group_order_bfs_tuples,
    pack_matrix,
    unpack_matrix,
)

from oracles import perm_closure

FIELDS = {d: FiniteField(d) for d in (1, 2, 3)}

degrees = st.sampled_from(sorted(FIELDS))


def perms(n, count=None):
    lo, hi = (1, 4) if count is None else (count, count)
    return st.lists(st.permutations(range(n)), min_size=lo, max_size=hi)


def perm_matrix(field, p):
    """Row i has its one in column p[i]."""
    n = len(p)
    return RMatrix(
        tuple(
            tuple(field.one if j == p[i] else field.zero for j in range(n))
            for i in range(n)
        )
    )


@settings(max_examples=60, deadline=None)
@given(degrees, st.integers(1, 6).flatmap(perms), st.integers(0, 3), st.integers(0, 3))
# S3 = <a, b>: the third coset of <a> is reached only as b * a, a coset
# representative times the earlier generator
@example(1, [(1, 0, 2), (0, 2, 1)], 0, 1)
def test_single_component(d, ps, i, j):
    field = FIELDS[d]
    mats = [perm_matrix(field, p) for p in ps]
    for mat in mats:
        assert unpack_matrix(pack_matrix(mat), mat.size, field) == mat
    order = perm_closure(ps)
    assert group_order_bfs(mats) == order
    # the identity first, then a repeat and a product of earlier
    # generators: each lies in the group of the generators before it
    n = len(ps[0])
    a, b = ps[i % len(ps)], ps[j % len(ps)]
    ident, again, product = (
        perm_matrix(field, p) for p in (range(n), a, [b[a[x]] for x in range(n)])
    )
    assert group_order_bfs([ident] + mats + [again, product]) == order


@st.composite
def two_components(draw):
    count = draw(st.integers(1, 4))
    return [
        (draw(degrees), draw(st.integers(1, 4).flatmap(lambda n: perms(n, count))))
        for _ in range(2)
    ]


@settings(max_examples=60, deadline=None)
@given(two_components())
def test_two_components(comps):
    (d1, ps1), (d2, ps2) = comps
    n1 = len(ps1[0])
    tuples = [
        (perm_matrix(FIELDS[d1], p1), perm_matrix(FIELDS[d2], p2))
        for p1, p2 in zip(ps1, ps2)
    ]
    joined = [tuple(p1) + tuple(n1 + x for x in p2) for p1, p2 in zip(ps1, ps2)]
    assert group_order_bfs_tuples(tuples) == perm_closure(joined)


def test_eta_generator_order_independent():
    tuples = eta_component_matrices(3, 7)
    for order in permutations(tuples):
        assert group_order_bfs_tuples(order) == EXPECTED_ORDERS[3, 7]


# -- planted faults in the closure ---------------------------------------------

# name: (edit to ``_coset_closure``, the smallest generators that catch
# it, and the order the planted closure gives, or the error it raises)
CLOSURE_PLANTS = {
    # the third coset of <a> in S3 is reached only as b * a
    "newest generator only": (
        ("for s in taken:", "for s in taken[-1:]:"), [(1, 0, 2), (0, 2, 1)], 4
    ),
    # the identity lies in the trivial group, yet is added as its coset
    "in seen skip dropped": (("continue  # g is already in H", "pass"), [(0,)], 2),
    # with |H| = 1, elements[pos + 1] is the next coset, past the end
    "membership at pos + 1": (
        ("rep = [elements[pos]]", "rep = [elements[pos + 1]]"), [(1, 0)], IndexError
    ),
}


@pytest.mark.parametrize("name", sorted(CLOSURE_PLANTS))
def test_planted_closure_fault_is_caught(plant, name):
    edit, ps, planted = CLOSURE_PLANTS[name]
    mats = [perm_matrix(FIELDS[1], p) for p in ps]
    assert group_order_bfs(mats) == perm_closure(ps)
    plant(spectool, "_coset_closure", edit)
    try:
        got = group_order_bfs(mats)
    except IndexError as exc:
        got = type(exc)
    assert got == planted
