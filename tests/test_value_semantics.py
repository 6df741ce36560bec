"""Arithmetic never changes its operands or the shared constants.

The value classes are plain ``__slots__`` classes and nothing stops a
field from being assigned after construction, so this checks the
convention on every operation: each operand's JSON and hash, and a
matrix's sparse rows, read the same after the operation as before.
Operands come from the strategies of the oracle tests.
"""

import pytest
from hypothesis import given, settings, strategies as st

from ytwo.clifford import cl_inverse, get_algebra
from ytwo.errors import YtwoError
from ytwo.ortho import OrthoRep
from ytwo.quadspace import QuadSpace, RMatrix
from ytwo.rings import ALPHA, L_ONE, L_ZERO, QE_ONE, QE_ZERO

from test_clifford_oracle import build as build_element, raw_terms
from test_rmatrix_oracle import FIELD, RINGS, build as build_matrix, entry, matrix_triples, scalar


def snapshot(x):
    snap = (x.to_json(), hash(x))
    if isinstance(x, RMatrix):
        view = [sorted((j, y.to_json()) for j, y in row.items()) for row in x.entries]
        snap += (view,)
    return snap


def inverse_or_none(fn):
    """Run an inversion; a non-unit raising a YtwoError is not a failure here."""
    try:
        return fn()
    except YtwoError:
        return None


def frobenius(x):
    return x * x  # a ring map in characteristic two: sends zero to zero


@pytest.mark.parametrize("ring", RINGS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    raw=st.tuples(entry, entry),
    mats=matrix_triples,
    terms=st.tuples(raw_terms, raw_terms),
    m=st.integers(3, 5),
)
def test_operations_leave_operands_unchanged(ring, raw, mats, terms, m):
    a, b = (scalar(ring, x) for x in raw)
    p, q, r = (build_matrix(ring, x) for x in mats)
    pq = p * q  # its row dicts were filled by the product
    operands = [a, b, p, q, r, pq]
    ops = [
        lambda: a + b,
        lambda: a * b,
        lambda: a ** 0,
        lambda: a ** 3,
        lambda: inverse_or_none(a.inverse),
        lambda: p * q,
        lambda: pq * r,
        lambda: r * pq,
        lambda: p ** 3,
        lambda: pq.row_apply(r.rows[0]),
        lambda: p.map_entries(frobenius),
        lambda: pq.map_entries(frobenius),
    ]
    if ring == "laurent":
        # a phi word with a b-letter: its images and its letters' kept
        # factor ops are read, not written
        phi = OrthoRep(QuadSpace(m))
        word = ("a", "s1", "b2", "t", "B3", "S2", "A")
        phi.product(word)
        operands += [phi.image(x) for x in word]
        kept = dict(phi._ops)
        ops.append(lambda: phi.product(word))
    constants = [L_ZERO, L_ONE, QE_ZERO, QE_ONE, ALPHA, FIELD.zero, FIELD.one]
    if ring != "ff":
        alg = get_algebra(m, ring)
        c, d = build_element(alg, terms[0]), build_element(alg, terms[1])
        operands += [c, d]
        ops += [
            lambda: c + d,
            lambda: c * d,
            lambda: c ** 0,
            lambda: c ** 3,
            lambda: inverse_or_none(lambda: c ** -1),
            lambda: c.transpose(),
            lambda: inverse_or_none(lambda: cl_inverse(c)),
            lambda: c.scale(scalar("laurent", raw[1])),
        ]
        constants += [alg.zero, alg.one]

    before = [snapshot(x) for x in operands + constants]
    for op in ops:
        op()
    assert [snapshot(x) for x in operands + constants] == before
    if ring == "laurent":
        assert phi._ops == kept
