"""Powers x**k against repeated products in oracles.py, for Laurent and
QE scalars, Clifford elements (m = 3..5, both rings) and matrices.

All four ``__pow__`` methods share one square-and-multiply loop, so each
k in 0..12 is checked against k - 1 oracle products.  Matrices go on to
k = 50, the longest letter run ``evaluate`` raises in ``verify
closed-form`` (its ``--kmax`` bound).
"""

import pytest
from hypothesis import given, settings, strategies as st

from ytwo.clifford import get_algebra
from ytwo.quadspace import RMatrix
from ytwo.rings import LaurentScalar, QEScalar

from oracles import (
    REF_LP_RING,
    REF_QE_RING,
    ref_cl_mul,
    ref_lp,
    ref_lp_mul,
    ref_mat_mul,
    ref_qe,
    ref_qe_mul,
)

KMAX = 12
MATRIX_KMAX = 50

exps = st.lists(st.integers(-3, 3), max_size=3)


def lp(e):
    return LaurentScalar.from_exponents(e)


def qe(e0, e1):
    return QEScalar(lp(e0), lp(e1))


def lp_ref(x):
    return ref_lp(x.exponents())


def qe_ref(x):
    return ref_qe(x.c0.exponents(), x.c1.exponents())


def check_powers(x, to_ref, ref_x, mul, ref_one=None, kmax=KMAX):
    """x**k for k = 0..kmax, or from k = 1 when the ring has no one."""
    want, k = (ref_x, 1) if ref_one is None else (ref_one, 0)
    while k <= kmax:
        assert to_ref(x ** k) == want, k
        want = mul(want, ref_x)
        k += 1


@settings(max_examples=60, deadline=None)
@given(exps)
def test_laurent(e):
    check_powers(lp(e), lp_ref, ref_lp(e), ref_lp_mul, ref_lp([0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(-5, 5))
def test_laurent_monomial_negative(e):
    # s**e inverts to s**-e, so x**-k is the k-th power of s**-e
    x = lp([e])
    want = ref_lp([0])
    for k in range(1, KMAX + 1):
        want = ref_lp_mul(want, ref_lp([-e]))
        assert lp_ref(x ** -k) == want, k


@settings(max_examples=60, deadline=None)
@given(exps, exps)
def test_qe(e0, e1):
    check_powers(qe(e0, e1), qe_ref, ref_qe(e0, e1), ref_qe_mul, ref_qe([0]))


def cl_ref(el):
    out = {}
    for mono, c in el.terms.items():
        word = tuple(i for i in range(el.algebra.m + 1) if mono >> i & 1)
        out[word] = qe_ref(c) if isinstance(c, QEScalar) else ref_qe(c.exponents())
    return out


small_exps = st.lists(st.integers(-2, 2), max_size=2)


@pytest.mark.parametrize("ring", ("laurent", "qe"))
@pytest.mark.parametrize("m", (3, 4, 5))
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 63), small_exps, small_exps), max_size=3))
def test_clifford(m, ring, raw):
    alg = get_algebra(m, ring)
    terms = {}
    for mono, e0, e1 in raw:
        terms[mono % (1 << (m + 1))] = qe(e0, e1) if ring == "qe" else lp(e0)
    x = alg.from_terms(terms)
    check_powers(x, cl_ref, cl_ref(x), ref_cl_mul, {(): ref_qe([0])})


RINGS = {
    "laurent": (lambda e: lp(e[0]), lp_ref, lambda e: ref_lp(e[0]), REF_LP_RING),
    "qe": (lambda e: qe(*e), qe_ref, lambda e: ref_qe(*e), REF_QE_RING),
}
tiny_exps = st.lists(st.integers(-1, 1), max_size=2)
square_raw = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.tuples(tiny_exps, tiny_exps), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=20, deadline=None)
@given(square_raw)
def test_matrix(ring, raw):
    build, to_ref, ref_entry, ref_ring = RINGS[ring]
    mat = RMatrix(tuple(tuple(build(e) for e in row) for row in raw))
    ref = [[ref_entry(e) for e in row] for row in raw]
    check_powers(
        mat,
        lambda a: [[to_ref(x) for x in row] for row in a.rows],
        ref,
        lambda a, b: ref_mat_mul(a, b, ref_ring),
        kmax=MATRIX_KMAX,
    )


def test_matrix_power_needs_positive_k():
    mat = RMatrix(((lp([0]),),))
    for k in (0, -1):
        with pytest.raises(ValueError):
            mat ** k
