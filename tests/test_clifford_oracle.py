"""Clifford products, sums and transposes against the word-rewriting
reference in oracles.py, on both scalar rings for m = 3..6, plus every
monomial product and transpose of fresh algebras at m = 3 and 4, and
the canonical raw storage form under operations that must not change
an element."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ytwo import clifford
from ytwo.clifford import CliffordAlgebra, CliffordElement, get_algebra
from ytwo.rings import LaurentScalar, QEScalar

from oracles import ref_cl_add, ref_cl_mul, ref_cl_transpose, ref_qe

RINGS = ("laurent", "qe")
MS = (3, 4, 5, 6)

exps = st.lists(st.integers(-8, 8), max_size=4)
# (monomial seed, c0 exponents, c1 exponents); the monomial is reduced mod 2**(m+1)
raw_terms = st.lists(st.tuples(st.integers(0, 127), exps, exps), max_size=5)


def build(alg, raw):
    terms = {}
    for mono, e0, e1 in raw:
        c0 = LaurentScalar.from_exponents(e0)
        if alg.ring == "qe":
            c0 = QEScalar(c0, LaurentScalar.from_exponents(e1))
        terms[mono % (1 << (alg.m + 1))] = c0
    return alg.from_terms(terms)


def to_ref(el):
    out = {}
    for mono, c in el.terms.items():
        word = tuple(i for i in range(el.algebra.m + 1) if mono >> i & 1)
        if isinstance(c, QEScalar):
            out[word] = ref_qe(c.c0.exponents(), c.c1.exponents())
        else:
            out[word] = ref_qe(c.exponents())
    return out


def check_canonical(el):
    """The stored form: one dict per power of alpha, no stored zero int,
    and lo chosen so that the OR of the stored ints is odd (lo = 0 for
    the zero element); and every Laurent part of the ``terms`` view in
    canonical (off, mask) form."""
    assert len(el.parts) == (1 if el.algebra.ring == "laurent" else 2)
    low = 0
    for part in el.parts:
        assert all(part.values())
        for x in part.values():
            low |= x
    assert low & 1 or (low == 0 and el.lo == 0)
    for c in el.terms.values():
        assert c
        for part in (c.c0, c.c1) if isinstance(c, QEScalar) else (c,):
            assert part.mask & 1 or (part.mask == 0 and part.off == 0)


# (v1 + v2)**2 = 1: the squares cancel.  r = u + v1 + ... + v6 squares
# to q(r) = 0 at m = 6, so every term of r * r cancels.
CANCEL = [(0b010, [0], []), (0b100, [0], [])]
RADICAL = [(1 << i, [0], []) for i in range(7)]


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(x=raw_terms, y=raw_terms)
@example(x=[], y=[(3, [-5, 2], [1])])
@example(x=[(3, [-5, 2], [1])], y=[])
@example(x=CANCEL, y=CANCEL)
@example(x=RADICAL, y=RADICAL)
@example(x=[(1, [-3], [-1])], y=[(1, [3], [])])
@example(
    x=[(0b011, [-7, -6, 0], [4]), (0b110, [-1], [-2, 5])],
    y=[(0b011, [0], []), (0b101, [-8, 8], [0])],
)
def test_mul_matches_reference(m, ring, x, y):
    alg = get_algebra(m, ring)
    a, b = build(alg, x), build(alg, y)
    prod = a * b
    check_canonical(prod)
    assert to_ref(prod) == ref_cl_mul(to_ref(a), to_ref(b))


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(x=raw_terms)
@example(x=[])
@example(x=CANCEL)
@example(x=[(127, [-8, -3, 7], [-1, 0])])
def test_transpose_matches_reference(m, ring, x):
    alg = get_algebra(m, ring)
    a = build(alg, x)
    tr = a.transpose()
    check_canonical(tr)
    assert to_ref(tr) == ref_cl_transpose(to_ref(a))


@pytest.mark.parametrize("ring", RINGS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(x=raw_terms, y=raw_terms)
@example(x=CANCEL, y=CANCEL)
@example(x=[(5, [-4], [])], y=[(5, [-4], []), (6, [2], [3])])
def test_add_matches_reference(ring, x, y):
    alg = get_algebra(4, ring)
    a, b = build(alg, x), build(alg, y)
    total = a + b
    check_canonical(total)
    assert to_ref(total) == ref_cl_add(to_ref(a), to_ref(b))
    assert not a + a


@pytest.mark.parametrize("ring", RINGS)
def test_cancelling_product_is_empty(ring):
    alg = get_algebra(6, ring)
    r = alg.radical_element()
    assert (r * r).terms == {}
    u, v1 = alg.u(), alg.v(1)
    assert u * v1 + v1 * u == alg.one
    assert (u * v1 + v1 * u + alg.one).terms == {}


# (c0, c1) exponents of the left and right coefficients.  Over "qe" both
# carry alpha, so every product has an alpha**2 part to fold back.
FULL_COEFFS = {
    "laurent": (([-1, 2], []), ([3], [])),
    "qe": (([-1], [0, 2]), ([2], [-3])),
}


@pytest.mark.parametrize("transposes_first", (True, False), ids=("tr-first", "mul-first"))
@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", (3, 4))
def test_every_monomial_pair_on_fresh_algebra(m, ring, transposes_first):
    # A fresh algebra starts with no spread tables, so each table is built
    # by the check that needs it; filling transposes or products first
    # catches a transpose table read back for a product pair or the reverse.
    alg = CliffordAlgebra(m, ring)
    (l0, l1), (r0, r1) = FULL_COEFFS[ring]
    monos = range(1 << (m + 1))
    left = [build(alg, [(p, l0, l1)]) for p in monos]
    right = [build(alg, [(q, r0, r1)]) for q in monos]

    def check_transposes():
        for a in left:
            tr = a.transpose()
            check_canonical(tr)
            assert to_ref(tr) == ref_cl_transpose(to_ref(a))

    def check_products():
        for a in left:
            for b in right:
                prod = a * b
                check_canonical(prod)
                assert to_ref(prod) == ref_cl_mul(to_ref(a), to_ref(b))

    checks = (check_transposes, check_products)
    for check in checks if transposes_first else checks[::-1]:
        check()
    # one table per monomial pair and per transposed monomial, the count
    # the benchmark's cache_entries reads
    assert len(alg._polybits_cache) == 4 ** (m + 1) + 2 ** (m + 1)


def check_unchanged_by_identities(alg, el):
    """Operations equal to the identity give back an element with the
    same stored form (equality compares it) and the same hash."""
    check_canonical(el)
    same = (
        el + alg.zero,
        el * alg.one,
        alg.one * el,
        el.transpose().transpose(),
        alg.from_terms(el.terms),
    )
    for x in same:
        assert x == el and hash(x) == hash(el)


# only negative s-exponents, and (over "qe") a zero c0 beside a nonzero c1
NEGATIVE = [(0b011, [-7, -3], [-5]), (0b100, [-2], [])]
ALPHA_ONLY = [(0b001, [], [-1, 3]), (0b110, [], [2])]


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(x=raw_terms)
@example(x=[])
@example(x=NEGATIVE)
@example(x=ALPHA_ONLY)
@example(x=NEGATIVE + ALPHA_ONLY)
def test_storage_form_survives_identities(m, ring, x):
    alg = get_algebra(m, ring)
    check_unchanged_by_identities(alg, build(alg, x))


def test_planted_unshifted_normalizer_is_caught(monkeypatch):
    # A normalizer that drops zeros but never shifts lo stores a product's
    # ints over the kernel's base s**(lo_a + lo_b - 2m), so el * 1 keeps
    # the coefficients of el over a different lo.
    def unshifted(algebra, lo, parts):
        parts = tuple({mono: x for mono, x in part if x} for part in parts)
        return CliffordElement(algebra, lo if any(parts) else 0, parts)

    alg = CliffordAlgebra(4, "laurent")
    el = build(alg, NEGATIVE)
    monkeypatch.setattr(clifford, "_canonical", unshifted)
    with pytest.raises(AssertionError):
        check_unchanged_by_identities(alg, el)
