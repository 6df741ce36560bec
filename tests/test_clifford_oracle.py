"""Clifford products, sums and transposes against the word-rewriting
reference in oracles.py, on both scalar rings for m = 3..6 and 8, plus
every monomial product and transpose of fresh algebras at m = 3 and 4,
planted faults in the packed generator actions, the closed-form
transposes and centre rows against the products, and the canonical raw
storage form under operations that must not change an element."""

import pytest
from hypothesis import example, given, settings, strategies as st

from ytwo import clifford
from ytwo.clifford import CliffordAlgebra, CliffordElement, center_report, get_algebra
from ytwo.rings import LaurentScalar, QEScalar

from oracles import ref_cl_add, ref_cl_mul, ref_cl_transpose, ref_qe

RINGS = ("laurent", "qe")
MS = (3, 4, 5, 6)

exps = st.lists(st.integers(-8, 8), max_size=4)
# (monomial seed, c0 exponents, c1 exponents); the monomial is reduced mod 2**(m+1)
raw_terms = st.lists(st.tuples(st.integers(0, 127), exps, exps), max_size=5)
# every monomial of m = 8, where the packed ints have 512 slots per power
# of alpha; fewer and shorter elements, since the reference is slow there
wide_terms = st.lists(st.tuples(st.integers(0, 511), exps, exps), max_size=3)


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


TOP = [(511, [-8, 8], [3]), (0b100000000, [0], [-1])]


@pytest.mark.parametrize("ring", RINGS)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(x=wide_terms, y=wide_terms)
@example(x=TOP, y=TOP)
@example(x=[(0b110000001, [], [0])], y=TOP)
def test_mul_matches_reference_at_m8(ring, x, y):
    alg = get_algebra(8, ring)
    a, b = build(alg, x), build(alg, y)
    prod = a * b
    check_canonical(prod)
    assert to_ref(prod) == ref_cl_mul(to_ref(a), to_ref(b))


@pytest.mark.parametrize("ring", RINGS)
@settings(derandomize=True, max_examples=12, deadline=None)
@given(x=wide_terms)
@example(x=TOP)
def test_transpose_matches_reference_at_m8(ring, x):
    alg = get_algebra(8, ring)
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
def test_every_monomial_pair_on_fresh_algebra(m, ring, transposes_first, monkeypatch):
    # A fresh algebra starts with no slot masks, so the masks are built by
    # the first product; running transposes or products first catches a
    # transpose that depends on state a product leaves, or the reverse.
    for name in ("_MTG_CACHE", "_MTM_CACHE", "_TR_CACHE"):
        monkeypatch.setattr(clifford, name, {})
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
    # one mask set per slot width, not one entry per monomial pair: every
    # pair here has the same coefficient bit lengths, so a single entry
    la, lb = (clifford._or_all(el.parts).bit_length() for el in (left[0], right[0]))
    assert list(alg._polybits_cache) == [clifford._slot_width(la, lb, m)]
    # no structure constants, even after center_report; one tuple of
    # submasks per transposed monomial
    center_report(m)
    assert clifford._MTG_CACHE == clifford._MTM_CACHE == {}
    assert sorted(clifford._TR_CACHE) == list(monos)
    for mono, subs in clifford._TR_CACHE.items():
        assert type(subs) is tuple and all(sub | mono == mono for sub in subs)


# Factor pairs over "qe" at m = 4 that each planted fault below breaks: a
# dense factor on either side, so that both left actions (on a packed
# right factor) and right actions (on a packed left factor) run, and
# alpha * alpha, whose alpha**2 fold reaches the top bit of its slot.
DENSE = [(mono, [mono % 3 - 1], [mono % 2]) for mono in range(32)]
MUTANT_CASES = [
    (DENSE, [(0b10110, [1], [])]),
    ([(0b01101, [0], [2])], DENSE),
    ([(0, [], [0])], [(0, [], [0])]),
]


def no_extras(alg, monkeypatch):
    # x_g * M without the anticommutator terms M ^ k
    monkeypatch.setattr(alg, "_extras", tuple(((),) * 5 for _ in alg._extras))


def no_square_shift(alg, monkeypatch):
    # v_i * v_i = 1 in place of 1/t = s**-2
    monkeypatch.setattr(alg, "_square_shift", (0,) * 5)


def right_below(alg, monkeypatch):
    # M * x_g collecting M ^ k for k < g, as the left action does
    monkeypatch.setattr(alg, "_extras", (alg._extras[0],) * 2)


def no_fold_headroom(alg, monkeypatch):
    # a slot one bit too narrow for the alpha**2 fold
    monkeypatch.setattr(clifford, "_slot_width", lambda la, lb, m: la + lb + 2 * m - 1)


@pytest.mark.parametrize("plant", (no_extras, no_square_shift, right_below, no_fold_headroom))
def test_planted_action_faults_are_caught(plant, monkeypatch):
    def check(alg):
        for x, y in MUTANT_CASES:
            a, b = build(alg, x), build(alg, y)
            assert to_ref(a * b) == ref_cl_mul(to_ref(a), to_ref(b))

    check(CliffordAlgebra(4, "qe"))
    alg = CliffordAlgebra(4, "qe")
    plant(alg, monkeypatch)
    with pytest.raises(AssertionError):
        check(alg)


def check_transposes_against_kernel(m):
    """Each _mono_transpose(M) is the stored form of the kernel's product
    of M's generators in reverse order: lo = 0, every int 1."""
    alg = CliffordAlgebra(m)
    for mono in range(1 << (m + 1)):
        rev = alg.one
        for i in clifford._bits(mono):
            rev = alg.gen(i) * rev
        subs = sorted(clifford._mono_transpose(mono))
        assert rev.lo == 0
        assert sorted(rev.parts[0].items()) == [(sub, 1) for sub in subs]


def check_center_rows_against_kernel(m):
    """center_report's rows are the kernel's commutators g * e + e * g,
    column e for each monomial, taken on a fresh algebra."""
    alg = CliffordAlgebra(m)
    want = {}
    for j in range(m + 1):
        g = alg.gen(j)
        for col in range(1 << (m + 1)):
            e = build(alg, [(col, [0], [])])
            comm = g * e + e * g
            assert comm.lo == 0
            for mono, x in comm.parts[0].items():
                assert x == 1
                want[j, mono] = want.get((j, mono), 0) ^ 1 << col
    assert clifford._center_rows(get_algebra(m)) == want


@pytest.mark.parametrize("m", MS)
def test_transposes_match_kernel(m):
    check_transposes_against_kernel(m)


@pytest.mark.parametrize("m", (3, 4, 5))
def test_center_rows_match_kernel(m):
    check_center_rows_against_kernel(m)


def odd_transpose(alg, monkeypatch):
    # the submasks T with |M ^ T| odd in place of even
    def planted(mono):
        subs = (t for t in range(mono + 1) if t | mono == mono)
        return tuple(t for t in subs if (mono ^ t).bit_count() & 1)

    monkeypatch.setattr(clifford, "_mono_transpose", planted)


@pytest.mark.parametrize(
    "plant, check",
    (
        (odd_transpose, check_transposes_against_kernel),
        (right_below, check_center_rows_against_kernel),
    ),
)
def test_planted_closed_form_faults_are_caught(plant, check, monkeypatch):
    check(3)
    plant(get_algebra(3), monkeypatch)  # the algebra center_report uses
    with pytest.raises(AssertionError):
        check(3)


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
