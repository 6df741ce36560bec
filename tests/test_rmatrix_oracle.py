"""RMatrix products, row_apply and is_identity against the schoolbook
product in oracles.py, over Laurent, QE and GF(8) entries, matrix
equality across rings and across the order a row's entries were found
in, and the packed n-factor Laurent product against the schoolbook
product and the left fold of ``*``.

A raw entry is a pair (e0, e1) of s-exponent lists.  Over the Laurent
ring it is e0; over QE it is e0 + e1*alpha; over GF(8) it is the residue
with bit e % 3 set for each e in e0 (XOR), so one raw matrix serves all
three rings and the explicit examples below hold in each.
"""

import random
import sys
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from ytwo import ortho, quadspace
from ytwo.ortho import OrthoRep
from ytwo.quadspace import (
    QuadSpace,
    RMatrix,
    laurent_ops,
    laurent_product,
    transvection,
    transvection_ops,
)
from ytwo.rings import L_ONE, L_ZERO, QE_ZERO, FiniteField, LaurentScalar, QEScalar

from oracles import REF_LP_RING, REF_QE_RING, RefField, ref_lp, ref_mat_mul, ref_qe

RINGS = ("laurent", "qe", "ff")
MODULUS = 0b1011  # x**3 + x + 1
FIELD = FiniteField(3, MODULUS)
REF_FIELD = RefField(MODULUS)

Z = ((), ())
ONE = ((0,), ())
S = ((1,), ())

exps = st.lists(st.integers(-2, 2), max_size=2)
# zeros and ones are drawn often, so rows empty out and sums cancel
entry = st.one_of(st.just(Z), st.just(ONE), st.tuples(exps, exps))
matrix_triples = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        *[st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)]
        * 3
    )
)
perturbations = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), entry), max_size=4)


def ff_bits(raw):
    bits = 0
    for e in raw[0]:
        bits ^= 1 << (e % 3)
    return bits


def scalar(ring, raw):
    if ring == "ff":
        return FIELD.element(ff_bits(raw))
    c0 = LaurentScalar.from_exponents(raw[0])
    return QEScalar(c0, LaurentScalar.from_exponents(raw[1])) if ring == "qe" else c0


def ref_scalar(ring, raw):
    if ring == "ff":
        return ff_bits(raw)
    return ref_qe(raw[0], raw[1]) if ring == "qe" else ref_lp(raw[0])


def ref_of(ring, x):
    if ring == "ff":
        return x.bits
    if ring == "qe":
        return ref_qe(x.c0.exponents(), x.c1.exponents())
    return ref_lp(x.exponents())


def from_ref(ring, r):
    if ring == "ff":
        return FIELD.element(r)
    if ring == "qe":
        return QEScalar(
            LaurentScalar.from_exponents(r[0]), LaurentScalar.from_exponents(r[1])
        )
    return LaurentScalar.from_exponents(r)


def ref_ring(ring):
    return {"laurent": REF_LP_RING, "qe": REF_QE_RING, "ff": REF_FIELD.ring}[ring]


def build(ring, raw):
    return RMatrix([[scalar(ring, x) for x in row] for row in raw])


def ref_build(ring, raw):
    return [[ref_scalar(ring, x) for x in row] for row in raw]


def ref_rows(ring, mat):
    return [[ref_of(ring, x) for x in row] for row in mat.rows]


def ref_identity(ring, n):
    zero = ref_ring(ring)[2]
    one = ref_scalar(ring, ONE)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def check_product(ring, mat, expected):
    """``mat`` equals ``expected`` entrywise, compares and hashes equal to
    the same matrix built from plain rows, and its sparse rows list
    exactly its nonzero entries."""
    assert ref_rows(ring, mat) == expected
    plain = RMatrix([[from_ref(ring, r) for r in row] for row in expected])
    assert mat == plain and hash(mat) == hash(plain)
    for row, entries in zip(mat.rows, mat.entries):
        assert sorted(entries) == [j for j, x in enumerate(row) if x]


ZERO_ROWS = [[Z, Z, Z], [ONE, S, Z], [Z, Z, Z]]
# row 0 of CANCEL_A times CANCEL_B is 1*1 + 1*1 = 0 in column 0
CANCEL_A = [[ONE, ONE, Z], [Z, ONE, Z], [S, Z, S]]
CANCEL_B = [[ONE, Z, Z], [ONE, ONE, Z], [ONE, Z, ONE]]
ID3 = [[ONE, Z, Z], [Z, ONE, Z], [Z, Z, ONE]]
# row 0 of ORDER_A times ORDER_B finds column 2 (through row 1) before
# column 0 (through row 2): its dict is filled in the order 2, 0
ORDER_A = [[Z, ONE, ONE], [ONE, Z, Z], [Z, Z, ONE]]
ORDER_B = [[Z, ONE, Z], [Z, Z, ONE], [ONE, Z, Z]]
ORDER_AB = [[ONE, Z, ONE], [Z, ONE, Z], [ONE, Z, Z]]


@pytest.mark.parametrize("ring", RINGS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(mats=matrix_triples)
@example(mats=(ZERO_ROWS, CANCEL_B, CANCEL_A))
@example(mats=(CANCEL_A, CANCEL_B, ZERO_ROWS))
@example(mats=(CANCEL_B, CANCEL_A, ID3))
def test_mul_matches_reference(ring, mats):
    rr = ref_ring(ring)
    a, b, c = (build(ring, m) for m in mats)
    ra, rb, rc = (ref_build(ring, m) for m in mats)
    ab = a * b
    ref_ab = ref_mat_mul(ra, rb, rr)
    check_product(ring, ab, ref_ab)
    # the product serves as the left and the right operand
    ref_abc = ref_mat_mul(ref_ab, rc, rr)
    check_product(ring, ab * c, ref_abc)
    check_product(ring, a * (b * c), ref_abc)
    check_product(ring, c * ab, ref_mat_mul(rc, ref_ab, rr))


@pytest.mark.parametrize("ring", RINGS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(mats=matrix_triples)
@example(mats=(ZERO_ROWS, CANCEL_B, CANCEL_A))
@example(mats=(CANCEL_B, CANCEL_A, ZERO_ROWS))
def test_row_apply_matches_reference(ring, mats):
    rr = ref_ring(ring)
    a, b, _ = (build(ring, m) for m in mats)
    ra, rb, rc = (ref_build(ring, m) for m in mats)
    ab = a * b
    ref_ab = ref_mat_mul(ra, rb, rr)
    for raw_vec, ref_vec in zip(mats[2], rc):
        vec = tuple(scalar(ring, x) for x in raw_vec)
        for mat, ref_mat in ((a, ra), (ab, ref_ab)):
            out = mat.row_apply(vec)
            assert [ref_of(ring, x) for x in out] == ref_mat_mul([ref_vec], ref_mat, rr)[0]


@pytest.mark.parametrize("ring", RINGS)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(mats=matrix_triples, left=perturbations, right=perturbations)
@example(mats=(ID3, ID3, ID3), left=[], right=[])
@example(mats=(ID3, ID3, ID3), left=[(1, 1, Z)], right=[])
@example(mats=(ID3, ID3, ID3), left=[(2, 2, S)], right=[(2, 2, S)])
@example(mats=(ID3, ID3, ID3), left=[(0, 2, ONE)], right=[(0, 2, ONE)])
@example(mats=(ID3, ID3, ID3), left=[(0, 0, Z), (0, 1, ONE)], right=[])
@example(
    mats=(ID3, ID3, ID3),
    left=[(0, 0, Z), (0, 1, ONE), (1, 1, Z), (1, 0, ONE)],
    right=[(0, 0, Z), (0, 1, ONE), (1, 1, Z), (1, 0, ONE)],
)
def test_is_identity_matches_reference(ring, mats, left, right):
    """Identity matrices with up to four entries overwritten, and their
    products: a permutation matrix has one unit per row off the diagonal,
    and the products are the identity whenever the two perturbations undo
    each other."""
    rr = ref_ring(ring)
    n = len(mats[0])

    def perturbed(changes):
        raw = [[ONE if i == j else Z for j in range(n)] for i in range(n)]
        for i, j, x in changes:
            raw[i % n][j % n] = x
        return raw

    ident = ref_identity(ring, n)
    raw_l, raw_r = perturbed(left), perturbed(right)
    ref_l, ref_r = ref_build(ring, raw_l), ref_build(ring, raw_r)
    l, r = build(ring, raw_l), build(ring, raw_r)
    assert l.is_identity == (ref_l == ident)
    assert (l * r).is_identity == (ref_mat_mul(ref_l, ref_r, rr) == ident)
    a = build(ring, mats[0])
    assert a.is_identity == (ref_build(ring, mats[0]) == ident)


@pytest.mark.parametrize("ring", RINGS)
def test_product_equals_plain_rows_filled_in_another_order(ring):
    ab = build(ring, ORDER_A) * build(ring, ORDER_B)
    plain = build(ring, ORDER_AB)
    assert list(ab.entries[0]) == [2, 0] and list(plain.entries[0]) == [0, 2]
    assert ab == plain and hash(ab) == hash(plain)
    assert ab.rows == plain.rows


ZEROS = {
    "laurent": L_ZERO,
    "qe": QE_ZERO,
    "gf4": FiniteField(2, 0b111).zero,
    "gf16": FiniteField(4, 0b10011).zero,
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("left", sorted(ZEROS))
@pytest.mark.parametrize("right", sorted(ZEROS))
def test_all_zero_matrices_over_different_rings_differ(left, right, n):
    a = RMatrix([[ZEROS[left]] * n] * n)
    b = RMatrix([[ZEROS[right]] * n] * n)
    assert (a == b) == (left == right)
    assert a.rows == ((ZEROS[left],) * n,) * n


@pytest.mark.parametrize("rows", [[], (), [[]]])
def test_empty_matrix_rejected(rows):
    with pytest.raises(ValueError):
        RMatrix(rows)


def test_empty_identity_rejected():
    with pytest.raises(ValueError):
        RMatrix.identity(0, L_ONE, L_ZERO)


# -- the packed n-factor Laurent product --------------------------------------

factor_lists = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=1,
        max_size=5,
    )
)

# lowest exponents -7 and -3: the result's base is their sum
NEGATIVE = [[((-7, 2), ()), ((-4,), ())], [ONE, ((-5, -7), ())]]
NEGATIVE_B = [[((-3,), ()), Z], [((-1, 4), ()), ((0, -2), ())]]
# columns 0 and 2 are zero; ORDER_B then maps column 1 into column 2
ZERO_COLS = [[Z, ONE, Z], [Z, S, Z], [Z, ONE, Z]]
# (1 + s**15)**2 = 1 + s**30: the width must hold the sum of the spans
# less one per chained factor, and needs all 31 bits here
WIDE = [[((0, 15), ()), ONE], [Z, ((0, 15), ())]]
# 1 + 1 = 0 on every entry: the product is the zero matrix
ALL_ONES = [[ONE, ONE], [ONE, ONE]]


def packed(mats):
    return laurent_product(mats[0], [laurent_ops(f) for f in mats[1:]])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(raws=factor_lists)
@example(raws=[NEGATIVE])
@example(raws=[NEGATIVE, NEGATIVE_B, NEGATIVE])
@example(raws=[ZERO_ROWS, CANCEL_B, CANCEL_A])
@example(raws=[ZERO_COLS, ORDER_B, ZERO_COLS])
@example(raws=[CANCEL_A, CANCEL_B, ZERO_ROWS, ZERO_COLS])
@example(raws=[ALL_ONES, ALL_ONES])
@example(raws=[ALL_ONES, NEGATIVE, ALL_ONES, NEGATIVE_B])
@example(raws=[WIDE, WIDE])
@example(raws=[WIDE, NEGATIVE, WIDE, NEGATIVE_B])
def test_laurent_product_matches_reference(raws):
    rr = ref_ring("laurent")
    mats = [build("laurent", raw) for raw in raws]
    want = ref_build("laurent", raws[0])
    for raw in raws[1:]:
        want = ref_mat_mul(want, ref_build("laurent", raw), rr)
    got = packed(mats)
    check_product("laurent", got, want)
    assert got == reduce(mul, mats)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_laurent_product_of_long_words(seed):
    # words of up to 100 letters at m = 10, one factor per letter, as
    # ``verify lifting --m 10 --maxlen 100`` draws them; the last is 100
    # letters long
    phi = OrthoRep(QuadSpace(10))
    rng = random.Random(seed)
    letters = phi.letters()
    for length in (rng.randint(1, 100), 100):
        mats = [phi.image(rng.choice(letters)) for _ in range(length)]
        assert packed(mats) == reduce(mul, mats)


# -- planted faults in the packed product's slot frame --------------------------


def plant_frame(monkeypatch, frame):
    """Make ``laurent_product`` read its first factor's (lo, span) from
    ``_lo_span`` as frame(lo, span, chain); ``laurent_ops`` reads the
    true one."""
    real = quadspace._lo_span

    def planted(entries):
        lo, span = real(entries)
        caller = sys._getframe(1)
        if caller.f_code is laurent_product.__code__:
            return frame(lo, span, caller.f_locals["chain"])
        return lo, span

    monkeypatch.setattr(quadspace, "_lo_span", planted)


# name: (frame, the explicit example that catches it, how it fails)
FRAMES = {
    # a width of sum span - r - 1 bits: s**30 is carried past the last row
    "one bit narrow": (
        lambda lo, span, chain: (lo, span - 1),
        [WIDE, WIDE],
        IndexError,
    ),
    # the first factor's lowest exponent left out of the packing and the sum
    "first lo left out": (
        lambda lo, span, chain: (0, span),
        [NEGATIVE, NEGATIVE_B, NEGATIVE],
        ValueError,
    ),
    # a width of the largest span, the plain bound for one factor
    "largest span": (
        lambda lo, span, chain: (
            lo,
            max([span] + [f[1] for f in chain]) - sum(f[1] - 1 for f in chain),
        ),
        [WIDE, WIDE],
        IndexError,
    ),
}
reference = test_laurent_product_matches_reference.hypothesis.inner_test


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_planted_slot_frame_fails_the_reference(monkeypatch, name):
    frame, raws, error = FRAMES[name]
    reference(raws=raws)
    plant_frame(monkeypatch, frame)
    with pytest.raises(error):
        reference(raws=raws)


def test_planted_chained_lo_left_out_fails_the_reference(monkeypatch):
    # each chained factor's lowest exponent left out of the result's base
    real = laurent_ops
    monkeypatch.setattr(
        sys.modules[__name__], "laurent_ops", lambda mat: (0,) + real(mat)[1:]
    )
    with pytest.raises(AssertionError):
        reference(raws=[WIDE, NEGATIVE, WIDE, NEGATIVE_B])


def test_planted_zero_column_skip_on_the_target_is_caught(plant):
    # column 0 of the first factor is zero, and the second moves column 1
    # into it: a skip that tests the target column, not the source, drops
    # the product's only term
    first = build("laurent", [[Z, ONE], [Z, Z]])
    second = build("laurent", [[Z, Z], [ONE, Z]])
    want = first * second
    assert quadspace.laurent_product(first, [laurent_ops(second)]) == want
    skip_on_j = ("new[j] ^= c << e", "new[j] ^= c << e if cols[j] else 0")
    plant(quadspace, "laurent_product", skip_on_j)
    assert quadspace.laurent_product(first, [laurent_ops(second)]) != want


# -- phi words by transvection factors ------------------------------------------


def check_phi_words(m, count, maxlen):
    """Seeded phi words over every letter, b-letters included, against
    the left fold of ``*`` and the schoolbook product: a, A, t and the
    s- and S-letters chain their transvections, the b-letters their
    matrices.  A fresh representation builds the factor ops anew."""
    phi = OrthoRep(QuadSpace(m))
    letters = phi.letters() + [f"{b}{i}" for b in "bB" for i in range(1, m + 1)]
    rng = random.Random(m)
    words = [(letter, letter) for letter in letters]
    words += [
        tuple(rng.choice(letters) for _ in range(rng.randint(2, maxlen)))
        for _ in range(count)
    ]
    for word in words:
        images = [phi.image(letter) for letter in word]
        got = phi.product(word)
        assert got == reduce(mul, images)
        want = ref_rows("laurent", images[0])
        for image in images[1:]:
            want = ref_mat_mul(want, ref_rows("laurent", image), REF_LP_RING)
        check_product("laurent", got, want)


@pytest.mark.parametrize("m, count, maxlen", [(m, 12, 20) for m in range(3, 9)] + [(20, 3, 8)])
def test_transvection_factors_match_reference(m, count, maxlen):
    check_phi_words(m, count, maxlen)


def test_transvection_ops_of_phi_letters():
    # t and S<i> are one transvection, a, A and s<i> two, a b-letter one
    # matrix; a transvection keeps the identity and has one term, and
    # the span of r_v1 holds t = s**2
    phi = OrthoRep(QuadSpace(4))
    phi.product(("t", "t", "S1", "a", "A", "s2", "b3"))
    ops = phi._ops
    assert [len(ops[x]) for x in ("t", "S1", "a", "A", "s2", "b3")] == [1, 1, 2, 2, 2, 1]
    for letter in ("t", "S1", "a", "A", "s2"):
        assert all(keep and len(terms) == 1 for _, _, keep, terms in ops[letter])
    assert not ops["b3"][0][2]
    assert [f[1] for f in ops["a"]] == [1, 3]


def test_transvection_with_negative_exponent_is_refused():
    # w = s**-1 u: c = (W + w_i)/q(w) is s on the v_i, and c w = u's
    # column of ones has the exponent 0.  w = s**-1 u + v1 has q(w) =
    # s**-2 + s**-2 + s**-1 = s**-1 and c_1 = w_0/q(w) = 1, so c_1 w_0 =
    # s**-1: below the kept identity at s**0.
    space = QuadSpace(3)
    w = (LaurentScalar(-1, 1), L_ZERO, L_ZERO, L_ZERO)
    assert transvection_ops(space, w)[:3] == (0, 1, True)
    w = (LaurentScalar(-1, 1), L_ONE, L_ZERO, L_ZERO)
    with pytest.raises(ValueError):
        transvection_ops(space, w)
    assert laurent_ops(transvection(space, w))[0] == -1


# name: the edit planted into ``laurent_product`` or ``transvection_ops``
TRANSVECTION_FAULTS = {
    # y summed again for each target, from columns already updated
    "y read after the first col_j update": (
        "laurent_product",
        (
            "                for j, e in targets:\n"
            "                    new[j] ^= c << e",
            "                for j, e in targets:\n"
            "                    c = 0\n"
            "                    for k, f in sources:\n"
            "                        c ^= new[k] << f\n"
            "                    new[j] ^= c << e",
        ),
    ),
    "kept identity dropped": ("laurent_product", ("cols[:] if keep", "[0] * n if keep")),
    "span one bit too narrow": (
        "transvection_ops",
        ("max(e for _, e in targets) + 1", "max(e for _, e in targets)"),
    ),
}


@pytest.mark.parametrize("name", sorted(TRANSVECTION_FAULTS))
def test_planted_transvection_faults_are_caught(plant, name):
    check_phi_words(4, 12, 20)
    owner, edit = TRANSVECTION_FAULTS[name]
    plant(ortho, owner, edit)
    with pytest.raises((AssertionError, IndexError)):
        check_phi_words(4, 12, 20)
