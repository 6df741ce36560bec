"""RMatrix products, row_apply and is_identity against the schoolbook
product in oracles.py, over Laurent, QE and GF(8) entries, matrix
equality across rings and across the order a row's entries were found
in, and the packed product of Laurent transvections, on its own and in
phi words, against the schoolbook product and the left fold of ``*``.

A raw entry is a pair (e0, e1) of s-exponent lists.  Over the Laurent
ring it is e0; over QE it is e0 + e1*alpha; over GF(8) it is the residue
with bit e % 3 set for each e in e0 (XOR), so one raw matrix serves all
three rings and the explicit examples below hold in each.
"""

import random
from functools import reduce
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

from ytwo import ortho, quadspace
from ytwo.ortho import OrthoRep
from ytwo.quadspace import (
    QuadSpace,
    RMatrix,
    q_eval,
    transvection,
    transvection_ops,
)
from ytwo.rings import L_ONE, L_ZERO, QE_ZERO, FiniteField, LaurentScalar, QEScalar

from oracles import REF_LP_RING, REF_QE_RING, RefField, ref_lp, ref_mat_mul, ref_qe

RINGS = ("laurent", "qe", "ff")
FIELD = FiniteField(3)  # modulus x**3 + x + 1
REF_FIELD = RefField(FIELD.modulus)

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
    "gf4": FiniteField(2).zero,
    "gf16": FiniteField(4).zero,
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


# -- the packed product of Laurent transvections --------------------------------


def axis(m, mask, k):
    """s**k times the 0/1 vector of ``mask`` over u, v_1, ..., v_m."""
    one = LaurentScalar(k, 1)
    return tuple(one if mask >> i & 1 else L_ZERO for i in range(m + 1))


def is_axis(m, raw):
    # a transvection needs q(w) a unit; a nonzero 0/1 vector w has
    # q(w) in {0, 1, s**-2, 1 + s**-2}
    mask, k = raw
    return mask and q_eval(QuadSpace(m), axis(m, mask, k)).mask == 1


chains = st.integers(3, 6).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.tuples(st.integers(1, 2 ** (m + 1) - 1), st.integers(-3, 3)).filter(
                lambda raw: is_axis(m, raw)
            ),
            max_size=12,
        ),
    )
)
# a = r_u r_v1 ten times: the entries of a**10 reach s**20, so the width
# must be the full 1 + sum(span - 1) = 21 bits
A10 = (3, [(1, 0), (2, 0)] * 10)
# s**-3 u, s**2 v_1, s**-1 (v_1 + v_2) and s**3 (u + v_1): the same
# transvections as the plain axes, with the source and target exponents
# moved apart
SCALED = (3, [(1, -3), (2, 2), (6, -1), (2, 2), (1, 0), (0b11, 3)])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(chain=chains)
@example(chain=(3, []))
@example(chain=A10)
@example(chain=SCALED)
def test_laurent_product_matches_reference(chain):
    """A chain of transvections along s**k times 0/1 vectors, phi's axes
    among them, against the schoolbook product and the left fold of
    ``*`` from the identity."""
    m, raws = chain
    space = QuadSpace(m)
    axes = [axis(m, mask, k) for mask, k in raws]
    got = quadspace.laurent_product(m + 1, [transvection_ops(space, w) for w in axes])
    mats = [transvection(space, w) for w in axes]
    want = ref_identity("laurent", m + 1)
    for mat in mats:
        want = ref_mat_mul(want, ref_rows("laurent", mat), REF_LP_RING)
    check_product("laurent", got, want)
    assert got == reduce(mul, mats, space.identity_matrix())


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=0)
def test_laurent_product_of_long_words(seed):
    # words of up to 100 letters at m = 10, as ``verify lifting --m 10
    # --maxlen 100`` draws them, b-letters added; the last is 100 letters
    # long
    phi = OrthoRep(QuadSpace(10))
    rng = random.Random(seed)
    letters = phi.letters() + [f"{b}{i}" for b in "bB" for i in range(1, 11)]
    for length in (rng.randint(1, 100), 100):
        word = [rng.choice(letters) for _ in range(length)]
        assert phi.product(word) == reduce(mul, map(phi.image, word))


# -- planted faults in the packed product's slot width ---------------------------

# name: the width planted into ``laurent_product``
WIDTHS = {
    # sum(span - 1) bits: s**20 of a**10 is carried into the next row
    "one bit narrow": "sum(span - 1 for span, _, _ in chain)",
    # the largest span, the plain bound for one factor
    "largest span": "max((span for span, _, _ in chain), default=1)",
}
reference = test_laurent_product_matches_reference.hypothesis.inner_test


@pytest.mark.parametrize("name", sorted(WIDTHS))
def test_planted_slot_frame_fails_the_reference(plant, name):
    reference(chain=A10)
    width = "1 + sum(span - 1 for span, _, _ in chain)"
    plant(quadspace, "laurent_product", (width, WIDTHS[name]))
    with pytest.raises((AssertionError, IndexError)):
        reference(chain=A10)


# -- phi words by transvection factors ------------------------------------------


def check_phi_words(m, count, maxlen):
    """Seeded phi words over every letter, b-letters included, against
    the left fold of ``*`` and the schoolbook product: every letter
    chains its transvections, a b-letter's against its b-word's image.
    A fresh representation builds the factor ops anew."""
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
    # t and S<i> are one transvection, a, A, s<i> and the b-letters two;
    # the span of r_v1 holds t = s**2
    phi = OrthoRep(QuadSpace(4))
    phi.product(("t", "t", "S1", "a", "A", "s2", "b3", "B3"))
    ops = phi._ops
    letters = ("t", "S1", "a", "A", "s2", "b3", "B3")
    assert [len(ops[x]) for x in letters] == [1, 1, 2, 2, 2, 2, 2]
    assert [f[0] for f in ops["a"]] == [1, 3]
    assert ops["b3"] == ops["B3"][::-1] and ops["b3"][0] == ops["t"][0]


@pytest.mark.parametrize("m", range(3, 11))
def test_b_axes_match_b_words(m):
    # b<i> = r_u r_{v_i} and B<i> = r_{v_i} r_u, the axes ``product``
    # chains, against the images of the b-words
    space = QuadSpace(m)
    phi = OrthoRep(space)
    r_u = transvection(space, space.basis_vector(0))
    for i in range(1, m + 1):
        r_v = transvection(space, space.basis_vector(i))
        assert r_u * r_v == phi.image(f"b{i}")
        assert r_v * r_u == phi.image(f"B{i}")
        assert phi.product((f"b{i}",)) == phi.image(f"b{i}")
        assert phi.product((f"B{i}",)) == phi.image(f"B{i}")


def test_planted_b_axes_swap_is_caught(plant):
    # B<i> given the axes of b<i>, (u, v_i): the two differ for every i.
    # The copy is compiled outside the class, so it names its base class
    plant(
        OrthoRep,
        "__init__",
        ("(u, v), (v, u)", "(u, v), (u, v)"),
        ("super().__init__(m,", "Representation.__init__(self, m,"),
    )
    with pytest.raises(AssertionError):
        test_b_axes_match_b_words(3)


def test_transvection_with_negative_exponent_is_refused():
    # w = s**-1 u: c = (W + w_i)/q(w) is s on the v_i, and c w = u's
    # column of ones has the exponent 0.  w = s**-1 u + v1 has q(w) =
    # s**-2 + s**-2 + s**-1 = s**-1 and c_1 = w_0/q(w) = 1, so c_1 w_0 =
    # s**-1: below the identity columns at s**0.
    space = QuadSpace(3)
    w = (LaurentScalar(-1, 1), L_ZERO, L_ZERO, L_ZERO)
    assert transvection_ops(space, w)[0] == 1
    w = (LaurentScalar(-1, 1), L_ONE, L_ZERO, L_ZERO)
    with pytest.raises(ValueError):
        transvection_ops(space, w)
    assert min(x.off for row in transvection(space, w).entries for x in row.values()) == -1


# name: the edit planted into ``laurent_product`` or ``transvection_ops``
TRANSVECTION_FAULTS = {
    # y summed again for each target, from columns already updated
    "y read after the first col_j update": (
        "laurent_product",
        (
            "        for j, e in targets:\n"
            "            cols[j] ^= y << e",
            "        for j, e in targets:\n"
            "            y = 0\n"
            "            for k, f in sources:\n"
            "                y ^= cols[k] << f\n"
            "            cols[j] ^= y << e",
        ),
    ),
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
