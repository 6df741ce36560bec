"""Scalar arithmetic and GF(2**d) rank against the references in oracles.py.

Laurent and QE sums, products and inverses are compared with
``ref_lp``/``ref_qe``, products by one and zero on both sides too; GF(2**d) products and powers and ``ff_rank`` with
``RefField`` and its Gaussian elimination ``ref_ff_rank``, the GF(2)
blow-up ``ff_blowup`` with row vector products r * M taken in ``RefField``,
and ``EvalMap.apply`` with sums of the s-image's powers taken in ``RefField``.
"""

import copy
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ytwo import rings
from ytwo.errors import NotUnitError, ZeroInputError
from ytwo.rings import (
    L_ONE,
    L_ZERO,
    QE_ONE,
    QE_ZERO,
    FiniteField,
    ff_rank,
    make_eval_map,
)

from oracles import (
    RefField,
    ref_ff_rank,
    ref_lp,
    ref_lp_add,
    ref_lp_mul,
    ref_qe,
    ref_qe_add,
    ref_qe_mul,
)

from test_power_oracle import exps, lp, lp_ref, qe, qe_ref

FIELDS = {d: FiniteField(d) for d in (1, 2, 3, 4, 5, 8, 12, 20, 28, 40)}
REFS = {d: RefField(f.modulus) for d, f in FIELDS.items()}
MAPS = {n: make_eval_map(n) for n in (5, 25, 29, 41)}

# unit factors of GF(2)[s, 1/s][alpha]: alpha, 1/alpha = s + alpha, and
# 1 + alpha and 1 + 1/alpha (both of norm s), as (c0, c1) exponent lists
QE_UNIT_FACTORS = [((), (0,)), ((1,), (0,)), ((0,), (0,)), ((0, 1), (0,))]


@settings(max_examples=80, deadline=None)
@given(exps, exps)
def test_laurent_add_mul(e, f):
    x, y = lp(e), lp(f)
    assert lp_ref(x + y) == ref_lp_add(ref_lp(e), ref_lp(f))
    assert lp_ref(x * y) == ref_lp_mul(ref_lp(e), ref_lp(f))


@settings(max_examples=80, deadline=None)
@given(exps)
def test_laurent_inverse(e):
    # over GF(2) the units are exactly the monomials
    x = lp(e)
    if len(ref_lp(e)) == 1:
        assert ref_lp_mul(ref_lp(e), lp_ref(x.inverse())) == ref_lp([0])
    else:
        with pytest.raises(NotUnitError if ref_lp(e) else ZeroInputError):
            x.inverse()


@settings(max_examples=80, deadline=None)
@given(exps, exps, exps, exps)
def test_qe_add_mul(a0, a1, b0, b1):
    x, y = qe(a0, a1), qe(b0, b1)
    rx, ry = ref_qe(a0, a1), ref_qe(b0, b1)
    assert qe_ref(x + y) == ref_qe_add(rx, ry)
    assert qe_ref(x * y) == ref_qe_mul(rx, ry)


# 0, 1, s**k with k != 0, or dense: a factor 1 may be returned as is, and
# s**k must not be mistaken for it
special = st.one_of(
    st.just([]),
    st.just([0]),
    st.integers(-8, 8).filter(bool).map(lambda k: [k]),
    exps,
)


def assert_canonical_laurent(x):
    assert x.mask & 1 or (x.mask == 0 and x.off == 0)


@settings(max_examples=80, deadline=None)
@given(special)
@example([3])
@example([-1])
def test_laurent_mul_by_one_and_zero(e):
    x, rx = lp(e), ref_lp(e)
    for prod, want in (
        (x * L_ONE, ref_lp_mul(rx, ref_lp([0]))),
        (L_ONE * x, ref_lp_mul(ref_lp([0]), rx)),
        (x * L_ZERO, ref_lp_mul(rx, ref_lp())),
        (L_ZERO * x, ref_lp_mul(ref_lp(), rx)),
    ):
        assert lp_ref(prod) == want
        assert_canonical_laurent(prod)


@settings(max_examples=80, deadline=None)
@given(special, special)
@example([3], [])
@example([-1], [0])
@example([0], [])
def test_qe_mul_by_one_and_zero(e0, e1):
    x, rx = qe(e0, e1), ref_qe(e0, e1)
    for prod, want in (
        (x * QE_ONE, ref_qe_mul(rx, ref_qe([0]))),
        (QE_ONE * x, ref_qe_mul(ref_qe([0]), rx)),
        (x * QE_ZERO, ref_qe_mul(rx, ref_qe())),
        (QE_ZERO * x, ref_qe_mul(ref_qe(), rx)),
    ):
        assert qe_ref(prod) == want
        assert_canonical_laurent(prod.c0)
        assert_canonical_laurent(prod.c1)


@settings(max_examples=80, deadline=None)
@given(st.integers(-3, 3), st.lists(st.sampled_from(QE_UNIT_FACTORS), max_size=4))
def test_qe_inverse_of_units(e, factors):
    # the unit s**e * (product of factors), multiplied out by the reference
    want = ref_qe([e])
    for c0, c1 in factors:
        want = ref_qe_mul(want, ref_qe(c0, c1))
    x = qe(sorted(want[0]), sorted(want[1]))
    assert ref_qe_mul(want, qe_ref(x.inverse())) == ref_qe([0])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(FIELDS)),
    st.integers(0, (1 << 40) - 1),
    st.integers(0, (1 << 40) - 1),
    st.integers(-40, 40),
)
def test_ff_mul_pow(d, a, b, k):
    field, ref = FIELDS[d], REFS[d]
    a, b = a % field.order, b % field.order
    assert (field.element(a) * field.element(b)).bits == ref.mul(a, b)
    if k >= 0:
        assert (field.element(a) ** k).bits == ref.pow(a, k)
    elif a:
        # a**k is the reduced x with x * a**(-k) = 1
        got = (field.element(a) ** k).bits
        assert got < field.order and ref.mul(got, ref.pow(a, -k)) == 1


def fresh_map(n):
    """``make_eval_map(n)`` with an empty power cache, so that ``apply``
    computes every power it uses; the shared map is left as it was."""
    emap = copy.copy(MAPS[n])
    emap._s_powers = {}
    return emap


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(MAPS)),
    st.lists(st.integers(-8, 8), max_size=5),
    st.lists(st.integers(-8, 8), max_size=5),
)
def test_eval_map_apply(n, e0, e1):
    # s**(-lo) * apply(c0 + c1 alpha) against the sum of the s-image's
    # nonnegative powers, zeta**(n-1) standing for 1/zeta: no inverse
    # is taken in the reference field, whose product reduces its operands,
    # so each image is checked to be reduced first
    emap = fresh_map(n)
    ref = RefField(emap.field.modulus)
    zeta = emap.zeta.bits
    assert ref.order(zeta) == n
    s = zeta ^ ref.pow(zeta, n - 1)
    x0, x1 = lp(e0), lp(e1)
    exps0, exps1 = x0.exponents(), x1.exponents()
    lo = min((0,) + exps0 + exps1)
    want = 0
    for e in exps0:
        want ^= ref.pow(s, e - lo)
    for e in exps1:
        want ^= ref.mul(zeta, ref.pow(s, e - lo))
    shift = ref.pow(s, -lo)
    images = [emap.apply(qe(e0, e1))] + ([] if exps1 else [emap.apply(x0)])
    for image in images:
        assert image.bits < emap.field.order
        assert ref.mul(shift, image.bits) == want


def test_planted_short_reduction_is_caught(plant):
    # a reduction that stops one bit early leaves x**d in the product
    # x**(d-1) * x, and wrong bits in every power built from such products
    check_mul = test_ff_mul_pow.hypothesis.inner_test
    check_apply = test_eval_map_apply.hypothesis.inner_test
    check_mul(d=8, a=1 << 7, b=2, k=-3)
    check_apply(n=25, e0=[-2, 1], e1=[3])
    plant(rings, "_pmod", ("a.bit_length()) >= dm", "a.bit_length()) > dm"))
    with pytest.raises(AssertionError):
        check_mul(d=8, a=1 << 7, b=2, k=-3)
    with pytest.raises(AssertionError):
        check_apply(n=25, e0=[-2, 1], e1=[3])


# the modulus and zeta of five maps, pinned: a change of either fails here
DESCRIPTIONS = {
    5: {"n": 5, "degree": 4, "modulus": "x^4 + x + 1", "zeta": "0001"},
    7: {"n": 7, "degree": 3, "modulus": "x^3 + x + 1", "zeta": "010"},
    9: {"n": 9, "degree": 6, "modulus": "x^6 + x + 1", "zeta": "011000"},
    25: {
        "n": 25,
        "degree": 20,
        "modulus": "x^20 + x^3 + 1",
        "zeta": "11001110000001000011",
    },
    41: {
        "n": 41,
        "degree": 20,
        "modulus": "x^20 + x^3 + 1",
        "zeta": "01010111000000000101",
    },
}


@pytest.mark.parametrize("n", sorted(DESCRIPTIONS))
def test_describe_pinned(n):
    assert make_eval_map(n).describe() == DESCRIPTIONS[n]


@st.composite
def rank_cases(draw):
    """(d, rows, plants): a random matrix, mostly zeros, and planted rows.

    A plant (i, j, c) appends c * row_i + row_j: a sum when c = 1, a
    scalar multiple of row_i when i = j, and a zero row when both hold.
    """
    d = draw(st.integers(1, 5))
    element = st.integers(0, (1 << d) - 1)
    cell = st.one_of(st.just(0), element)
    ncols = draw(st.integers(1, 8))
    rows = draw(
        st.lists(st.lists(cell, min_size=ncols, max_size=ncols), min_size=1, max_size=6)
    )
    index = st.integers(0, 5)
    plants = draw(st.lists(st.tuples(index, index, element), max_size=3))
    return d, rows, plants


@settings(max_examples=150, deadline=None)
@given(rank_cases())
@example((3, [[0, 0, 0], [1, 6, 3], [0, 0, 0]], []))  # zero rows
@example((4, [[0, 5, 0, 7], [0, 3, 0, 1], [0, 9, 0, 2]], []))  # zero columns
@example((2, [[0, 0], [0, 0]], []))  # all zero
@example((1, [[1, 0, 1], [0, 1, 1], [1, 1, 0]], []))  # GF(2)
# planted: a sum, a scalar multiple (6 r0 + r0 = 7 r0) and a zero row
@example((5, [[1, 17, 4, 0, 30], [2, 0, 9, 31, 5]], [(0, 1, 1), (0, 0, 6), (1, 1, 1)]))
# a repeated row whose only entry sits after seven zero cells
@example((3, [[0, 0, 0, 0, 0, 0, 0, 5]] * 2 + [[7, 0, 0, 0, 0, 0, 0, 1]], [(2, 0, 4)]))
def test_ff_rank(case):
    d, rows, plants = case
    field, ref = FIELDS[d], REFS[d]
    want = ref_ff_rank(ref, rows)
    assert ff_rank(field, rows) == want
    for i, j, c in plants:
        ri, rj = rows[i % len(rows)], rows[j % len(rows)]
        rows = rows + [[ref.mul(c, x) ^ y for x, y in zip(ri, rj)]]
    assert ff_rank(field, rows) == ref_ff_rank(ref, rows) == want


def check_blowup(d):
    """For seeded random sparse and dense matrices M over GF(2**d), the
    XOR of the blow-up rows picked by the bits of a packed row vector r
    is the packing of r * M, taken entry by entry in ``RefField``."""
    field, ref = FIELDS[d], REFS[d]
    rng = random.Random(d)
    for density in (0.3, 1.0):
        for _ in range(12):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            mat = [
                [rng.randrange(field.order) if rng.random() < density else 0
                 for _ in range(ncols)]
                for _ in range(nrows)
            ]
            # sparse rows list their nonzero (column, bits) pairs in a
            # shuffled order, dense rows every pair, zeros included
            rows = []
            for row in mat:
                pairs = list(enumerate(row))
                if density < 1:
                    pairs = [(j, v) for j, v in pairs if v]
                    rng.shuffle(pairs)
                rows.append(pairs)
            images = rings.ff_blowup(field, rows)  # looked up, so a plant applies
            assert len(images) == nrows * d
            for _ in range(8):
                r = [rng.randrange(field.order) for _ in range(nrows)]
                packed = sum(x << (i * d) for i, x in enumerate(r))
                got = 0
                for b, image in enumerate(images):
                    if packed >> b & 1:
                        got ^= image
                want = 0
                for j in range(ncols):
                    entry = 0
                    for i in range(nrows):
                        entry ^= ref.mul(r[i], mat[i][j])
                    want |= entry << (j * d)
                assert got == want


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_ff_blowup(d):
    check_blowup(d)


@pytest.mark.parametrize(
    "edit",
    [
        # the mulx step taken before the first OR: row x**k * row_i
        # lands where x**(k+1) * row_i belongs
        (
            "acc[k] |= v << shift\n                v = mulx(v)",
            "v = mulx(v)\n                acc[k] |= v << shift",
        ),
        # entry j placed at (j + 1) * d
        ("shift = j * d", "shift = (j + 1) * d"),
    ],
    ids=["mulx-first", "entry-shifted"],
)
def test_planted_blowup_fault_is_caught(plant, edit):
    plant(rings, "ff_blowup", edit)
    with pytest.raises(AssertionError):
        check_blowup(4)
