"""Clifford products, sums and transposes against the word-rewriting
reference in oracles.py, on both scalar rings for m = 3..6 and 8, plus
every monomial product and transpose of fresh algebras at m = 3 and 4,
planted faults in the packed generator actions, the closed-form
transposes and centre rows against the products, the canonical raw
storage form under operations that must not change an element, the
n-factor product (with planted faults) and the conjugation rows against
left folds of the reference product, scaling by a monomial (with a
planted fault) and ``cl_inverse`` against the product path, and the
intertwining check against the conjugation matrix, with planted
faults."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ytwo import clifford
from ytwo.clifford import (
    CliffordAlgebra,
    CliffordElement,
    PinRep,
    center_report,
    cl_inverse,
    conjugation_matrix,
    get_algebra,
    intertwines,
)
from ytwo.errors import NotCliffordGroupError, NotScalarError
from ytwo.ortho import OrthoRep
from ytwo.presentation import evaluate, relator_failures, schedule
from ytwo.quadspace import QuadSpace, RMatrix
from ytwo.rings import L_ONE, L_ZERO, LaurentScalar, QEScalar, S

from oracles import (
    ref_cl_add,
    ref_cl_mul,
    ref_cl_transpose,
    ref_expand_b_letters,
    ref_qe,
)

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


def scalar_to_ref(c):
    if isinstance(c, QEScalar):
        return ref_qe(c.c0.exponents(), c.c1.exponents())
    return ref_qe(c.exponents())


def to_ref(el):
    out = {}
    for mono, c in el.terms.items():
        word = tuple(i for i in range(el.algebra.m + 1) if mono >> i & 1)
        out[word] = scalar_to_ref(c)
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


# -- n-factor products and conjugation rows ---------------------------------


def ref_fold(els):
    """The left fold of the reference product over the elements."""
    out = to_ref(els[0])
    for el in els[1:]:
        out = ref_cl_mul(out, to_ref(el))
    return out


small_exps = st.lists(st.integers(-6, 6), max_size=3)
small_terms = st.lists(st.tuples(st.integers(0, 127), small_exps, small_exps), max_size=3)
factor_lists = st.lists(small_terms, min_size=1, max_size=6)

# v1**14 = s**-14: every v-generator of every factor meets its square,
# so the product reaches the full headroom that the width reserves
# (7 squares, more than m for every m here)
V1_POWER = [[(0b10, [0], [])]] * 14
# over "qe", the middle step alpha * (...) leaves an alpha**2 block that
# must be folded before the next factor is chained
ALPHA_MIDDLE = [[(0b011, [-1], [0, 2])], [(0, [], [0])], [(0b101, [2], [-3])]]


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(xs=factor_lists)
@example(xs=[[(3, [-5, 2], [1])]])
@example(xs=[RADICAL, [], NEGATIVE])
@example(xs=[NEGATIVE, ALPHA_ONLY, NEGATIVE, NEGATIVE + ALPHA_ONLY])
@example(xs=ALPHA_MIDDLE)
@example(xs=[[(0, [], [0])]] * 5)
@example(xs=V1_POWER)
def test_product_matches_fold(m, ring, xs):
    alg = get_algebra(m, ring)
    els = [build(alg, x) for x in xs]
    prod = alg._product(els)
    check_canonical(prod)
    assert to_ref(prod) == ref_fold(els)


# name: (the planted function, as its owner and name, the edits to it,
# and the ring, the smallest factors at m = 3 that catch them, and what
# the comparison with the fold then raises)
PRODUCT_PLANTS = {
    # alpha**2 folded once, after the last chained factor: alpha**3
    # chains alpha onto alpha * alpha and leaves a block past alpha**2
    "fold after the last factor only": (
        (CliffordAlgebra, "_run"),
        [
            ("left, span, fold)", "left, span, 0)"),
            ("right, span, fold)", "right, span, 0)"),
            ("parts = [[] for", "y = _fold(y, fold, span); parts = [[] for"),
        ],
        "qe",
        [[(0, [], [0])]] * 3,
        IndexError,
    ),
    # factor 0, the farthest of the left-chained factors, left out of V:
    # v1**8 meets 4 squares, 8 bits down, and the headroom is then
    # 2 * max(3, 7 // 2) = 6 bits
    "factor 0 left out of V": (
        (CliffordAlgebra, "_run"),
        [("f_v for _, _, f_v, _ in programs)", "f_v for _, _, f_v, _ in programs[:-1])")],
        "laurent",
        [[(0b10, [0], [])]] * 8,
        AssertionError,
    ),
    # a program step that ignores ``keep``: (u + v1) chained onto u + v1
    # walks u, then v1, whose parent is the root, not u
    "keep ignored": (
        (clifford, "_chain"),
        [("del path[keep:]", "pass")],
        "laurent",
        [[(0b01, [0], []), (0b10, [0], [])]] * 2,
        AssertionError,
    ),
    # the Laurent ring's spare bit per chained factor taken over "qe" too:
    # alpha * alpha(1 + s**9) gets slots of 6 + 10 bits, not 6 + 10 + 1
    # rounded up to 32, and the fold puts its s**10 * alpha term on bit 16
    "Laurent width over qe": (
        (CliffordAlgebra, "_run"),
        [('spare = self.ring == "laurent"', "spare = True")],
        "qe",
        [[(0, [], [0])], [(0, [], [0, 9])]],
        AssertionError,
    ),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_PLANTS))
def test_planted_product_fault_is_caught(plant, name):
    (owner, planted), edits, ring, xs, error = PRODUCT_PLANTS[name]
    check = test_product_matches_fold.hypothesis.inner_test
    check(m=3, ring=ring, xs=xs)
    plant(owner, planted, *edits)
    with pytest.raises(error):
        check(m=3, ring=ring, xs=xs)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m, name", [(3, "bb_2_3_k10"), (4, "bb_4_3_k-11")])
def test_long_schedule_words_match_fold(m, ring, name):
    # Y relators (b_i**k b_j**k)**2 with k >= 10, their b-letters spelled
    # out as S-conjugations of a, put dozens of run powers into one
    # product, most of them chained, so the width holds many factors'
    # headroom; half a relator is not the identity
    psi = PinRep(m, ring)
    word = ref_expand_b_letters(dict(schedule(m, 11, "Y"))[name])
    for w in (word, word[: len(word) // 2]):
        prod = evaluate(w, psi)
        check_canonical(prod)
        assert to_ref(prod) == ref_fold([psi.image(letter) for letter in w])
    assert evaluate(word, psi).is_identity


def test_letter_chains_keep_slots_narrow(monkeypatch):
    # the Laurent ring's spare bit per chained letter program: the
    # y-tilde relators at m = 8 build no action table wider than 112
    # bits (176 without it)
    psi = PinRep(8)
    monkeypatch.setattr(psi.algebra, "_polybits_cache", {})
    assert relator_failures(schedule(8, 20, "y-tilde"), psi) == []
    assert max(psi.algebra._polybits_cache) <= 112


def random_word(psi, rng, maxlen):
    letters = psi.letters()
    return tuple(rng.choice(letters) for _ in range(rng.randint(0, maxlen)))


ALPHA = QEScalar(L_ZERO, L_ONE)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.booleans())
@example(seed=0, scale=True)
def test_conjugation_rows_match_reference(m, ring, seed, scale):
    # row i of conjugation_matrix(c) against c^-1 * x_i * c by the
    # reference product; over "qe" the scale by the unit alpha puts alpha
    # parts on both c and c^-1, so the row products fold alpha**2
    psi = PinRep(m, ring)
    c = evaluate(random_word(psi, random.Random(seed), 12), psi)
    if scale and ring == "qe":
        c = c.scale(ALPHA)
    inverse, ref_c = to_ref(cl_inverse(c)), to_ref(c)
    for i, row in enumerate(conjugation_matrix(c).rows):
        want = ref_cl_mul(ref_cl_mul(inverse, {(i,): ref_qe([0])}), ref_c)
        assert {(g,): scalar_to_ref(x) for g, x in enumerate(row) if x} == want


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-9, 9))
@example(seed=0, k=-3)
def test_monomial_scale_matches_product(m, ring, seed, k):
    # s**k, as a Laurent scalar and lifted, only moves lo; cl_inverse,
    # which scales by the inverse norm, against the product path
    psi = PinRep(m, ring)
    alg = psi.algebra
    c = evaluate(random_word(psi, random.Random(seed), 12), psi)
    mono = LaurentScalar(k, 1)
    for x in (mono, alg.lift(mono)):
        got = c.scale(x)
        check_canonical(got)
        assert got == c * alg.scalar(x)
        assert alg.zero.scale(x) == alg.zero
    cbar = c.transpose()
    inverse = cl_inverse(c)
    assert inverse == cbar * alg.scalar((c * cbar).scalar_part().inverse())
    assert to_ref(c * inverse) == to_ref(alg.one)


def test_planted_negated_monomial_scale_is_caught(plant):
    # s * 1, the smallest scale that moves lo
    alg = get_algebra(3)
    assert alg.one.scale(S) == alg.scalar(S)
    plant(CliffordElement, "scale", ("self.lo + low.off", "self.lo - low.off"))
    assert alg.one.scale(S) != alg.scalar(S)


def test_cl_inverse_makes_three_products(monkeypatch):
    # c * c^tr and the two checks of the candidate; the scale by the
    # inverse norm, a monomial, is a shift
    c = evaluate(("a", "s1", "A", "t", "S2"), PinRep(4))
    calls = 0
    real = CliffordAlgebra._product

    def counted(alg, factors):
        nonlocal calls
        calls += 1
        return real(alg, factors)

    monkeypatch.setattr(CliffordAlgebra, "_product", counted)
    cl_inverse(c)
    assert calls == 3


@pytest.mark.parametrize("m", MS)
def test_qe_conjugation_is_lifted_laurent(m):
    # the same words over both rings, and over "qe" also scaled by alpha,
    # which conjugation cannot see
    lau, qe = PinRep(m), PinRep(m, "qe")
    rng = random.Random(m)
    for _ in range(50):
        word = random_word(lau, rng, 30)
        want = conjugation_matrix(evaluate(word, lau)).map_entries(QEScalar.from_laurent)
        c = evaluate(word, qe)
        assert conjugation_matrix(c) == want
        assert conjugation_matrix(c.scale(ALPHA)) == want


@pytest.mark.parametrize("m", MS)
def test_conjugation_rejects_middle_rows(m, monkeypatch):
    # With the inverse replaced by 1 and c = 1 + u v_m, row i is x_i + x_i
    # u v_m: a vector for u (u + v_m) and for v_m (s**-2 u), and holding
    # u v_i v_m for every 1 <= i < m, so only middle rows fail and the
    # first of them (row 1) names its monomial.
    alg = get_algebra(m)
    monkeypatch.setattr(clifford, "cl_inverse", lambda c: alg.one)
    c = alg.one + alg.u() * alg.v(m)
    with pytest.raises(NotCliffordGroupError, match=f"{bin(1 | 2 | 1 << m)}$"):
        conjugation_matrix(c)


# -- the intertwining identity x_i * c == c * (row i) -------------------------


def perturbed(mat, i, j, delta):
    """mat with delta added to entry (i, j)."""
    entries = [dict(row) for row in mat.entries]
    x = entries[i].get(j, mat.zero) + delta
    if x:
        entries[i][j] = x
    else:
        entries[i].pop(j, None)
    return RMatrix._sparse(tuple(entries), mat.zero)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS + (8,))
@settings(derandomize=True, max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.booleans())
@example(seed=0, scale=True)
def test_intertwines_matches_conjugation_matrix(m, ring, seed, scale):
    # intertwines(c, mat) against conjugation_matrix(c) == mat, for the
    # conjugation matrix and for one entry of it moved by a monomial;
    # over "qe" the scale by alpha gives c an alpha part, so the rows
    # fold alpha**2, and the perturbation may be an alpha part too
    psi = PinRep(m, ring)
    rng = random.Random(seed)
    c = evaluate(random_word(psi, rng, 12), psi)
    if scale and ring == "qe":
        c = c.scale(ALPHA)
    mat = conjugation_matrix(c)
    assert intertwines(c, mat)
    delta = LaurentScalar(rng.randint(-3, 8), 1)
    if ring == "qe":
        delta = QEScalar(L_ZERO, delta) if rng.random() < 0.5 else QEScalar(delta)
    wrong = perturbed(mat, rng.randrange(m + 1), rng.randrange(m + 1), delta)
    assert not intertwines(c, wrong) and conjugation_matrix(c) != wrong


def lifting_cases():
    """(c, conjugation_matrix(c)) for random pin words at m = 4 over both
    rings, over "qe" also scaled by alpha."""
    cases = []
    for ring in RINGS:
        psi = PinRep(4, ring)
        rng = random.Random(4)
        for _ in range(10):
            c = evaluate(random_word(psi, rng, 12), psi)
            mat = conjugation_matrix(c)
            cases += [(c, mat), (c.scale(ALPHA), mat)] if ring == "qe" else [(c, mat)]
    return cases


@pytest.mark.parametrize("ring", RINGS)
def test_intertwines_rejects_every_perturbed_entry(ring):
    # each entry of a lifted matrix moved by s**k, k below, inside and
    # above the entries' exponents, or (over "qe") by alpha * s**k
    for c, mat in lifting_cases()[::3]:
        if c.algebra.ring != ring:
            continue
        for i in range(5):
            for j in range(5):
                for k in (-1, 0, 3, 9):
                    delta = LaurentScalar(k, 1)
                    qe = (QEScalar(delta), QEScalar(L_ZERO, delta))
                    for d in qe if ring == "qe" else (delta,):
                        assert not intertwines(c, perturbed(mat, i, j, d))


def fresh_action_tables(monkeypatch):
    """Give every algebra in use an empty mask cache for this test."""
    for alg in clifford._ALGEBRAS.values():
        monkeypatch.setattr(alg, "_polybits_cache", {})


def right_as_left(monkeypatch):
    # c * x_j taken as the left action x_j * c
    real = CliffordAlgebra._actions

    def planted(alg, width):
        left, _, fold = real(alg, width)
        tables = alg._polybits_cache[width] = (left, left[::-1], fold)
        return tables

    fresh_action_tables(monkeypatch)
    monkeypatch.setattr(CliffordAlgebra, "_actions", planted)


def narrow_slots(monkeypatch):
    # A width one bit short of the least that holds the identity.  That
    # least is one below _slot_width's unrounded bound: the alpha**2
    # fold's extra bit is never needed here, as a bit it pushes out of a
    # slot lands below every term of the next one and so can only make
    # the two sides differ, which they then do.
    fresh_action_tables(monkeypatch)
    monkeypatch.setattr(clifford, "_slot_width", lambda la, lb, m: la + lb + 2 * m - 2)


@pytest.mark.parametrize("plant", (right_as_left, narrow_slots))
def test_planted_intertwining_faults_are_caught(plant, monkeypatch):
    cases = lifting_cases()

    def check():
        for c, mat in cases:
            assert intertwines(c, mat)
            assert not intertwines(c, perturbed(mat, 1, 0, c.algebra.scalar_one))

    check()
    fresh_action_tables(monkeypatch)
    monkeypatch.setattr(clifford, "_slot_width", lambda la, lb, m: la + lb + 2 * m - 1)
    check()  # the unused fold bit: one bit below the bound is still exact
    monkeypatch.undo()
    plant(monkeypatch)
    with pytest.raises(AssertionError):
        check()


def test_lifting_check_rejects_zero_and_non_units(plant):
    # The identity alone holds for 0 with every matrix and for the
    # non-unit scalar 1 + s with the identity matrix; the norm rejects
    # both, and 1 + u, whose norm (1 + u)**2 is 0.  The plant drops the
    # norm's comparison from ``lifts``.
    alg = get_algebra(4)
    ident = RMatrix.identity(5, L_ONE, L_ZERO)
    elements = (alg.zero, alg.scalar(L_ONE + S), alg.one + alg.u())
    assert intertwines(elements[0], ident) and intertwines(elements[1], ident)

    def check():
        for c in elements:
            assert not clifford.lifts(c, ident)

    check()
    plant(clifford, "lifts", ("lo > 0 or xs[0] != 1 << -lo or any(xs[1:])", "False"))
    with pytest.raises(AssertionError):
        check()


# -- the spinor norm on packed ints -------------------------------------------


def norm_outcome(fn, *args):
    """fn(*args), or "not scalar" if it raised NotScalarError."""
    try:
        return fn(*args)
    except NotScalarError:
        return "not scalar"


def check_norm(c, mat):
    """The norm kernel against the product c * c^tr: ``spinor_norm`` is
    its scalar part, and ``lifts`` is "the norm is 1 and c intertwines
    mat"; both raise NotScalarError exactly when the product is not a
    scalar."""
    want = c * c.transpose()
    norm = norm_outcome(clifford.spinor_norm, c)
    judged = norm_outcome(clifford.lifts, c, mat)
    if not want.is_scalar:
        assert norm == judged == "not scalar"
        return
    assert norm == want.scalar_part()
    assert judged == (norm.is_one and intertwines(c, mat))


def norm_cases(m, ring):
    """(c, mat) pairs: the zero element; pin images of seeded words with
    their phi images (norm 1), each scaled by s (norm s**2) and by
    s**(m + 1) (the s**0 bit below the slot, for short words), and plus 1
    (mostly not scalar); over "qe" the scalar alpha (norm 1 + s*alpha, a
    scalar with an alpha part) and v1 + alpha*u*v2 (norm
    alpha*(u + v1 + v2 + s**-1), not scalar only in the alpha block)."""
    psi, phi = PinRep(m, ring), OrthoRep(QuadSpace(m))
    alg = psi.algebra
    ident = RMatrix.identity(m + 1, L_ONE, L_ZERO)
    cases = [(alg.zero, ident)]
    rng = random.Random(m)
    for _ in range(4):
        word = random_word(psi, rng, 12)
        c, mat = evaluate(word, psi), evaluate(word, phi)
        cases += [(c, mat), (c.scale(S), mat), (c.scale(LaurentScalar(m + 1, 1)), mat)]
        cases.append((c + alg.one, mat))
    if ring == "qe":
        cases.append((alg.scalar(ALPHA), ident))
        cases.append((alg.v(1) + (alg.u() * alg.v(2)).scale(ALPHA), ident))
    return cases


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS + (7, 8))
def test_norm_kernel_matches_product(m, ring):
    cases = norm_cases(m, ring)
    for c, mat in cases:
        check_norm(c, mat)
    # every kind of outcome is reached
    judged = [norm_outcome(clifford.lifts, c, mat) for c, mat in cases]
    assert {True, False, "not scalar"} <= set(judged)
    if ring == "qe":
        assert clifford.spinor_norm(cases[-2][0]) == QEScalar(L_ONE, S)
        assert norm_outcome(clifford.lifts, *cases[-1]) == "not scalar"


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("m", MS)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(x=raw_terms)
@example(x=[])
@example(x=CANCEL)
@example(x=RADICAL)
@example(x=[(0, [20], [])])
@example(x=[(0, [-20], [3])])
def test_norm_kernel_matches_product_on_any_element(m, ring, x):
    # any element, mostly not scalar; scalars s**20 and s**-20 put the
    # s**0 bit far outside the slot on either side
    alg = get_algebra(m, ring)
    check_norm(build(alg, x), RMatrix.identity(m + 1, L_ONE, L_ZERO))


NORM_FAULTS = {
    # c's own right program chained on c, not the program of c^tr
    "own program": ("_norm_slots", ("_transposed(c.parts)", "c.parts")),
    # lifts compares the norm with s**2, not s**0
    "s**0 bit off by 2": ("lifts", ("1 << -lo", "1 << 2 - lo")),
    # the scalar test reads the first block only
    "alpha block ignored": ("_norm_slots", ("if y:", "if y & (1 << span) - 1:")),
    # lifts accepts a norm 1 + (alpha part)
    "alpha part accepted": ("lifts", (" or any(xs[1:])", "")),
}


@pytest.mark.parametrize("name", sorted(NORM_FAULTS))
def test_planted_norm_faults_are_caught(plant, name):
    cases = [case for ring in RINGS for case in norm_cases(4, ring)]
    for c, mat in cases:
        check_norm(c, mat)
    owner, edit = NORM_FAULTS[name]
    plant(clifford, owner, edit)
    with pytest.raises(AssertionError):
        for c, mat in cases:
            check_norm(c, mat)
