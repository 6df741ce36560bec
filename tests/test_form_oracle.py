"""The closed forms of the quadratic module against the double loops in
oracles.py, and ``hyperbolic_decompose`` on bit masks against the
tuple algorithm it replaced, kept below.

``q_eval`` and ``bilin`` run over the Laurent ring, its quadratic
extension and GF(16), on seeded random vectors with many zero entries
and on vectors whose entries sum to zero.  Each plant is a copy of the
package's own source with one fault put in, and must fail its check; a
flipped correction must also make ``hyperbolic_decompose`` raise."""

import functools
import random

import pytest

from ytwo import quadspace
from ytwo.errors import UnsupportedFormError
from ytwo.quadspace import QuadSpace
from ytwo.rings import L_ONE, L_ZERO, QE_ONE, QE_ZERO, QEScalar, make_eval_map, s_pow

from oracles import ref_bilin, ref_q_eval

LAURENT = [
    L_ZERO, L_ZERO, L_ONE, s_pow(1), s_pow(-3), L_ONE + s_pow(2), s_pow(-1) + s_pow(4)
]
FIELD = make_eval_map(5).field  # GF(16)


def ring_spaces(m):
    """(ring, space, scalar pool) per ring at rank m + 1: the standard form
    over the Laurent ring and its image in GF(16), and random q-values
    over the quadratic extension."""
    rng = random.Random(m)
    qe = [QEScalar(x, y) for x in LAURENT[1:4] for y in LAURENT[:4]] + [QE_ZERO]
    emap = make_eval_map(5)
    ff_q = [emap.apply(q) for q in QuadSpace(m).q_values]
    ff = [FIELD.zero] + [FIELD.element(v) for v in range(FIELD.order)]
    qe_q = [rng.choice(qe) for _ in range(m + 1)]
    return [
        ("laurent", QuadSpace(m), LAURENT),
        ("qe", QuadSpace(m, qe_q, QE_ONE, QE_ZERO), qe),
        ("ff", QuadSpace(m, ff_q, FIELD.one, FIELD.zero), ff),
    ]


def vectors(space, pool, rng, count=30):
    """Random vectors, the zero vector, and vectors whose entries sum to
    zero: a pair of equal entries, and a random vector completed by the
    sum of its entries."""
    n, zero = space.rank, space.zero
    out = [tuple(rng.choice(pool) for _ in range(n)) for _ in range(count)]
    out.append((zero,) * n)
    for _ in range(5):
        c = rng.choice([x for x in pool if x])
        i, j = rng.sample(range(n), 2)
        out.append(tuple(c if k in (i, j) else zero for k in range(n)))
        head = [rng.choice(pool) for _ in range(n - 1)]
        out.append(tuple(head) + (sum(head, zero),))
    return out


@functools.cache
def cases():
    rng = random.Random(26)
    out = []
    for m in (3, 4, 7, 12):
        for ring, space, pool in ring_spaces(m):
            out.append((ring, space, vectors(space, pool, rng)))
    return out


def form_mismatches():
    """(function, ring, rank) for each seeded case where ``q_eval`` or
    ``bilin`` differs from its double loop."""
    bad = []
    for ring, space, vecs in cases():
        for x, y in zip(vecs, vecs[1:] + vecs[:1]):
            if quadspace.q_eval(space, x) != ref_q_eval(space, x):
                bad.append(("q_eval", ring, space.rank))
            if quadspace.bilin(space, x, y) != ref_bilin(space, x, y):
                bad.append(("bilin", ring, space.rank))
    return bad


def test_cases_cover_zeros_and_cancelling_sums():
    for ring, space, vecs in cases():
        sums = [sum(v, space.zero) for v in vecs]
        assert sum(not s for s in sums) >= 10, ring
        assert any(any(not c for c in v) and any(v) for v in vecs), ring


def test_closed_forms_match_double_loops():
    assert form_mismatches() == []


def tuple_decompose(space):
    """The splitting of ``hyperbolic_decompose`` on scalar tuples, as it
    was before bit masks: (pairs, residual, residual q-values, states)."""

    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    def scale(c, x):
        return tuple(c * a for a in x)

    one, zero = space.one, space.zero
    vectors = [space.basis_vector(i) for i in range(space.rank)]
    qs = list(space.q_values)
    pairs, states = [], []
    while len(vectors) >= 4:
        state = (qs[0], qs[1], qs[2])
        alpha, beta = quadspace._STATE_TABLE[state]
        k = len(vectors) - 1
        sa = one if alpha else zero
        sb = one if beta else zero
        head = add(scale(sa, vectors[0]), scale(sb, vectors[1]))
        e = add(head, vectors[k])
        f = add(head, vectors[k - 1])
        ef = add(e, f)
        c0 = one if (beta ^ 1) else zero
        c1 = one if (alpha ^ 1) else zero
        cr = one if (alpha ^ beta ^ 1) else zero
        new_vectors = [add(vectors[0], scale(c0, ef)), add(vectors[1], scale(c1, ef))]
        for i in range(2, k - 1):
            new_vectors.append(add(vectors[i], scale(cr, ef)))
        a_sq = L_ONE if alpha else L_ZERO
        b_sq = L_ONE if beta else L_ZERO
        new_qs = [qs[0] + b_sq + L_ONE, qs[1] + a_sq + L_ONE]
        for i in range(2, k - 1):
            new_qs.append(qs[i] + a_sq + b_sq + L_ONE)
        pairs.append((e, f))
        states.append(state)
        vectors = new_vectors
        qs = new_qs
    return pairs, vectors, [ref_q_eval(space, v) for v in vectors], states


def decompose_mismatches(ranks=range(4, 41)):
    """The ranks at which ``hyperbolic_decompose`` differs from the tuple
    algorithm or refuses the standard form."""
    bad = []
    for rank in ranks:
        space = QuadSpace(rank - 1)
        try:
            dec = quadspace.hyperbolic_decompose(space)
        except UnsupportedFormError:
            bad.append(rank)
            continue
        got = (dec.pairs, dec.residual, dec.residual_q, dec.states)
        if got != tuple_decompose(space):
            bad.append(rank)
    return bad


def test_decomposition_matches_tuple_algorithm():
    assert decompose_mismatches() == []


# -- planted faults -------------------------------------------------------------


def test_planted_stale_running_sum_is_caught(plant):
    plant(quadspace, "q_eval", ("before = before + c", "pass"))
    assert {(f, ring) for f, ring, _ in form_mismatches()} >= {
        ("q_eval", "laurent"), ("q_eval", "qe"), ("q_eval", "ff")
    }


def test_planted_bilin_without_diagonal_is_caught(plant):
    plant(quadspace, "bilin", ("total = total + a * b", "pass"))
    assert {(f, ring) for f, ring, _ in form_mismatches()} == {
        ("bilin", "laurent"), ("bilin", "qe"), ("bilin", "ff")
    }


@pytest.mark.parametrize("old, new", [
    ("c0, c1, cr = beta ^ 1,", "c0, c1, cr = beta,"),
    ("alpha ^ 1, alpha ^ beta ^ 1", "alpha, alpha ^ beta ^ 1"),
    ("alpha ^ beta ^ 1\n", "alpha ^ beta\n"),
])
def test_planted_flipped_correction_is_caught(plant, old, new):
    # a flipped coefficient adds e + f to a vector or leaves it out, and
    # (e + f, e) = (e + f, f) = 1, so at every rank the flip makes wrong
    # the step's own orthogonality check raises
    plant(quadspace, "hyperbolic_decompose", (old, new))
    raised = {}
    for rank in range(4, 41):
        try:
            quadspace.hyperbolic_decompose(QuadSpace(rank - 1))
        except UnsupportedFormError as exc:
            raised[rank] = str(exc)
    assert sorted(raised) == decompose_mismatches() != []
    assert set(raised.values()) == {"correction not orthogonal to the pair"}
