import random

import pytest

from ytwo.errors import NonUnitNormError, UnsupportedFormError
from ytwo.quadspace import (
    QuadSpace,
    bilin,
    gram_rank_gf2,
    hyperbolic_decompose,
    q_eval,
    radical_vector,
    transvection,
    vec_add,
)
from ytwo.rings import L_ONE, L_ZERO, T_INV, s_pow

from oracles import ref_transvection


def rand_vec(space, rng, scalars=None):
    if scalars is None:
        scalars = [L_ZERO, L_ONE, s_pow(2), s_pow(-2), L_ONE + s_pow(2)]
    return tuple(rng.choice(scalars) for _ in range(space.rank))


class TestForms:
    def test_q_on_basis(self):
        sp = QuadSpace(4)
        assert q_eval(sp, sp.basis_vector(0)) == L_ONE
        for i in range(1, 5):
            assert q_eval(sp, sp.basis_vector(i)) == T_INV

    def test_q_pairs(self):
        sp = QuadSpace(5)
        v1, v2 = sp.basis_vector(1), sp.basis_vector(2)
        assert q_eval(sp, vec_add(v1, v2)) == L_ONE
        u = sp.basis_vector(0)
        assert q_eval(sp, vec_add(u, v1)) == T_INV

    def test_bilin_on_basis(self):
        sp = QuadSpace(4)
        u, v3 = sp.basis_vector(0), sp.basis_vector(3)
        assert bilin(sp, u, v3) == L_ONE
        v1 = sp.basis_vector(1)
        assert bilin(sp, vec_add(u, v1), v1) == L_ONE

    def test_alternating(self):
        sp = QuadSpace(4)
        rng = random.Random(42)
        for _ in range(50):
            x = rand_vec(sp, rng)
            assert bilin(sp, x, x) == L_ZERO

    def test_polarization(self):
        sp = QuadSpace(4)
        rng = random.Random(8)
        for _ in range(100):
            x, y = rand_vec(sp, rng), rand_vec(sp, rng)
            assert bilin(sp, x, y) == q_eval(sp, vec_add(x, y)) + q_eval(
                sp, x
            ) + q_eval(sp, y)

    def test_bilinearity_and_symmetry(self):
        sp = QuadSpace(4)
        rng = random.Random(21)
        for _ in range(100):
            x, y, z = (rand_vec(sp, rng) for _ in range(3))
            c = s_pow(rng.randint(-3, 3))
            assert bilin(sp, x, y) == bilin(sp, y, x)
            assert bilin(sp, vec_add(x, y), z) == bilin(sp, x, z) + bilin(sp, y, z)
            assert bilin(sp, tuple(c * a for a in x), z) == c * bilin(sp, x, z)


class TestTransvection:
    def test_swap(self):
        sp = QuadSpace(3)
        v1, v2 = sp.basis_vector(1), sp.basis_vector(2)
        r = transvection(sp, vec_add(v1, v2))
        assert r.row_apply(v1) == v2
        assert r.row_apply(v2) == v1
        assert r.row_apply(sp.basis_vector(0)) == sp.basis_vector(0)

    def test_fixes_axis(self):
        sp = QuadSpace(4)
        rng = random.Random(4)
        done = 0
        while done < 30:
            w = rand_vec(sp, rng)
            try:
                r = transvection(sp, w)
            except NonUnitNormError:
                continue
            assert r.row_apply(w) == w
            done += 1

    @pytest.mark.parametrize("m", range(3, 31))
    def test_ortho_axes_match_dense(self, m):
        sp = QuadSpace(m)
        axes = [sp.basis_vector(0), sp.basis_vector(1)] + [
            vec_add(sp.basis_vector(i), sp.basis_vector(i + 1)) for i in range(1, m)
        ]
        for w in axes:
            assert transvection(sp, w).rows == ref_transvection(sp, w)

    def test_random_unit_axes_match_dense(self):
        rng = random.Random(11)
        for m in (3, 4, 7):
            sp = QuadSpace(m)
            done = 0
            while done < 40:
                w = rand_vec(sp, rng)
                if not q_eval(sp, w).is_monomial:
                    continue
                assert transvection(sp, w).rows == ref_transvection(sp, w)
                done += 1

    def test_singular_axis_rejected(self):
        sp = QuadSpace(3)
        w = vec_add(
            vec_add(sp.basis_vector(0), sp.basis_vector(1)), sp.basis_vector(2)
        )
        assert q_eval(sp, w) == L_ZERO
        with pytest.raises(NonUnitNormError):
            transvection(sp, w)

    def test_involution_and_form_preserving(self):
        rng = random.Random(42)
        sp = QuadSpace(5)
        basis = [sp.basis_vector(i) for i in range(sp.rank)]
        done = 0
        while done < 100:
            w = rand_vec(sp, rng)
            try:
                r = transvection(sp, w)
            except NonUnitNormError:
                continue
            done += 1
            assert (r * r).is_identity
            imgs = [r.row_apply(b) for b in basis]
            for i in range(sp.rank):
                assert q_eval(sp, imgs[i]) == q_eval(sp, basis[i])
                for j in range(i + 1, sp.rank):
                    assert bilin(sp, imgs[i], imgs[j]) == bilin(
                        sp, basis[i], basis[j]
                    )


class TestDecomposition:
    def test_rank5_first_extraction(self):
        # state row (1, 1/t, 1/t) gives (alpha, beta) = (1, 1):
        # e = e0 + e1 + e4, f = e0 + e1 + e3
        sp = QuadSpace(4)
        dec = hyperbolic_decompose(sp)
        assert len(dec.pairs) == 1 and len(dec.residual) == 3
        e, f = dec.pairs[0]
        ids = lambda v: [i for i, c in enumerate(v) if c]
        assert ids(e) == [0, 1, 4]
        assert ids(f) == [0, 1, 3]

    def test_rank4(self):
        dec = hyperbolic_decompose(QuadSpace(3))
        assert len(dec.pairs) == 1 and len(dec.residual) == 2

    def test_rank8_periodicity(self):
        dec = hyperbolic_decompose(QuadSpace(7))
        assert len(dec.pairs) == 3 and len(dec.residual) == 2
        one, t1 = L_ONE, T_INV
        t1p = T_INV + L_ONE
        expected_cycle = [
            (one, t1, t1),
            (one, t1, t1p),
            (one, t1p, t1p),
            (one, t1p, t1),
        ]
        assert dec.states == expected_cycle[: len(dec.states)]

    @pytest.mark.parametrize("rank", range(5, 22))
    def test_invariants_all_ranks(self, rank):
        sp = QuadSpace(rank - 1)
        dec = hyperbolic_decompose(sp)
        # pairing structure
        for e, f in dec.pairs:
            assert q_eval(sp, e) == L_ZERO and q_eval(sp, f) == L_ZERO
            assert bilin(sp, e, f) == L_ONE
        # orthogonality across blocks and to the residual
        blocks = [list(p) for p in dec.pairs] + [dec.residual]
        for i, bi in enumerate(blocks):
            for j, bj in enumerate(blocks):
                if i == j:
                    continue
                for x in bi:
                    for y in bj:
                        assert bilin(sp, x, y) == L_ZERO
        assert len(dec.residual) in (2, 3)
        assert 2 * len(dec.pairs) + len(dec.residual) == rank
        # GF(2) coefficients only
        for vecs in blocks:
            for v in vecs:
                assert all(c == L_ZERO or c == L_ONE for c in v)
        # the q-state sequence walks the four-row table cyclically
        one, t1, t1p = L_ONE, T_INV, T_INV + L_ONE
        cycle = [(one, t1, t1), (one, t1, t1p), (one, t1p, t1p), (one, t1p, t1)]
        for idx, st in enumerate(dec.states):
            assert st == cycle[idx % 4]

    def test_unsupported_form(self):
        sp = QuadSpace(4, q_values=(L_ONE,) * 5)
        with pytest.raises(UnsupportedFormError):
            hyperbolic_decompose(sp)


class TestRadical:
    def test_even_m(self):
        sp = QuadSpace(4)
        r = radical_vector(sp)
        assert r == tuple([L_ONE] * 5)
        for i in range(5):
            assert bilin(sp, r, sp.basis_vector(i)) == L_ZERO

    def test_odd_m(self):
        assert radical_vector(QuadSpace(3)) is None
        assert radical_vector(QuadSpace(5)) is None

    @pytest.mark.parametrize(
        "m,expected", [(4, True), (6, False), (8, True), (10, False)]
    )
    def test_q_of_radical(self, m, expected):
        sp = QuadSpace(m)
        q_r = q_eval(sp, radical_vector(sp))
        assert (q_r == L_ONE) is expected
        assert (q_r == L_ZERO) is not expected

    def test_gram_rank(self):
        # all-ones-off-diagonal is nonsingular over GF(2) iff the size is even
        for m in range(3, 11):
            rank = gram_rank_gf2(m)
            assert rank == (m + 1 if m % 2 else m)


class TestRMatrix:
    def test_identity_and_mul(self):
        sp = QuadSpace(3)
        ident = sp.identity_matrix()
        r = transvection(sp, sp.basis_vector(0))
        assert ident * r == r and r * ident == r
        assert (r * r).is_identity

    def test_associativity(self):
        sp = QuadSpace(3)
        a = transvection(sp, sp.basis_vector(0))
        b = transvection(sp, sp.basis_vector(1))
        c = transvection(sp, vec_add(sp.basis_vector(1), sp.basis_vector(2)))
        assert (a * b) * c == a * (b * c)

    def test_pow(self):
        sp = QuadSpace(3)
        a = transvection(sp, sp.basis_vector(0)) * transvection(
            sp, sp.basis_vector(1)
        )
        assert a ** 3 == a * a * a
        with pytest.raises(ValueError):
            a ** 0

    def test_row_convention(self):
        # row i is the image of basis vector i: x*(gh) == (x*g)*h
        sp = QuadSpace(4)
        rng = random.Random(12)
        g = transvection(sp, sp.basis_vector(0))
        h = transvection(sp, vec_add(sp.basis_vector(1), sp.basis_vector(2)))
        for _ in range(20):
            x = rand_vec(sp, rng)
            assert (g * h).row_apply(x) == h.row_apply(g.row_apply(x))

    def test_serialization(self):
        sp = QuadSpace(3)
        data = sp.identity_matrix().to_json()
        assert data[0][0] == [0] and data[0][1] == []
