import random

import pytest

from ytwo.ortho import (
    OrthoRep,
    conjugate_power_matrix,
    entries_are_t_polynomials,
    triple_form_matrix,
)
from ytwo.presentation import evaluate, s_letter
from ytwo.quadspace import (
    QuadSpace,
    RMatrix,
    bilin,
    q_eval,
    rmat_lower_laurent,
)
from ytwo.rings import (
    ALPHA,
    ALPHA_INV,
    L_ONE,
    L_ZERO,
    LaurentScalar,
    QE_ZERO,
    QEScalar,
    S,
    T,
    s_pow,
)


def t_poly(*coeff_exps):
    return LaurentScalar.from_exponents([2 * e for e in coeff_exps])


ONE = L_ONE
ZERO = L_ZERO
T1 = T


class TestGenerators:
    def test_swap_generator(self):
        sp = QuadSpace(4)
        mat = OrthoRep(sp).image("S1")
        # swaps v1 and v2, fixes u and the other v_j
        expect = [
            [ONE, ZERO, ZERO, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO, ZERO],
            [ZERO, ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, ZERO, ONE],
        ]
        assert mat == RMatrix(expect)

    def test_tau_generator(self):
        sp = QuadSpace(3)
        mat = OrthoRep(sp).image("t")
        # u fixed, v_i -> v_i + u
        for i in range(1, 4):
            row = mat.rows[i]
            assert row[0] == ONE and row[i] == ONE
            assert sum(1 for x in row if x) == 2
        assert mat.rows[0] == (ONE, ZERO, ZERO, ZERO)

    def test_a_generator(self):
        sp = QuadSpace(4)
        mat = OrthoRep(sp).image("a")
        # u -> u + t v1; v1 -> u + (1+t) v1; v_j -> u + v_j
        assert mat.rows[0] == (ONE, T1, ZERO, ZERO, ZERO)
        assert mat.rows[1] == (ONE, ONE + T1, ZERO, ZERO, ZERO)
        for j in range(2, 5):
            row = list(mat.rows[j])
            assert row[0] == ONE and row[j] == ONE
            assert sum(1 for x in row if x) == 2

    def test_images_preserve_forms(self):
        sp = QuadSpace(5)
        rep = OrthoRep(sp)
        basis = [sp.basis_vector(i) for i in range(sp.rank)]
        for letter in rep.letters():
            mat = rep.image(letter)
            imgs = [mat.row_apply(b) for b in basis]
            for i in range(sp.rank):
                assert q_eval(sp, imgs[i]) == q_eval(sp, basis[i])
                for j in range(i + 1, sp.rank):
                    assert bilin(sp, imgs[i], imgs[j]) == bilin(
                        sp, basis[i], basis[j]
                    )

    def test_involutions(self):
        rep = OrthoRep(QuadSpace(4))
        for letter in ("t", "S1", "S2", "S3"):
            assert (rep.image(letter) * rep.image(letter)).is_identity


class TestClosedForm:
    def test_k0_is_s1(self):
        sp = QuadSpace(4)
        got = rmat_lower_laurent(conjugate_power_matrix(sp, 0))
        assert got == OrthoRep(sp).image(s_letter(1))

    def test_negative_k(self):
        with pytest.raises(ValueError):
            conjugate_power_matrix(QuadSpace(3), -1)

    def test_k1_m4_frozen(self):
        # derived by conjugating the transvection matrices directly
        sp = QuadSpace(4)
        got = rmat_lower_laurent(conjugate_power_matrix(sp, 1))
        head = [
            [t_poly(1, 0), t_poly(1), t_poly(1)],
            [t_poly(0), ZERO, t_poly(0)],
            [t_poly(1, 0), t_poly(1, 0), t_poly(1)],
        ]
        for i in range(3):
            assert list(got.rows[i][:3]) == head[i]
            assert all(not x for x in got.rows[i][3:])
        for j in (3, 4):
            row = got.rows[j]
            assert list(row[:3]) == [t_poly(1, 0), ZERO, t_poly(1)]
            assert row[j] == ONE

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_matches_conjugation_oracle(self, m):
        sp = QuadSpace(m)
        phi = OrthoRep(sp)
        s1 = (s_letter(1),)
        for k in range(0, 12):
            word = ("A",) * k + s1 + ("a",) * k
            oracle = evaluate(word, phi)
            got = rmat_lower_laurent(conjugate_power_matrix(sp, k))
            assert got == oracle
            assert entries_are_t_polynomials(got)

    def test_coefficient_triple_sums_to_zero(self):
        for k in range(1, 21):
            a2k = ALPHA ** (2 * k) + ALPHA_INV ** (2 * k)
            sigma_k = QE_ZERO
            for i in range(-k, k + 1):
                sigma_k = sigma_k + (
                    ALPHA ** (2 * i) if i >= 0 else ALPHA_INV ** (-2 * i)
                )
            sigma_km1 = sigma_k + a2k
            assert a2k + sigma_km1 + sigma_k == QE_ZERO


class TestTripleForms:
    def test_two_forms_commute(self):
        sp = QuadSpace(5)
        rng = random.Random(42)
        scalars = [
            QEScalar(x)
            for x in (L_ZERO, L_ONE, T, T + L_ONE, s_pow(4), s_pow(2) + s_pow(4))
        ]
        for _ in range(200):
            f0, f1 = rng.choice(scalars), rng.choice(scalars)
            g0, g1 = rng.choice(scalars), rng.choice(scalars)
            F = triple_form_matrix(sp, f0, f1, f0 + f1)
            G = triple_form_matrix(sp, g0, g1, g0 + g1)
            assert F * G == G * F

    def test_conjugates_have_the_form(self):
        # each k-fold conjugate fixes u + v1 + v2 (zero-sum coefficients)
        sp = QuadSpace(4)
        phi = OrthoRep(sp)
        w = tuple(
            ONE if i in (0, 1, 2) else ZERO for i in range(sp.rank)
        )
        for k in range(0, 10):
            word = ("A",) * k + (s_letter(1),) + ("a",) * k
            mat = evaluate(word, phi)
            assert mat.row_apply(w) == w


class TestPolynomialEntries:
    def test_phi_a(self):
        assert entries_are_t_polynomials(OrthoRep(QuadSpace(3)).image("a"))

    def test_counterexample(self):
        bad = RMatrix([[S]])
        assert not entries_are_t_polynomials(bad)
        assert entries_are_t_polynomials(RMatrix([[T]]))
        # the odd entry in the last row, after a zero and a t-polynomial
        assert not entries_are_t_polynomials(RMatrix([[T, ZERO], [ZERO, S]]))
        assert entries_are_t_polynomials(RMatrix([[T, ZERO], [ZERO, T]]))

    def test_random_words(self):
        sp = QuadSpace(4)
        rep = OrthoRep(sp)
        letters = rep.letters()
        rng = random.Random(42)
        for _ in range(100):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 30)))
            assert entries_are_t_polynomials(evaluate(word, rep))
