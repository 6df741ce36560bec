import random

import pytest

from ytwo import clifford
from ytwo.clifford import (
    CliffordAlgebra,
    PinRep,
    center_report,
    check_power_identities,
    cl_inverse,
    conjugation_matrix,
    get_algebra,
    kernel_element,
    power_sequences,
    spinor_norm,
)
from ytwo.errors import (
    MixedAmbientError,
    NotCliffordGroupError,
    NotScalarError,
    NotUnitError,
)
from ytwo.ortho import OrthoRep
from ytwo.presentation import evaluate, relator_failures, schedule
from ytwo.quadspace import QuadSpace, hyperbolic_decompose, q_eval, transvection
from ytwo.rings import (
    L_ONE,
    L_ZERO,
    LaurentScalar,
    S,
    T_INV,
    ff_rank,
    make_eval_map,
    s_pow,
)


def rand_scalar(rng, span=4, terms=3):
    return LaurentScalar.from_exponents(
        rng.sample(range(-span, span + 1), rng.randint(0, terms))
    )


def rand_vector(alg, rng):
    return alg.vector([rand_scalar(rng) for _ in range(alg.m + 1)])


class TestRelations:
    def test_squares(self):
        alg = get_algebra(3)
        assert alg.v(1) * alg.v(1) == alg.scalar(T_INV)
        assert alg.u() * alg.u() == alg.one

    def test_mixed_product(self):
        alg = get_algebra(3)
        u, v1 = alg.u(), alg.v(1)
        assert v1 * u == alg.one + u * v1

    def test_pair_square(self):
        alg = get_algebra(4)
        w = alg.v(1) + alg.v(2)
        assert w * w == alg.one

    def test_vector_square_is_q(self):
        rng = random.Random(42)
        for m in (3, 4):
            alg = get_algebra(m)
            sp = QuadSpace(m)
            for _ in range(100):
                coeffs = [rand_scalar(rng) for _ in range(m + 1)]
                w = alg.vector(coeffs)
                assert w * w == alg.scalar(q_eval(sp, tuple(coeffs)))

    def test_anticommutator_is_pairing(self):
        from ytwo.quadspace import bilin

        rng = random.Random(7)
        alg = get_algebra(4)
        sp = QuadSpace(4)
        for _ in range(200):
            x = [rand_scalar(rng) for _ in range(5)]
            y = [rand_scalar(rng) for _ in range(5)]
            wx, wy = alg.vector(x), alg.vector(y)
            assert wx * wy + wy * wx == alg.scalar(bilin(sp, tuple(x), tuple(y)))

    def test_associativity_random(self):
        rng = random.Random(3)
        alg = get_algebra(3)
        elems = [alg.one, alg.u(), alg.v(1), alg.v(2), alg.u() * alg.v(1)]
        for _ in range(100):
            x = rand_vector(alg, rng) + rng.choice(elems)
            y = rand_vector(alg, rng) + rng.choice(elems)
            z = rand_vector(alg, rng)
            assert (x * y) * z == x * (y * z)

    def test_associativity_large_elements(self):
        # multi-term products exercising deep rewriting chains at m=5
        rng = random.Random(19)
        alg = get_algebra(5)
        def big(count):
            acc = alg.zero
            for _ in range(count):
                term = alg.one
                for _ in range(rng.randint(1, 4)):
                    term = term * alg.gen(rng.randrange(6))
                acc = acc + term.scale(rand_scalar(rng))
            return acc
        for _ in range(20):
            x, y, z = big(4), big(4), big(3)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_grading(self):
        rng = random.Random(11)
        alg = get_algebra(4)
        for _ in range(100):
            # homogeneous elements: products of vectors, plus scalars
            evens = [rand_vector(alg, rng) * rand_vector(alg, rng), alg.one]
            odds = [rand_vector(alg, rng), rand_vector(alg, rng) * evens[0]]
            graded = [(0, e) for e in evens] + [(1, o) for o in odds]
            for px, x in graded:
                for py, y in graded:
                    prod = x * y
                    if prod:
                        assert prod.parity() == px ^ py
        u = alg.u()
        assert u.parity() == 1 and (u * alg.v(1)).parity() == 0

    def test_mixed_ambient(self):
        with pytest.raises(MixedAmbientError):
            get_algebra(3).u() * get_algebra(4).u()
        with pytest.raises(MixedAmbientError):
            get_algebra(3).u() + get_algebra(3, "qe").u()

    def test_inverses_of_named_elements(self):
        alg = get_algebra(3)
        u, v1 = alg.u(), alg.v(1)
        assert cl_inverse(u) == u
        assert cl_inverse(v1) == v1.scale(s_pow(2))  # 1/v1 = t v1
        pair = alg.v(1) + alg.v(2)
        assert cl_inverse(pair) == pair


class TestTranspose:
    def test_examples(self):
        alg = get_algebra(3)
        u, v1, v2 = alg.u(), alg.v(1), alg.v(2)
        uv1 = u * v1
        assert uv1.transpose() == v1 * u
        assert uv1.transpose() == alg.one + uv1
        assert alg.one.transpose() == alg.one
        assert (u * v1 * v2).transpose() == v2 * v1 * u

    def test_antihomomorphism(self):
        rng = random.Random(42)
        alg = get_algebra(4)
        for _ in range(200):
            x = rand_vector(alg, rng) * rand_vector(alg, rng) + rand_vector(
                alg, rng
            )
            y = rand_vector(alg, rng) * rand_vector(alg, rng)
            assert (x * y).transpose() == y.transpose() * x.transpose()

    def test_involution(self):
        rng = random.Random(5)
        alg = get_algebra(3)
        for _ in range(100):
            x = rand_vector(alg, rng) * rand_vector(alg, rng)
            assert x.transpose().transpose() == x


class TestSpinorNorm:
    def test_generator_norms(self):
        rep = PinRep(4)
        for letter in rep.letters():
            assert spinor_norm(rep.image(letter)).is_one

    def test_psi_a_norm(self):
        rep = PinRep(3)
        assert spinor_norm(rep.image("a")) == L_ONE

    def test_u_norm(self):
        alg = get_algebra(3)
        assert spinor_norm(alg.u()) == L_ONE

    def test_vector_norm_is_q(self):
        alg = get_algebra(3)
        sp = QuadSpace(3)
        rng = random.Random(9)
        for _ in range(50):
            coeffs = [rand_scalar(rng) for _ in range(4)]
            assert spinor_norm(alg.vector(coeffs)) == q_eval(sp, tuple(coeffs))

    def test_norm_of_vector_products(self):
        # for w_1 ... w_k a product of vectors, the norm is q(w_1)...q(w_k)
        alg = get_algebra(4)
        sp = QuadSpace(4)
        rng = random.Random(29)
        from ytwo.rings import L_ONE

        for _ in range(50):
            prod = alg.one
            expect = L_ONE
            for _ in range(rng.randint(1, 3)):
                coeffs = tuple(rand_scalar(rng) for _ in range(5))
                prod = prod * alg.vector(coeffs)
                expect = expect * q_eval(sp, coeffs)
            assert spinor_norm(prod) == expect

    def test_hyperbolic_witness(self):
        # s*e*f + f*e has norm s: a unit with odd exponent, hence not a
        # square unit (the units s^k of the Laurent ring square to s^2k)
        sp = QuadSpace(4)
        dec = hyperbolic_decompose(sp)
        e_vec, f_vec = dec.pairs[0]
        alg = get_algebra(4)
        e, f = alg.vector(e_vec), alg.vector(f_vec)
        w = (e * f).scale(S) + f * e
        norm = spinor_norm(w)
        assert norm == S
        assert norm.is_monomial and norm.exponents()[0] % 2 == 1

    def test_not_scalar(self):
        alg = get_algebra(3)
        with pytest.raises(NotScalarError):
            spinor_norm(alg.u() + alg.v(1) * alg.v(2))

    def test_word_images_stay_normed(self):
        rep = PinRep(4)
        letters = rep.letters()
        rng = random.Random(42)
        for _ in range(50):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
            img = evaluate(word, rep)
            assert spinor_norm(img).is_one

    def test_even_words_land_even(self):
        rep = PinRep(4)
        rng = random.Random(1)
        y_letters = ["a", "A", "s1", "s2", "s3"]
        for _ in range(50):
            word = tuple(rng.choice(y_letters) for _ in range(rng.randint(0, 10)))
            assert evaluate(word, rep).is_even


class TestConjugationAction:
    def test_pi_of_u_is_transvection(self):
        sp = QuadSpace(3)
        alg = get_algebra(3)
        assert conjugation_matrix(alg.u()) == transvection(sp, sp.basis_vector(0))

    def test_pi_on_anisotropic_vectors(self):
        sp = QuadSpace(4)
        alg = get_algebra(4)
        rng = random.Random(13)
        from ytwo.errors import NonUnitNormError

        done = 0
        while done < 30:
            coeffs = tuple(rand_scalar(rng) for _ in range(5))
            try:
                r = transvection(sp, coeffs)
            except NonUnitNormError:
                continue
            done += 1
            assert conjugation_matrix(alg.vector(coeffs)) == r

    @pytest.mark.parametrize("ring", ["laurent", "qe"])
    def test_non_vector_rejected(self, ring):
        alg = get_algebra(4, ring)
        with pytest.raises(NotCliffordGroupError, match="0b11$"):
            (alg.u() * alg.v(1)).as_vector()

    def test_conjugation_rejects_non_vector_row(self, monkeypatch):
        # With the inverse replaced by 1, the row of v2 is v2 * u v1, whose
        # u v1 v2 component (0b111) is not a vector.
        alg = get_algebra(4)
        monkeypatch.setattr(clifford, "cl_inverse", lambda c: alg.one)
        with pytest.raises(NotCliffordGroupError, match="0b111$"):
            conjugation_matrix(alg.u() * alg.v(1))

    def test_zero_divisor_rejected(self):
        alg = get_algebra(3)
        with pytest.raises(NotUnitError):
            cl_inverse(alg.one + alg.u())

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_trivial_lifting_on_generators(self, m):
        phi = OrthoRep(QuadSpace(m))
        psi = PinRep(m)
        for letter in phi.letters():
            assert conjugation_matrix(psi.image(letter)) == phi.image(letter)

    def test_trivial_lifting_random_words(self):
        m = 4
        phi = OrthoRep(QuadSpace(m))
        psi = PinRep(m)
        letters = phi.letters()
        rng = random.Random(42)
        for _ in range(60):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 18)))
            assert conjugation_matrix(evaluate(word, psi)) == evaluate(word, phi)


class TestLemmaCommutation:
    def test_au_bv_exchange(self):
        # (a u + b v_i)(c u + d v_j) = (c u + d v_j)(a u + b v_i) + (ad+bc+bd)
        rng = random.Random(42)
        alg = get_algebra(4)
        u = alg.u()
        for _ in range(200):
            a, b, c, d = (rand_scalar(rng) for _ in range(4))
            i, j = rng.sample((1, 2, 3, 4), 2)
            x = u.scale(a) + alg.v(i).scale(b)
            y = u.scale(c) + alg.v(j).scale(d)
            corr = alg.scalar(a * d + b * c + b * d)
            assert x * y == y * x + corr


class TestPowerIdentities:
    def test_initial_values(self):
        seqs = power_sequences(2)
        assert (seqs[0].a, seqs[0].b) == (L_ONE, L_ZERO)
        assert (seqs[1].a, seqs[1].b) == (L_ZERO, L_ONE)
        assert (seqs[2].a, seqs[2].b) == (T_INV, L_ONE)

    def test_recurrence(self):
        seqs = power_sequences(30)
        for k in range(2, 31):
            assert seqs[k].a == seqs[k - 1].a + T_INV * seqs[k - 2].a
            assert seqs[k].b == seqs[k - 1].b + T_INV * seqs[k - 2].b

    def test_direct_powers_small(self):
        alg = get_algebra(3)
        u, v1 = alg.u(), alg.v(1)
        assert (u * v1) ** 2 == alg.scalar(T_INV) + u * v1

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 20])
    def test_check(self, k):
        seq = check_power_identities(k)
        assert seq.k == k


class TestCenter:
    def test_m4(self):
        rep = center_report(4)
        assert rep.radical_is_central
        assert rep.specialized_dim == 2

    def test_m3(self):
        rep = center_report(3)
        assert not rep.radical_is_central
        assert rep.specialized_dim == 1

    def test_m5_witness(self):
        rep = center_report(5)
        assert not rep.radical_is_central
        assert rep.witness == "u"
        alg = get_algebra(5)
        r, u = alg.radical_element(), alg.u()
        assert r * u + u * r == alg.one  # the nonzero commutator, explicitly

    def test_m6(self):
        rep = center_report(6)
        assert rep.radical_is_central
        assert rep.specialized_dim == 2

    @pytest.mark.parametrize("m, dim", [(7, 1), (8, 2)])
    def test_large_m(self, m, dim):
        assert center_report(m).specialized_dim == dim

    def test_symbolic_centrality_even(self):
        for m in (4, 6):
            alg = get_algebra(m)
            r = alg.radical_element()
            for i in range(m + 1):
                g = alg.gen(i)
                assert r * g == g * r

    @pytest.mark.parametrize("n", [5, 7, 9])
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_dim_matches_field_rank(self, m, n):
        # the field path as an oracle: each commutator [x_j, x] evaluated
        # at the order-n map into dense GF(2**d) rows, ranked by ff_rank
        emap = make_eval_map(n)
        alg = get_algebra(m)
        ncols = 1 << (m + 1)
        rows = {}
        for j in range(m + 1):
            g = alg.gen(j)
            for col in range(ncols):
                x = alg.from_terms({col: L_ONE})
                for mono, c in (g * x + x * g).terms.items():
                    row = rows.setdefault((j, mono), [0] * ncols)
                    row[col] ^= emap.apply(c).bits
        nullity = ncols - ff_rank(emap.field, list(rows.values()))
        assert center_report(m).specialized_dim == nullity

    def test_products_leave_pair_cache(self, monkeypatch):
        # products, transposes and center_report build no structure
        # constants; the algebra keeps one mask set per slot width, not
        # per pair, and the transpose cache one tuple per monomial
        for name in ("_MTG_CACHE", "_MTM_CACHE", "_TR_CACHE"):
            monkeypatch.setattr(clifford, name, {})
        alg = CliffordAlgebra(4)
        x = alg.u() + alg.v(2)
        x.transpose()
        assert alg._polybits_cache == {}
        x * x.transpose()
        assert list(alg._polybits_cache) == [clifford._slot_width(1, 1, 4)]
        center_report(4)
        assert clifford._MTG_CACHE == clifford._MTM_CACHE == {}
        assert clifford._TR_CACHE == {0b1: (0b1,), 0b100: (0b100,)}


class TestKernel:
    def test_m6_with_s(self):
        z = kernel_element(6, S)
        assert not z.is_identity
        assert spinor_norm(z).is_one
        assert conjugation_matrix(z).is_identity

    def test_m4_with_one(self):
        z = kernel_element(4, L_ONE)
        assert not z.is_identity
        # 1 + (1 + r) form: constant term is 1 + 1 + ... only r-part remains
        assert spinor_norm(z).is_one

    def test_m6_non_injectivity_witness(self):
        z = kernel_element(6, L_ONE)
        assert not z.is_identity and conjugation_matrix(z).is_identity

    def test_lam_zero(self):
        assert kernel_element(6, L_ZERO).is_identity

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            kernel_element(5, L_ONE)

    def test_pin_membership(self):
        # q(r) = 0 for m = 2 mod 4 makes 1 + lam r normed for every lam
        for lam in (L_ONE, S, s_pow(-3), L_ONE + S):
            assert spinor_norm(kernel_element(6, lam)).is_one


class TestSerialization:
    def test_terms_sorted_by_mask(self):
        alg = get_algebra(3)
        el = alg.u() * alg.v(1) + alg.one.scale(s_pow(2))
        data = el.to_json()
        assert data == [[0, [2]], [3, [0]]]

    def test_zero(self):
        assert get_algebra(3).zero.to_json() == []


class TestPsiRelators:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_ytilde(self, m):
        assert relator_failures(schedule(m, 5, "y-tilde"), PinRep(m)) == []

    def test_braid_cube(self):
        rep = PinRep(4)
        for i in (1, 2):
            w = rep.image(f"S{i}") * rep.image(f"S{i+1}")
            assert (w ** 3).is_identity
