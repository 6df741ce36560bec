import random

import pytest

from ytwo.errors import (
    EvenNError,
    FieldTooLargeError,
    NotUnitError,
    ZeroInputError,
)
from ytwo import rings
from ytwo.rings import (
    ALPHA,
    ALPHA_INV,
    FiniteField,
    L_ONE,
    L_ZERO,
    LaurentScalar,
    QE_ONE,
    QEScalar,
    S,
    S_INV,
    T,
    T_INV,
    cyclotomic_split,
    ff_rank,
    field_degree,
    find_irreducible,
    gf2_rank,
    make_eval_map,
    s_pow,
)

from oracles import (
    RefField,
    ref_factor_degrees,
    ref_lp,
    ref_lp_mul,
    ref_qe,
    ref_qe_mul,
    ref_xn_plus_1_over_x_plus_1,
)


def to_ref(x):
    return ref_lp(x.exponents())


def from_ref(exps):
    return LaurentScalar.from_exponents(exps)


def rand_scalar(rng, span=8, terms=5):
    return from_ref(rng.sample(range(-span, span + 1), rng.randint(0, terms)))


class TestLaurent:
    def test_mul_examples(self):
        assert S * S_INV == L_ONE
        assert (L_ONE + S) * (L_ONE + S) == L_ONE + s_pow(2)
        # hand expansion: (s^-1 + s) * s = 1 + s^2
        assert (S_INV + S) * S == L_ONE + s_pow(2)

    def test_mul_against_oracle(self):
        rng = random.Random(42)
        for _ in range(300):
            x, y = rand_scalar(rng), rand_scalar(rng)
            assert to_ref(x * y) == ref_lp_mul(to_ref(x), to_ref(y))
            assert to_ref(x + y) == ref_lp(set(to_ref(x)) ^ set(to_ref(y)))

    def test_char_two_and_frobenius(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y = rand_scalar(rng), rand_scalar(rng)
            assert x + x == L_ZERO
            assert (x + y) * (x + y) == x * x + y * y

    def test_ring_laws(self):
        rng = random.Random(31)
        for _ in range(200):
            x, y, z = (rand_scalar(rng) for _ in range(3))
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert (x + y) * z == x * z + y * z

    def test_invert(self):
        assert s_pow(3).inverse() == s_pow(-3)
        assert L_ONE.inverse() == L_ONE
        with pytest.raises(NotUnitError):
            (L_ONE + S).inverse()
        with pytest.raises(ZeroInputError):
            L_ZERO.inverse()

    def test_invert_round_trip(self):
        for k in range(-50, 51):
            x = s_pow(k)
            assert x * x.inverse() == L_ONE
            assert x.inverse().inverse() == x

    def test_t_subring(self):
        assert T == s_pow(2) and T_INV == s_pow(-2)
        assert (T + T_INV).in_t_subring()
        assert not (T + S).in_t_subring()
        assert (L_ONE + T).in_t_polynomial()
        assert not T_INV.in_t_polynomial()
        assert not S.in_t_polynomial()

    def test_t_subring_closed_under_mul(self):
        rng = random.Random(11)
        for _ in range(100):
            x = from_ref(2 * e for e in range(-4, 5) if rng.random() < 0.4)
            y = from_ref(2 * e for e in range(-4, 5) if rng.random() < 0.4)
            assert (x * y).in_t_subring()

    def test_canonical_forms(self):
        assert LaurentScalar.from_exponents([3, 3]) == L_ZERO
        assert LaurentScalar.from_exponents([2, 5, 2]) == s_pow(5)
        assert hash(from_ref([0, 2])) == hash(L_ONE + T)

    def test_pow(self):
        x = L_ONE + S
        assert x ** 0 == L_ONE
        assert x ** 3 == x * x * x
        assert s_pow(2) ** -3 == s_pow(-6)

    def test_serialization(self):
        assert (S_INV + L_ONE + s_pow(4)).to_json() == [-1, 0, 4]
        assert L_ZERO.to_json() == []


class TestQE:
    def test_alpha_square(self):
        # reduction by the minimal polynomial x^2 + s x + 1
        assert ALPHA * ALPHA == QE_ONE + QEScalar(L_ZERO, S)

    def test_alpha_unit(self):
        assert ALPHA * (QEScalar(S) + ALPHA) == QE_ONE
        assert ALPHA * ALPHA_INV == QE_ONE

    def test_frobenius_square(self):
        assert (QE_ONE + ALPHA) ** 2 == QEScalar(L_ZERO, S)

    def test_mul_against_oracle(self):
        rng = random.Random(5)
        for _ in range(200):
            x = QEScalar(rand_scalar(rng, 4, 3), rand_scalar(rng, 4, 3))
            y = QEScalar(rand_scalar(rng, 4, 3), rand_scalar(rng, 4, 3))
            got = x * y
            want = ref_qe_mul(
                ref_qe(x.c0.exponents(), x.c1.exponents()),
                ref_qe(y.c0.exponents(), y.c1.exponents()),
            )
            assert to_ref(got.c0) == want[0] and to_ref(got.c1) == want[1]

    def test_norm_multiplicative(self):
        rng = random.Random(42)
        for _ in range(1000):
            x = QEScalar(rand_scalar(rng, 3, 3), rand_scalar(rng, 3, 3))
            y = QEScalar(rand_scalar(rng, 3, 3), rand_scalar(rng, 3, 3))
            assert (x * y).norm() == x.norm() * y.norm()

    def test_norm_formula(self):
        rng = random.Random(9)
        for _ in range(100):
            c0, c1 = rand_scalar(rng, 3, 3), rand_scalar(rng, 3, 3)
            assert QEScalar(c0, c1).norm() == c0 * c0 + c0 * c1 * S + c1 * c1

    def test_inverse(self):
        x = ALPHA * QEScalar(s_pow(3))
        assert x * x.inverse() == QE_ONE
        with pytest.raises(NotUnitError):
            QEScalar(L_ONE + S).inverse()

    def test_laurent_part(self):
        assert QEScalar(T).laurent_part() == T
        with pytest.raises(ValueError):
            ALPHA.laurent_part()


class TestFiniteField:
    def test_default_moduli(self):
        assert find_irreducible(2) == 0b111
        assert find_irreducible(3) == 0b1011
        assert find_irreducible(4) == 0b10011

    def test_arithmetic_against_oracle(self):
        field = FiniteField(4)
        ref = RefField(field.modulus)
        rng = random.Random(3)
        for _ in range(300):
            a, b = rng.randrange(16), rng.randrange(16)
            got = field.element(a) * field.element(b)
            assert got.bits == ref.mul(a, b)

    def test_pow_and_order(self):
        field = FiniteField(4)
        x = field.element(2)
        ref = RefField(field.modulus)
        assert x.order() == 15
        for k in range(-5, 20):
            assert (x ** k).bits == ref.pow(2, k % 15)

    def test_serialization_little_endian(self):
        field = FiniteField(4)
        assert field.element(0b0111).to_json() == "1110"

    def test_element_reduces(self):
        # bits past x**(d-1) are reduced by the modulus, not cut off:
        # in GF(16) x**4 + x + 1 is 0 and x**4 is x + 1
        for d in (1, 2, 4, 8):
            field = FiniteField(d)
            assert field.element(field.modulus) == field.zero
            assert field.element(1 << d) == field.element(field.modulus ^ (1 << d))
            for bits in (0, 1, field.order - 1, field.order // 2):
                assert field.element(bits).bits == bits
        assert FiniteField(4).element(0b10011).bits == 0
        assert FiniteField(4).element(0b10000).bits == 0b0011


class TestEvalMap:
    def test_n5_defaults(self):
        emap = make_eval_map(5)
        ref = RefField(emap.field.modulus)
        # zeta = x^3, found by oracle exponentiation from the primitive x
        assert ref.order(2) == 15
        assert emap.zeta.bits == ref.pow(2, 3)
        # s lands in the GF(4) subfield: s^3 = 1
        assert (emap.s_image ** 3).is_one
        assert emap.s_image.bits == 0b111
        # t = s^2 image, straight from oracle arithmetic
        t_image = emap.s_image * emap.s_image
        assert t_image.bits == ref.mul(0b111, 0b111)
        assert t_image.bits == 0b110

    def test_n7(self):
        emap = make_eval_map(7)
        assert emap.field.degree == 3 and emap.field.modulus == 0b1011
        assert emap.zeta.order() == 7

    def test_one_field_per_degree(self):
        # n = 5 and 15 both need GF(16): their maps share one field object
        five, fifteen = make_eval_map(5), make_eval_map(15)
        assert five is not fifteen and five.field is fifteen.field
        assert make_eval_map(7).field is not five.field

    def test_even_n_rejected(self):
        with pytest.raises(EvenNError):
            make_eval_map(6)
        with pytest.raises(EvenNError):
            cyclotomic_split(8)

    def test_alpha_relation(self):
        for n in (5, 7, 9, 11):
            emap = make_eval_map(n)
            z = emap.zeta
            assert z * z + emap.s_image * z + emap.field.one == emap.field.zero

    def test_homomorphism_random(self):
        emap = make_eval_map(5)
        rng = random.Random(42)
        for _ in range(1000):
            x, y = rand_scalar(rng, 5, 4), rand_scalar(rng, 5, 4)
            assert emap.apply(x * y) == emap.apply(x) * emap.apply(y)
            assert emap.apply(x + y) == emap.apply(x) + emap.apply(y)
        assert emap.apply(L_ONE).is_one

    def test_homomorphism_qe(self):
        emap = make_eval_map(7)
        rng = random.Random(17)
        for _ in range(300):
            x = QEScalar(rand_scalar(rng, 4, 3), rand_scalar(rng, 4, 3))
            y = QEScalar(rand_scalar(rng, 4, 3), rand_scalar(rng, 4, 3))
            assert emap.apply(x * y) == emap.apply(x) * emap.apply(y)
        assert emap.apply(ALPHA) == emap.zeta

    def test_eval_t(self):
        emap = make_eval_map(5)
        assert emap.field.modulus == 0b10011
        # (zeta + 1/zeta)^2 with zeta = x^3, by oracle field arithmetic
        ref = RefField(0b10011)
        z = ref.pow(2, 3)
        zinv = ref.pow(2, 12)
        s = z ^ zinv
        assert emap.apply(T).bits == ref.mul(s, s)
        assert emap.apply(T).bits == 0b0110


class TestCyclotomicSplit:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15, 17, 21])
    def test_against_factorization_oracle(self, n):
        assert cyclotomic_split(n) == ref_factor_degrees(
            ref_xn_plus_1_over_x_plus_1(n)
        )

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15, 17, 21, 33])
    def test_degree_sum(self, n):
        assert sum(cyclotomic_split(n)) == n - 1

    def test_known_values(self):
        assert cyclotomic_split(5) == [4]
        assert cyclotomic_split(7) == [3, 3]
        assert cyclotomic_split(9) == [2, 6]


class TestPackedRank:
    def test_gf2_rank(self):
        assert gf2_rank([0b110, 0b011, 0b101]) == 2
        assert gf2_rank([]) == 0
        assert gf2_rank([0b1, 0b10, 0b100]) == 3

    def test_ff_rank_identity(self):
        field = FiniteField(4)
        rows = [
            [field.one.bits if i == j else field.zero.bits for j in range(3)]
            for i in range(3)
        ]
        assert ff_rank(field, rows) == 3

    def test_ff_rank_dependent(self):
        field = FiniteField(4)
        a = [field.element(3), field.element(7), field.element(1)]
        b = [field.element(5) * x for x in a]
        c = [x + y for x, y in zip(a, b)]
        assert ff_rank(field, [[x.bits for x in r] for r in (a, b, c)]) == 1

    def test_ff_rank_random_vs_gf2_subfield(self):
        # entries in {0,1}: rank over the big field equals GF(2) rank
        field = FiniteField(3)
        rng = random.Random(23)
        for _ in range(50):
            rows_bits = [rng.getrandbits(6) for _ in range(5)]
            rows = [
                [field.one.bits if (r >> j) & 1 else field.zero.bits for j in range(6)]
                for r in rows_bits
            ]
            assert ff_rank(field, rows) == gf2_rank(rows_bits)


class TestFieldDegreeGuard:
    def test_degree_is_order_of_two(self):
        cases = ((3, 2), (5, 4), (7, 3), (9, 6), (17, 8), (41, 20), (29, 28), (61, 60))
        for n, d in cases:
            assert field_degree(n) == d
        with pytest.raises(EvenNError):
            field_degree(4)

    def test_rejected_before_allocation(self, monkeypatch):
        """n = 67 needs GF(2**66), and n = 2**20 + 1 (degree 40) is above the
        largest order: refused before the modulus search or the factoring of
        2**d - 1, both replaced here by a function that must not run."""

        def forbidden(*args):
            raise AssertionError("field construction started")

        monkeypatch.setattr(rings, "find_irreducible", forbidden)
        monkeypatch.setattr(rings, "prime_factors", forbidden)
        for n in (67, (1 << 20) + 1):
            with pytest.raises(FieldTooLargeError):
                field_degree(n)
            with pytest.raises(FieldTooLargeError):
                make_eval_map(n)
        with pytest.raises(FieldTooLargeError):
            FiniteField(66)
        with pytest.raises(FieldTooLargeError):
            FiniteField(61)
