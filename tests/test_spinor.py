import pytest

from ytwo.clifford import PinRep, get_algebra
from ytwo.errors import InconclusiveError, MismatchError
from ytwo.presentation import relator_failures, s_letter, schedule
from ytwo.quadspace import RMatrix
from ytwo.rings import (
    ALPHA,
    ALPHA_INV,
    QE_ONE,
    QE_ZERO,
    QEScalar,
    S,
    S_INV,
    make_eval_map,
)
from ytwo.spinor import (
    SpinorRep,
    check_action,
    check_extended_action,
    full_rank_at,
    independence_certificate,
    seed_vector,
    spinor_basis,
)

from oracles import RefField, ref_ff_det


class TestSeedVector:
    def test_components(self):
        w = seed_vector(3)
        assert w.terms[0] == QEScalar(S_INV) + ALPHA
        assert w.terms[0b011] == ALPHA
        assert w.terms[0b101] == ALPHA_INV
        assert w.terms[0b110] == QEScalar(S)
        assert set(w.terms) == {0, 0b011, 0b101, 0b110}

    def test_eigen_equations(self):
        # seed_vector verifies all three internally; re-check one directly
        w = seed_vector(4)
        pin = PinRep(4, "qe")
        assert w * pin.image("a") == w.scale(ALPHA)
        assert w * pin.image("s1") == w

    def test_even_part_of_small_subalgebra(self):
        w = seed_vector(3)
        assert w.is_even
        assert all(mono < 8 for mono in w.terms)


class TestBasis:
    def test_m3(self):
        b = spinor_basis(3)
        assert b.words == ((), (2,))
        w = seed_vector(3)
        pin = PinRep(3, "qe")
        assert b.elements == (w, w * pin.image(s_letter(2)))

    def test_m4_stage_order(self):
        b = spinor_basis(4)
        assert b.words == ((), (3,), (2,), (3, 2))

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
    def test_size(self, m):
        assert len(spinor_basis(m)) == 1 << (m - 2)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            spinor_basis(2)
        with pytest.raises(ValueError):
            spinor_basis(9)


class TestIndependence:
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_stage_basis_independent(self, m):
        assert independence_certificate(spinor_basis(m)) is True

    def test_repeated_vector(self):
        w = seed_vector(3)
        for n in (5, 7, 11):
            assert not full_rank_at([w, w], make_eval_map(n))
        with pytest.raises(InconclusiveError) as err:
            independence_certificate([w, w])
        assert err.value.tried == (5, 7, 11)

    def test_single_vector(self):
        assert independence_certificate([seed_vector(3)]) is True


class TestActionMatrices:
    def test_m3_display(self):
        eta = SpinorRep(3)
        assert eta.image("a").rows == (
            (ALPHA, QE_ZERO),
            (QE_ZERO, ALPHA_INV),
        )
        assert eta.image("s1").rows == ((QE_ONE, QE_ZERO), (QE_ONE, QE_ONE))
        assert eta.image("s2").rows == ((QE_ZERO, QE_ONE), (QE_ONE, QE_ZERO))

    def test_m4_s2_antidiagonal_blocks(self):
        eta = SpinorRep(4)
        rows = eta.image("s2").rows
        for i in range(2):
            for j in range(4):
                assert rows[i][j] == (QE_ONE if j == i + 2 else QE_ZERO)
                assert rows[i + 2][j] == (QE_ONE if j == i else QE_ZERO)

    def test_a_inverse(self):
        for m in (3, 4, 5):
            eta = SpinorRep(m)
            assert (eta.image("a") * eta.image("A")).is_identity

    @pytest.mark.parametrize("n", [5, 7])
    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_generators_land_in_sl(self, m, n):
        # every generator image, specialized at alpha -> zeta of order n,
        # has determinant 1 over GF(2**d)
        emap = make_eval_map(n)
        field = RefField(emap.field.modulus)
        zeta = emap.zeta.bits
        assert ref_ff_det(field, [[zeta, 0], [1, 1]]) == zeta != 1
        eta = SpinorRep(m)
        for letter in eta.letters():
            img = eta.image(letter)
            rows = [[emap.apply(x).bits for x in row] for row in img.rows]
            assert ref_ff_det(field, rows) == 1, letter

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_relators(self, m):
        assert relator_failures(schedule(m, 5, "y"), SpinorRep(m)) == []

    def test_parity_rule(self):
        # diagonal a-image entries are alpha or 1/alpha exactly by the
        # parity of the basis word length
        for m in (3, 4, 5, 6):
            eta = SpinorRep(m)
            words = spinor_basis(m).words
            a = eta.image("a")
            for i, word in enumerate(words):
                expect = ALPHA if len(word) % 2 == 0 else ALPHA_INV
                assert a.rows[i][i] == expect
                assert all(j == i or not x for j, x in enumerate(a.rows[i]))


class TestActionOnModule:
    def test_m3_row_identities(self):
        # ws2 under s2 returns to w; ws2 under s1 is w + ws2
        basis = spinor_basis(3)
        pin = PinRep(3, "qe")
        w, ws2 = basis.elements
        assert ws2 * pin.image("s2") == w
        assert ws2 * pin.image("s1") == w + ws2

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_full_action(self, m):
        report = check_action(m)
        assert report["rows"] == 1 << (m - 2)

    def test_planted_wrong_row_is_witnessed(self, monkeypatch):
        # one flipped entry in row 2 of the s2 matrix: a and s1 pass, and
        # both checks stop at (s2, 2)
        letter, row = s_letter(2), 2
        true_image = SpinorRep.image

        def planted(self, name):
            mat = true_image(self, name)
            if name != letter:
                return mat
            rows = [list(r) for r in mat.rows]
            rows[row][0] = QE_ONE if rows[row][0] == QE_ZERO else QE_ZERO
            return RMatrix(rows)

        monkeypatch.setattr(SpinorRep, "image", planted)
        with pytest.raises(MismatchError, match="^action .* s2 on basis row 2") as err:
            check_action(4)
        assert err.value.witness == (letter, row)
        with pytest.raises(MismatchError, match="^extended .* s2 on row 2") as err:
            check_extended_action(4)
        assert err.value.witness == (letter, row)

    def test_module_invariance(self):
        # the a-image keeps W invariant: implied by check_action, shown
        # here directly on a single element
        basis = spinor_basis(4)
        pin = PinRep(4, "qe")
        eta = SpinorRep(4)
        x = basis.elements[3]
        img = x * pin.image("a")
        row = eta.image("a").rows[3]
        acc = get_algebra(4, "qe").zero
        for c, y in zip(row, basis.elements):
            acc = acc + y.scale(c)
        assert img == acc


class TestSLetterIdentities:
    def test_adjacent(self):
        alg = get_algebra(5, "qe")
        pin = PinRep(5, "qe")
        for i in (1, 2, 3):
            si = pin.image(s_letter(i))
            sj = pin.image(s_letter(i + 1))
            assert si * sj == sj * si + alg.one

    def test_distant_commute(self):
        pin = PinRep(5, "qe")
        for i, j in ((1, 3), (1, 4), (2, 4)):
            si, sj = pin.image(s_letter(i)), pin.image(s_letter(j))
            assert si * sj == sj * si

    def test_involutions(self):
        pin = PinRep(4, "qe")
        alg = get_algebra(4, "qe")
        for i in (1, 2, 3):
            s = pin.image(s_letter(i))
            assert s * s == alg.one


class TestExtended:
    def test_m3_blocks(self):
        report = check_extended_action(3)
        assert report["rows"] == 4

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_extended(self, m):
        report = check_extended_action(m)
        assert report["rows"] == 1 << (m - 1)

    def test_u_translate_independence(self):
        basis = spinor_basis(3)
        pin = PinRep(3, "qe")
        u = pin.image("t")
        doubled = list(basis.elements) + [x * u for x in basis.elements]
        assert independence_certificate(doubled) is True
