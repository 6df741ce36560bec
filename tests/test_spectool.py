import copy
import json
import random
from functools import reduce

import pytest

from ytwo import spectool
from ytwo.cli import run
from ytwo.errors import CapExceededError
from ytwo.presentation import s_letter, st_letter
from ytwo.quadspace import QuadSpace, transvection
from ytwo.rings import FiniteField, make_eval_map
from ytwo.spectool import (
    EXPECTED_ORDERS,
    augmentation_components,
    dickson,
    eta_component_matrices,
    group_order_bfs,
    group_order_bfs_tuples,
    matrix_order,
    pack_matrix,
    specialize,
    small_cases_check,
    unpack_matrix,
)

from oracles import factorial, order_omega_minus_6, order_sl2, order_sp4


class TestSpecialize:
    def test_phi_a_order(self):
        rep = specialize(3, 5, "phi")
        assert matrix_order(rep.image("a"), 5) == 5

    def test_eta_a_order(self):
        rep = specialize(3, 5, "eta")
        assert matrix_order(rep.image("a"), 5) == 5
        # diag(zeta, 1/zeta) exactly
        z = rep.map.zeta
        assert rep.image("a").rows == ((z, rep.field.zero), (rep.field.zero, z ** -1))

    def test_entries_in_t_subfield(self):
        # (3, 5): matrix entries are polynomials in t, so they live in
        # the subfield generated by eval(t), which is GF(4) inside GF(16)
        rep = specialize(3, 5, "phi")
        t_img = rep.map.t_image
        subfield = {rep.field.zero, rep.field.one}
        x = t_img
        while x not in subfield:
            subfield.add(x)
            x = x * t_img
        assert len(subfield) == 4
        for letter in rep.letters():
            for row in rep.image(letter).rows:
                for entry in row:
                    assert entry in subfield

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            specialize(3, 5, "zeta")

    def test_b_matrix_orders(self):
        for m, n in ((3, 5), (3, 7), (4, 5)):
            rep = specialize(m, n, "phi")
            for mat in rep.b_matrices:
                assert matrix_order(mat, n) == n

    def test_order_is_a_divisor_of_n(self):
        # a**3 at n = 9 has order 3: both prime factors 3 are divided out
        # only as far as the identity holds
        rep = specialize(3, 9, "phi")
        a = rep.image("a")
        assert matrix_order(a, 9) == 9
        assert matrix_order(a**3, 9) == 3
        assert matrix_order(a**9, 9) == 1
        assert matrix_order(a, 3) is None  # a**3 is not the identity


class TestPacking:
    def test_round_trip(self):
        field = FiniteField(4)
        rng = random.Random(42)
        for _ in range(20):
            rows = [
                [field.element(rng.randrange(16)) for _ in range(3)]
                for _ in range(3)
            ]
            from ytwo.quadspace import RMatrix

            mat = RMatrix(rows)
            assert unpack_matrix(pack_matrix(mat), 3, field) == mat

    def test_distinct(self):
        rep = specialize(3, 5, "phi")
        mats = [rep.image(x) for x in rep.letters()]
        packed = {pack_matrix(m) for m in mats}
        assert len(packed) == len(set(mats))


class TestPackedStepper:
    @pytest.mark.parametrize(
        "m,n,kind",
        [
            (3, 5, "phi"),
            (3, 7, "phi"),
            (4, 5, "phi"),
            (6, 5, "phi"),
            (3, 7, "eta"),
            (3, 9, "eta"),
        ],
        ids=["3-5", "3-7", "4-5", "6-5", "eta-3-7", "eta-3-9"],
    )
    def test_stepper_matches_matrix_product(self, m, n, kind):
        # a state packs one matrix per component (two for eta at (3,7) and
        # (3,9)) and one block schedule steps a whole list of them; (6,5)
        # is 7x7 over GF(16): a 4-row block whose last chunk is 4 bits,
        # then a 3-row block; (3,9) is one block across GF(4) and GF(64)
        from ytwo.quadspace import RMatrix
        from ytwo.spectool import _apply, _compile_generator

        if kind == "phi":
            rep = specialize(m, n, "phi")
            pool = [(rep.image(x),) for x in rep.letters()]
            gens = [(rep.image("a"),), (rep.image("S1"),)]
        else:
            pool = gens = eta_component_matrices(m, n)
        fields = [mat.zero.field for mat in pool[0]]
        ident = tuple(
            RMatrix.identity(mat.size, f.one, f.zero)
            for mat, f in zip(pool[0], fields)
        )
        offsets = [0]
        for mat, f in zip(pool[0], fields):
            offsets.append(offsets[-1] + mat.size**2 * f.degree)

        def pack(tup):
            return sum(pack_matrix(x) << off for x, off in zip(tup, offsets))

        def times(xs, ys):
            return tuple(x * y for x, y in zip(xs, ys))

        rng = random.Random(42)
        for gen in gens:
            blocks = _compile_generator(gen)
            states = []
            for _ in range(25):
                word = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
                states.append(reduce(times, word, ident))
            assert _apply(blocks, [pack(x) for x in states]) == [
                pack(times(x, gen)) for x in states
            ]

    def test_block_tables_bounded_and_shared(self):
        # the table memory bound: no block is wider than _BLOCK_BITS, and
        # blocks share one table list exactly when their bit images agree
        from ytwo.spectool import _BLOCK_BITS, _compile_generator

        def check(gen, state_bits):
            blocks = _compile_generator(gen)
            widths = [sum(len(t).bit_length() - 1 for t in ts) for _, ts in blocks]
            shifts = [sum(widths[:i]) for i in range(len(blocks))]
            assert [s for s, _ in blocks] == shifts
            assert sum(widths) == state_bits
            assert max(widths) <= _BLOCK_BITS
            images = [
                [t[1 << k] for t in ts for k in range(len(t).bit_length() - 1)]
                for _, ts in blocks
            ]
            for (_, ts1), im1 in zip(blocks, images):
                for (_, ts2), im2 in zip(blocks, images):
                    assert (ts1 is ts2) == (im1 == im2)
            return len({id(ts) for _, ts in blocks})

        rep = specialize(6, 5, "phi")
        for mat in rep.b_matrices:
            assert check((mat,), 7 * 7 * 4) == 2
            # 14 rows of 28 bits: blocks of rows 0-3, 4-7 (across the
            # component boundary) and 8-11 share one list, rows 12-13 another
            assert len(_compile_generator((mat, mat))) == 4
            assert check((mat, mat), 2 * 7 * 7 * 4) == 2

    def test_chunk_tables_are_xors_of_images(self):
        # entry v of chunk table c is the XOR of the images of v's set
        # bits in chunk c, the narrower last table included
        from ytwo.spectool import _CHUNK_BITS, _chunk_tables

        rng = random.Random(5)
        images = [rng.getrandbits(64) for _ in range(2 * _CHUNK_BITS + 5)]
        tables = _chunk_tables(images)
        assert [len(t) for t in tables] == [1 << _CHUNK_BITS] * 2 + [1 << 5]
        for c, table in enumerate(tables):
            part = images[c * _CHUNK_BITS : (c + 1) * _CHUNK_BITS]
            for v, entry in enumerate(table):
                want = 0
                for k, img in enumerate(part):
                    if v >> k & 1:
                        want ^= img
                assert entry == want


class TestBFS:
    def test_empty(self):
        assert group_order_bfs([]) == 1

    def test_symmetric_group_on_swaps(self):
        rep = specialize(3, 5, "phi")
        gens = [rep.image(st_letter(1)), rep.image(st_letter(2))]
        assert group_order_bfs(gens) == factorial(3)

    def test_sl2_16(self):
        rep = specialize(3, 5, "phi")
        assert group_order_bfs(rep.b_matrices) == order_sl2(16)

    def test_generator_order_independent(self):
        rep = specialize(3, 5, "phi")
        gens = list(rep.b_matrices)
        a = group_order_bfs(gens)
        b = group_order_bfs(list(reversed(gens)))
        assert a == b

    def test_cap(self):
        rep = specialize(3, 5, "phi")
        with pytest.raises(CapExceededError) as err:
            group_order_bfs(rep.b_matrices, cap=100)
        # <b1, b2> has order 80, and its first new coset would reach 160 >
        # 100; the cap is checked before the coset is built, and the coset
        # is new, so 160 is a lower bound on the order
        assert err.value.count == 160

    def test_byte_budget(self, monkeypatch):
        # a (3,7) phi state packs 48 bits: a 32-byte int, 112 bytes stored
        monkeypatch.setattr(spectool, "_BYTE_BUDGET", 100_000)
        rep = specialize(3, 7, "phi")
        with pytest.raises(CapExceededError, match="budget of 100000 bytes") as err:
            group_order_bfs(rep.b_matrices)
        # checked before each coset is built: <b1, b2> has order 448, and
        # its first new coset would reach 896 > 100_000 // 112 = 892 states
        assert err.value.count == 448
        # below the cap, a budget stop is a skip, not a disproved order
        report = small_cases_check(3, 7, force=True)
        assert report.enumeration == "cap"
        assert report.checks[-1] == ("group_order", None, None, None, str(err.value))
        assert run(["specialize", "--m", "3", "--n", "7", "--enumerate"]) == 3

    def test_singular_generator_rejected(self):
        from ytwo.quadspace import RMatrix

        field = FiniteField(4)
        singular = RMatrix([[field.one, field.one], [field.one, field.one]])
        with pytest.raises(ValueError):
            group_order_bfs([singular])

    def test_singular_component_rejected(self):
        from ytwo.quadspace import RMatrix

        field = FiniteField(4)
        singular = RMatrix([[field.one, field.one], [field.one, field.one]])
        ident = RMatrix.identity(2, field.one, field.zero)
        for tup in ((singular, ident), (ident, singular)):
            with pytest.raises(ValueError, match="singular"):
                group_order_bfs_tuples([(ident, ident), tup])

    def test_mismatched_generators_rejected(self):
        eta5 = specialize(3, 5, "eta").b_matrices  # 2x2 over GF(16)
        eta7 = specialize(3, 7, "eta").b_matrices  # 2x2 over GF(8)
        phi5 = specialize(3, 5, "phi").b_matrices  # 4x4 over GF(16)
        phi7 = specialize(3, 7, "phi").b_matrices  # 4x4 over GF(8)
        for gens in (
            [eta5[0], eta7[1]],
            [phi7[0], phi5[1]],
            [phi7[0], eta7[0], phi7[1]],
        ):
            with pytest.raises(ValueError, match="component 0"):
                group_order_bfs(gens)
        with pytest.raises(ValueError, match="component 1"):
            group_order_bfs_tuples([(phi5[0], eta5[0]), (phi5[1], eta7[0])])

    def test_tuples_single_component(self):
        rep = specialize(3, 5, "phi")
        tuples = [(mat,) for mat in rep.b_matrices]
        assert group_order_bfs_tuples(tuples) == order_sl2(16)

    def test_eta_single_map_sees_one_factor(self):
        # one evaluation of the 2x2 representation generates one SL2(8)
        # factor; the full augmentation ring at n=7 has two
        rep = specialize(3, 7, "eta")
        assert group_order_bfs(rep.b_matrices) == order_sl2(8)
        tuples = eta_component_matrices(3, 7)
        assert len(tuples[0]) == 2
        assert group_order_bfs_tuples(tuples) == order_sl2(8) ** 2


class TestAugmentationComponents:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
    def test_degrees_match_split(self, n):
        from ytwo.rings import cyclotomic_split

        comps = augmentation_components(n)
        assert sorted(c.field.degree for c in comps) == cyclotomic_split(n)

    def test_n7_roots_inequivalent(self):
        comps = augmentation_components(7)
        z1, z2 = comps[0].zeta, comps[1].zeta
        # distinct cyclotomic cosets: z2 is not a Frobenius conjugate of z1
        conjugates = {z1.bits, (z1 ** 2).bits, (z1 ** 4).bits}
        assert z2.bits not in conjugates


class TestDickson:
    def test_transvection_is_one(self):
        sp = QuadSpace(3)
        emap = make_eval_map(5)
        r_u = transvection(sp, sp.basis_vector(0)).map_entries(emap.apply)
        assert dickson(r_u) == 1

    def test_identity_is_zero(self):
        rep = specialize(3, 5, "phi")
        assert dickson(rep.identity) == 0

    def test_product_parity(self):
        rep = specialize(3, 5, "phi")
        assert dickson(rep.image("a")) == 0  # r_u r_v1

    def test_even_m_guard(self):
        rep = specialize(4, 5, "phi")
        assert dickson(rep.image("a")) in (0, 1)

    def test_even_products_random(self):
        sp = QuadSpace(3)
        emap = make_eval_map(5)
        rng = random.Random(42)
        from ytwo.errors import NonUnitNormError

        axes = []
        while len(axes) < 12:
            coeffs = tuple(
                rng.choice(
                    [
                        sp.zero,
                        sp.one,
                        sp.one + QuadSpace(3).q_values[1],
                    ]
                )
                for _ in range(4)
            )
            try:
                axes.append(transvection(sp, coeffs).map_entries(emap.apply))
            except NonUnitNormError:
                continue
        for _ in range(50):
            count = rng.choice((2, 4, 6))
            mat = axes[rng.randrange(len(axes))]
            for _ in range(count - 1):
                mat = mat * axes[rng.randrange(len(axes))]
            assert dickson(mat) == 0


class TestExpectedOrders:
    def test_formula_oracle(self):
        assert EXPECTED_ORDERS[(3, 5)] == order_sl2(16)
        assert EXPECTED_ORDERS[(3, 7)] == order_sl2(8) ** 2
        assert EXPECTED_ORDERS[(4, 5)] == order_sp4(4)
        assert EXPECTED_ORDERS[(5, 5)] == order_omega_minus_6(4)
        assert EXPECTED_ORDERS[(6, 5)] == 4 ** 6 * order_omega_minus_6(4)
        assert EXPECTED_ORDERS[(4, 7)] == order_sp4(8)
        assert EXPECTED_ORDERS[(3, 11)] == order_sl2(32 ** 2)


class TestSmallCases:
    def test_3_5(self):
        rep = small_cases_check(3, 5)
        assert rep.status == "pass"
        assert rep.order_phi == 4080 and rep.order_eta == 4080
        assert rep.a_order_phi == 5 and rep.a_order_eta == 5
        assert rep.radical_rank == 0
        assert rep.q_radical is None
        assert all(v == 0 for v in rep.dickson_values.values())

    def test_6_5_structural(self):
        rep = small_cases_check(6, 5)
        assert rep.enumeration == "skip"
        assert rep.status == "skip"
        assert rep.radical_rank == 1
        assert rep.q_radical == 0
        assert rep.failures == []

    def test_planted_a_image_fails_its_check(self, monkeypatch):
        # an s-letter image in place of a's: its n-th power is not the
        # identity, so both order checks fail and nothing is raised
        monkeypatch.setattr(spectool, "A", s_letter(1))
        rep = small_cases_check(3, 5)
        assert rep.a_order_phi is None and rep.a_order_eta is None
        assert rep.failures == ["a_order_phi", "a_order_eta"]
        checks = {c[0]: c for c in rep.checks}
        assert checks["a_order_phi"][1:4] == (False, "5", "None")

    def test_4_5_structure_only_quick(self):
        rep = small_cases_check(4, 5, cap=1000)  # below the order: no closure
        assert rep.radical_rank == 1 and rep.q_radical == 1
        assert rep.a_order_phi == 5
        assert rep.aug_degrees == (4,)

    @pytest.mark.parametrize("m, detail", [(3, None), (4, "caveat: degenerate form")])
    def test_dickson_caveat_on_even_m(self, m, detail):
        # even m: the form has a radical, so the parity is raw and marked
        rep = small_cases_check(m, 3)
        assert rep.enumeration == "skip"
        (check,) = [c for c in rep.checks if c[0] == "dickson_b_generators"]
        assert check[4] == detail

    @pytest.mark.parametrize(
        "m, field, value, check",
        [
            (3, "radical_rank", 1, "radical_rank"),
            (4, "q_radical", 0, "q_radical"),
            (3, "dickson_values", {"b1": 1, "b2": 0, "b3": 0}, "dickson_b_generators"),
        ],
    )
    def test_structural_fact_judged(self, m, field, value, check):
        rep = copy.copy(small_cases_check(m, 5, cap=1000))
        setattr(rep, field, value)
        assert rep.status == "fail"
        assert check in rep.failures

    @pytest.mark.parametrize(
        "m, n, detail",
        [
            (3, 9, "expected order unknown; enumeration not requested"),
            (6, 5, "expected order 4171235328000 exceeds cap 2000000; "
             "structural checks only"),
        ],
    )
    def test_group_order_skip_detail(self, m, n, detail):
        rep = small_cases_check(m, n)
        assert rep.checks[-1] == ("group_order", None, None, None, detail)
        assert rep.status == "skip"

    @pytest.mark.parametrize("m, n", [(3, 5), (6, 5)])
    def test_cli_prints_the_checks(self, capsys, m, n):
        code = run(["specialize", "--m", str(m), "--n", str(n), "--json"])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)["checks"]
        rendered = [
            {
                "name": name,
                "status": {True: "pass", False: "fail", None: "skip"}[ok],
                "expected": expected,
                "actual": actual,
                "detail": detail,
            }
            for name, ok, expected, actual, detail in small_cases_check(m, n).checks
        ]
        assert printed == rendered

    def test_root_choice_conjugate_same_order(self):
        # a conjugate primitive root gives a conjugate image: same order
        from ytwo.rings import EvalMap
        from ytwo.spectool import SpecializedRep
        from ytwo.ortho import OrthoRep

        base = make_eval_map(5)
        alt = EvalMap(5, base.field, base.zeta ** 2)
        rep_alt = SpecializedRep(OrthoRep(QuadSpace(3)), alt)
        assert group_order_bfs(rep_alt.b_matrices) == 4080
