"""Acceptance suite: every headline criterion, exact, with one printed
pass/fail line per criterion (run pytest with -s to watch them)."""

import random
import time

import pytest

from ytwo.clifford import (
    PinRep,
    center_report,
    check_power_identities,
    conjugation_matrix,
    get_algebra,
    kernel_element,
    spinor_norm,
)
from ytwo.ortho import OrthoRep, conjugate_power_matrix, entries_are_t_polynomials
from ytwo.presentation import evaluate, relator_failures, s_letter, schedule
from ytwo.quadspace import (
    QuadSpace,
    bilin,
    hyperbolic_decompose,
    q_eval,
    rmat_lower_laurent,
)
from ytwo.rings import L_ONE, L_ZERO, S, T_INV, cyclotomic_split
from ytwo.spinor import (
    check_action,
    check_extended_action,
    independence_certificate,
    spinor_basis,
)
from ytwo.spectool import small_cases_check

from oracles import (
    order_sl2,
    order_sp4,
    ref_factor_degrees,
    ref_xn_plus_1_over_x_plus_1,
)


def report(name, detail=""):
    print(f"[PASS] {name}" + (f"  ({detail})" if detail else ""))


def test_a1_relation_suites():
    start = time.monotonic()
    for m in range(3, 9):
        ytilde = schedule(m, 20, "y-tilde")
        assert relator_failures(ytilde, OrthoRep(QuadSpace(m))) == []
        assert relator_failures(ytilde, PinRep(m)) == []
        from ytwo.spinor import SpinorRep

        assert relator_failures(schedule(m, 20, "y"), SpinorRep(m)) == []
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report("A1 relation suites m=3..8, K=20", f"{elapsed:.1f}s")


def test_a2_trivial_lifting():
    for m in range(3, 7):
        phi = OrthoRep(QuadSpace(m))
        psi = PinRep(m)
        letters = phi.letters()
        for letter in letters:
            assert conjugation_matrix(psi.image(letter)) == phi.image(letter)
        rng = random.Random(42)
        for _ in range(200):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 30)))
            assert conjugation_matrix(evaluate(word, psi)) == evaluate(word, phi)
    report("A2 trivial lifting (generators + 200 words, m=3..6)")


def test_a3_closed_form():
    for m in range(3, 7):
        space = QuadSpace(m)
        phi = OrthoRep(space)
        for k in range(0, 21):
            word = ("A",) * k + (s_letter(1),) + ("a",) * k
            closed = rmat_lower_laurent(conjugate_power_matrix(space, k))
            assert closed == evaluate(word, phi)
            assert entries_are_t_polynomials(closed)
    report("A3 closed-form conjugates k=0..20, m=3..6")


def test_a4_power_identities():
    for k in range(0, 51):
        check_power_identities(k)
    report("A4 power identities k=0..50")


def test_a5_decomposition():
    one, t1, t1p = L_ONE, T_INV, T_INV + L_ONE
    cycle = [(one, t1, t1), (one, t1, t1p), (one, t1p, t1p), (one, t1p, t1)]
    for rank in range(5, 22):
        sp = QuadSpace(rank - 1)
        dec = hyperbolic_decompose(sp)
        for e, f in dec.pairs:
            assert q_eval(sp, e) == L_ZERO and q_eval(sp, f) == L_ZERO
            assert bilin(sp, e, f) == L_ONE
        blocks = [list(p) for p in dec.pairs] + [dec.residual]
        for i, bi in enumerate(blocks):
            for bj in blocks[i + 1 :]:
                for x in bi:
                    for y in bj:
                        assert bilin(sp, x, y) == L_ZERO
        assert len(dec.residual) in (2, 3)
        assert 2 * len(dec.pairs) + len(dec.residual) == rank
        for v in [x for b in blocks for x in b]:
            assert all(c in (L_ZERO, L_ONE) for c in v)
        for idx, st in enumerate(dec.states):
            assert st == cycle[idx % 4]
    report("A5 hyperbolic decomposition ranks 5..21 + periodic state table")


def test_a6_spinor_module_equivalence():
    for m in range(3, 8):
        assert independence_certificate(spinor_basis(m)) is True
        check_action(m)
    for m in range(3, 7):
        check_extended_action(m)
    report("A6 spinor-basis independence + action match m=3..7, extended m=3..6")


@pytest.mark.parametrize(
    "m,n,expected",
    [(3, 5, 4080), (3, 7, 254016), (4, 5, 979200)],
)
def test_a7_small_cases_enumerated(m, n, expected):
    start = time.monotonic()
    rep = small_cases_check(m, n)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    assert rep.enumeration == "ran"
    assert rep.order_phi == expected
    assert rep.order_eta == expected
    assert rep.a_order_phi == n and rep.a_order_eta == n
    assert rep.failures == []
    if m % 2 == 0:
        assert rep.radical_rank == 1 and rep.q_radical == 1
    else:
        assert rep.radical_rank == 0
    report(f"A7 ({m},{n}) order {expected} (phi = eta)", f"{elapsed:.1f}s")


def test_a7_oracle_orders():
    assert order_sl2(16) == 4080
    assert order_sl2(8) ** 2 == 254016
    assert order_sp4(4) == 979200
    report("A7 expected orders re-derived from the classical formulas")


def test_a7_radical_row_skipped():
    rep = small_cases_check(6, 5)
    assert rep.enumeration == "skip"
    assert rep.status == "skip"
    assert rep.radical_rank == 1
    assert rep.q_radical == 0
    assert rep.a_order_phi == 5 and rep.a_order_eta == 5
    assert rep.failures == []
    report("A7 (6,5) skipped past cap with structural checks (radical 1, q(r)=0)")


def test_a8_center_and_kernel():
    for m in (4, 6):
        alg = get_algebra(m)
        r = alg.radical_element()
        for i in range(m + 1):
            g = alg.gen(i)
            assert r * g == g * r
    dims = {m: center_report(m).specialized_dim for m in (3, 4, 5, 6)}
    assert dims == {3: 1, 4: 2, 5: 1, 6: 2}
    for m in (4, 6):
        z = kernel_element(m, S)
        assert spinor_norm(z).is_one
        assert conjugation_matrix(z).is_identity
        assert not z.is_identity
    report("A8 centre {1, r} symbolic + specialized dims + kernel witnesses")


def test_a9_spinor_norms():
    for m in (3, 4, 5, 6):
        rep = PinRep(m)
        for letter in rep.letters():
            assert spinor_norm(rep.image(letter)).is_one
    sp = QuadSpace(4)
    dec = hyperbolic_decompose(sp)
    e_vec, f_vec = dec.pairs[0]
    alg = get_algebra(4)
    e, f = alg.vector(e_vec), alg.vector(f_vec)
    norm = spinor_norm((e * f).scale(S) + f * e)
    assert norm == S
    assert norm.is_monomial and norm.exponents()[0] % 2 == 1  # not a square unit
    report("A9 pin-condition norms + odd-exponent witness s")


def test_a10_augmentation_splitting():
    for n in (3, 5, 7, 9, 15):
        degrees = cyclotomic_split(n)
        assert degrees == ref_factor_degrees(ref_xn_plus_1_over_x_plus_1(n))
        assert sum(degrees) == n - 1
    rep = small_cases_check(3, 7, cap=1000)  # below the order: no closure
    assert rep.aug_degrees == (3, 3)
    report("A10 augmentation splitting vs factorization oracle; (3,7) -> {3,3}")
