import random

import pytest

from ytwo import clifford, ortho, presentation
from ytwo.clifford import CliffordElement, PinRep, conjugation_matrix
from ytwo.ortho import OrthoRep
from ytwo.presentation import (
    b_word,
    evaluate,
    invert_word,
    relator_failures,
    s_letter,
    schedule,
    st_letter,
)
from ytwo.quadspace import QuadSpace, RMatrix, transvection
from ytwo.rings import pow_by_squaring
from ytwo.spectool import specialize
from ytwo.spinor import SpinorRep

from oracles import factorial, perm_closure


class TestBWords:
    def test_base(self):
        assert b_word(1, 3) == ("a",)

    def test_one_conjugation(self):
        assert b_word(2, 3) == ("s1", "A", "s1")

    def test_two_conjugations(self):
        assert b_word(3, 5) == ("s2", "s1", "a", "s1", "s2")

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            b_word(5, 4)
        with pytest.raises(IndexError):
            b_word(0, 4)

    def test_phi_b2_is_transvection_product(self):
        sp = QuadSpace(4)
        phi = OrthoRep(sp)
        r_u = transvection(sp, sp.basis_vector(0))
        r_v2 = transvection(sp, sp.basis_vector(2))
        assert evaluate(b_word(2, 4), phi) == r_u * r_v2


class TestSchedule:
    def test_names_ytilde(self):
        names = [name for name, _ in schedule(3, 2, "y-tilde")]
        for expected in (
            "tau_sq",
            "braid_12",
            "comm_k1",
            "comm_k2",
            "inv_s2",
            "tau_inverts_a",
        ):
            assert expected in names

    def test_y_flavor_coxeter(self):
        sched = dict(schedule(3, 1, "y"))
        assert sched["sq_s1"] == ("s1", "s1")
        assert sched["sq_s2"] == ("s2", "s2")
        assert sched["braid_12"] == ("s1", "s2") * 3

    def test_y_flavor_words(self):
        sched = dict(schedule(4, 2, "y"))
        assert sched["comm_k1"] == ("s1", "A", "s1", "a", "s1", "A", "s1", "a")
        assert sched["inv_s3"] == ("s3", "a", "s3", "a")

    def test_Y_flavor_count(self):
        sched = schedule(4, 1, "Y")
        # 12 ordered pairs, k in {1, -1}
        assert len(sched) == 24
        names = [name for name, _ in sched]
        assert "bb_1_2_k1" in names and "bb_1_2_k-1" in names

    def test_bad_params(self):
        with pytest.raises(ValueError):
            schedule(2, 1, "y")
        with pytest.raises(ValueError):
            schedule(3, 0, "y")
        with pytest.raises(ValueError):
            schedule(3, 1, "nope")

    def test_invert_word(self):
        assert invert_word(("a", "s1", "A")) == ("a", "s1", "A")
        assert invert_word(("t", "a")) == ("A", "t")

    def test_invert_b_letters(self):
        # b-letters are not involutions; s<i> and S<i> are two different ones
        assert invert_word(("b1", "S2", "B3", "s1")) == ("s1", "b3", "S2", "B1")

    def test_Y_words_are_four_runs(self):
        sched = dict(schedule(4, 3, "Y"))
        assert sched["bb_1_2_k3"] == (("b1",) * 3 + ("b2",) * 3) * 2
        assert sched["bb_4_3_k-1"] == ("B4", "B3", "B4", "B3")


class TestEvaluate:
    def test_empty_word(self):
        phi = OrthoRep(QuadSpace(3))
        assert evaluate((), phi).is_identity

    def test_tau_inverts_a(self):
        phi = OrthoRep(QuadSpace(4))
        assert evaluate(("t", "a", "t", "a"), phi).is_identity

    def test_monoid_homomorphism(self):
        phi = OrthoRep(QuadSpace(4))
        letters = phi.letters()
        rng = random.Random(42)
        for _ in range(100):
            w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 10)))
            w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 10)))
            assert evaluate(w1 + w2, phi) == evaluate(w1, phi) * evaluate(w2, phi)

    def test_unsupported_letter(self):
        phi = OrthoRep(QuadSpace(3))
        with pytest.raises(ValueError):
            evaluate(("s9",), phi)

    def test_unsupported_letter_in_run(self):
        phi = OrthoRep(QuadSpace(3))
        with pytest.raises(ValueError, match="'s9'"):
            evaluate(("a", "s9", "s9"), phi)

    @pytest.mark.parametrize("letter", ["b0", "b4", "B4", "b", "b01"])
    def test_b_letter_out_of_range(self, letter):
        for rep in (OrthoRep(QuadSpace(3)), PinRep(3), SpinorRep(3)):
            with pytest.raises(ValueError, match=f"no image for letter '{letter}'"):
                rep.image(letter)

    def test_b_images_leave_letters(self):
        # a b-image is kept by the rep, outside the base alphabet
        reps = (OrthoRep(QuadSpace(4)), PinRep(4), SpinorRep(4), specialize(4, 5))
        for rep in reps:
            letters = rep.letters()
            b3 = rep.image("b3")
            assert rep.image("b3") is b3
            assert (b3 * rep.image("B3")).is_identity
            assert rep.letters() == letters and "b3" not in letters

    def test_run_across_the_seam(self):
        # the a-run of w1 + w2 is one run of 5, split 2 + 3 across the factors
        phi = OrthoRep(QuadSpace(4))
        w1, w2 = ("s1", "A", "a", "a"), ("a", "a", "a", "s2", "s2")
        assert evaluate(w1 + w2, phi) == evaluate(w1, phi) * evaluate(w2, phi)

    def test_twisted_letters_factor(self):
        # S<i> = t * s<i> holds in every representation carrying both
        for rep in (OrthoRep(QuadSpace(4)), PinRep(4)):
            for i in (1, 2, 3):
                assert rep.image(st_letter(i)) == rep.image("t") * rep.image(
                    s_letter(i)
                )


class TestSymmetricAction:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_full_symmetric_group(self, m):
        """Images of the twisted transpositions permute v_1..v_m as the
        full symmetric group; checked by explicit permutation closure."""
        for rep_cls in (lambda: OrthoRep(QuadSpace(m)), lambda: PinRep(m)):
            rep = rep_cls()
            perms = []
            for i in range(1, m):
                mat = rep.image(st_letter(i))
                if isinstance(rep, PinRep):
                    mat = conjugation_matrix(mat)
                perm = []
                for r in range(m + 1):
                    row = mat.rows[r]
                    nonzero = [j for j, x in enumerate(row) if x]
                    assert len(nonzero) == 1 and row[nonzero[0]].is_one
                    perm.append(nonzero[0])
                assert perm[0] == 0  # u is fixed
                perms.append(tuple(perm))
            assert perm_closure(perms) == factorial(m)

    def test_orbit_of_v1_is_everything(self):
        m = 5
        rep = OrthoRep(QuadSpace(m))
        orbit = {1}
        frontier = [1]
        while frontier:
            nxt = []
            for idx in frontier:
                for i in range(1, m):
                    row = rep.image(st_letter(i)).rows[idx]
                    j = max(jj for jj, x in enumerate(row) if x)
                    if j not in orbit:
                        orbit.add(j)
                        nxt.append(j)
            frontier = nxt
        assert orbit == set(range(1, m + 1))


class TestRelatorSuites:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_phi_psi_small(self, m):
        sched = schedule(m, 5, "y-tilde")
        assert relator_failures(sched, OrthoRep(QuadSpace(m))) == []
        assert relator_failures(sched, PinRep(m)) == []

    @pytest.mark.parametrize(
        "label, build, flavor, cls, products",
        [
            ("eta", SpinorRep, "y", RMatrix, 392),
            ("phi", lambda m: OrthoRep(QuadSpace(m)), "y-tilde", RMatrix, 2158),
            ("psi", PinRep, "y-tilde", CliffordElement, 1025),
        ],
    )
    def test_product_count(self, monkeypatch, label, build, flavor, cls, products):
        # pinned, so that a return to one product per letter (1000 for
        # eta) fails on any host, however noisy; psi chains one program
        # per letter by design (1025) without any run power; phi chains
        # the transvections of every letter from the identity, the first
        # letter's included (2158: a, A and s<i> are two, t and S<i> one),
        # without any generic RMatrix product
        rep = build(8)
        count = count_products(monkeypatch, label, cls)
        powers = count_powers(monkeypatch)
        if label == "phi":
            generic = count_products(monkeypatch, "RMatrix.__mul__", RMatrix)
        assert relator_failures(schedule(8, 20, flavor), rep) == []
        assert count() == products, label
        if label == "phi":
            assert generic() == 0
        if label == "psi":
            assert powers() == 0

    @pytest.mark.parametrize(
        "label, build, cls, products",
        [
            ("eta", SpinorRep, RMatrix, 5112),
            ("phi", lambda m: OrthoRep(QuadSpace(m)), RMatrix, 40320),
            ("psi", PinRep, CliffordElement, 19704),
        ],
    )
    def test_Y_product_count(self, monkeypatch, label, build, cls, products):
        # eta: (b_i^k b_j^k)^2 is four run powers of two b-images, each
        # b-image evaluated once per rep; one product per b-letter would
        # be 19,680.  psi chains one program per b-letter, those 19,680,
        # plus 24 for its eight b-images, and takes no run power.  phi
        # chains two transvections per b-letter from the identity, the
        # first letter's included: 2 * (19,680 + 480 relators) = 40,320,
        # and never evaluates a b-image nor takes a generic product.
        rep = build(4)
        count = count_products(monkeypatch, label, cls)
        powers = count_powers(monkeypatch)
        generic = count_products(monkeypatch, "RMatrix.__mul__", RMatrix)
        assert relator_failures(schedule(4, 20, "Y"), rep) == []
        assert count() == products, label
        assert (powers() == 0) == (label != "eta")
        if label == "phi":
            assert generic() == 0

    @pytest.mark.parametrize("m", [3, 4])
    def test_Y_flavor(self, m):
        sched = schedule(m, 2, "Y")
        assert relator_failures(sched, OrthoRep(QuadSpace(m))) == []
        assert relator_failures(sched, PinRep(m)) == []
        assert relator_failures(sched, SpinorRep(m)) == []


def count_products(monkeypatch, label, cls):
    """Count the products of ``cls`` images from now on; returns a reader.
    The packed kernels are counted by the factors they chain: for
    ``label`` "phi" the factor ops of one ``laurent_product`` call,
    for Clifford images each program ``clifford._chain`` runs (psi's
    letter programs, and a generic product's chained factors); any other
    label counts ``cls.__mul__`` calls."""
    count = 0
    if cls is CliffordElement:
        counters = [(clifford, "_chain", lambda args: 1)]
    elif label == "phi":
        counters = [(ortho, "laurent_product", lambda args: len(args[1]))]
    else:
        counters = [(cls, "__mul__", lambda args: 1)]

    def counting(real, products_of):
        def counted(*args):
            nonlocal count
            count += products_of(args)
            return real(*args)

        return counted

    for owner, name, products_of in counters:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), products_of))
    return lambda: count


def count_powers(monkeypatch):
    """Count the run powers taken from now on (``pow_by_squaring`` as
    ``Representation.runs`` and ``CliffordElement.__pow__`` call it);
    returns a reader."""
    count = 0

    def counted(base, k):
        nonlocal count
        count += 1
        return pow_by_squaring(base, k)

    for owner in (presentation, clifford):
        monkeypatch.setattr(owner, "pow_by_squaring", counted)
    return lambda: count
