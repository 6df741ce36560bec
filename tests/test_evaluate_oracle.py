"""``presentation.evaluate`` (each representation's ``product``: run
powers folded with ``*`` for eta, letter programs chained in one kernel
call for psi, letter factor ops chained in one kernel call for phi) against
``ref_evaluate`` in oracles.py (one product per letter): every relator
word of the three schedule flavors at ``kmax`` 20, random words with
planted runs of up to 25 letters, and the closed-form words
``A**k s1 a**k`` up to the ``--kmax`` bound of ``verify closed-form``.
The "Y" words are over b-letters, whose images are checked on their own
against the oracle's b-words."""

import functools
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from ytwo import presentation
from ytwo.clifford import PinRep
from ytwo.ortho import OrthoRep
from ytwo.presentation import evaluate, s_letter, schedule
from ytwo.quadspace import QuadSpace
from ytwo.spectool import specialize
from ytwo.spinor import SpinorRep

from oracles import ref_b_word, ref_evaluate, ref_tau_free_b_word

BUILDERS = {
    "phi": lambda m: OrthoRep(QuadSpace(m)),
    "psi": PinRep,
    "eta": SpinorRep,
    "eta35": lambda m: specialize(3, 5, "eta"),
}


@functools.lru_cache(maxsize=None)
def rep(label, m):
    return BUILDERS[label](m)


def mismatches(label, m, words):
    r = rep(label, m)
    return [w for w in words if evaluate(w, r) != ref_evaluate(w, r)]


SCHEDULES = [
    (label, m, flavor)
    for label in ("phi", "psi")
    for m in (4, 5)
    for flavor in ("y", "y-tilde", "Y")
] + [("eta", m, "y") for m in (4, 5, 6)] + [("eta", 4, "Y")]


@pytest.mark.parametrize("label, m, flavor", SCHEDULES)
def test_schedule_words(label, m, flavor):
    words = [word for _, word in schedule(m, 20, flavor)]
    assert mismatches(label, m, words) == []


@pytest.mark.parametrize(
    "label, m",
    [(label, m) for label in ("phi", "psi") for m in range(3, 9)]
    + [("eta", m) for m in (3, 4, 5, 6)],
)
def test_b_images(label, m):
    # b<i> and B<i> against the fold of the oracle's word for b_i: the
    # paper's S-conjugation where the rep has S-letters, else tau-free
    r = rep(label, m)
    b_word_of = ref_tau_free_b_word if label == "eta" else ref_b_word
    for i in range(1, m + 1):
        word = b_word_of(i)
        assert r.image(f"b{i}") == ref_evaluate(word, r)
        assert (r.image(f"B{i}") * ref_evaluate(word, r)).is_identity


# (letter index, run length); consecutive runs of one letter merge
planted = st.lists(st.tuples(st.integers(0, 99), st.integers(1, 25)), max_size=6)


@pytest.mark.parametrize("label, m", [("phi", 4), ("psi", 4), ("eta", 4), ("eta35", 3)])
@settings(max_examples=30, deadline=None)
@given(planted)
def test_planted_runs(label, m, runs):
    letters = rep(label, m).letters()
    word = tuple(
        letter for i, k in runs for letter in (letters[i % len(letters)],) * k
    )
    assert mismatches(label, m, [word]) == []


def closed_form_words(kmax=50):
    return [("A",) * k + (s_letter(1),) + ("a",) * k for k in range(kmax + 1)]


@pytest.mark.parametrize("m", (4, 6))
def test_closed_form_words(m):
    assert mismatches("phi", m, closed_form_words()) == []


@pytest.mark.parametrize("label, flavor", [("eta", "y")])
def test_planted_short_power_is_caught(monkeypatch, label, flavor):
    # a run x**k raised to k - 1 must fail the schedule and closed-form checks
    real = presentation.pow_by_squaring
    monkeypatch.setattr(
        presentation,
        "pow_by_squaring",
        lambda base, k: real(base, k - 1) if k > 1 else base,
    )
    words = [word for _, word in schedule(4, 20, flavor)]
    assert mismatches(label, 4, words)
    assert mismatches(label, 4, closed_form_words())


def check_run_chained_once_is_caught(monkeypatch, label, cls):
    # chaining each maximal run's letter once must fail both checks
    real = cls.product
    monkeypatch.setattr(
        cls,
        "product",
        lambda self, word: real(self, tuple(letter for letter, _ in groupby(word))),
    )
    words = [word for _, word in schedule(4, 20, "y-tilde")]
    assert mismatches(label, 4, words)
    assert mismatches(label, 4, closed_form_words())


def test_planted_run_chained_once_is_caught(monkeypatch):
    check_run_chained_once_is_caught(monkeypatch, "phi", OrthoRep)


def test_planted_psi_run_chained_once_is_caught(monkeypatch):
    check_run_chained_once_is_caught(monkeypatch, "psi", PinRep)


def test_planted_first_letter_chained_twice_is_caught(plant):
    # psi running the first letter's program on its packed image as well:
    # the one-letter word t then evaluates to u * u = 1
    word = ("t",)
    assert mismatches("psi", 3, [word]) == []
    plant(PinRep, "product", ("islice(word, 1, None)", "word"))
    assert mismatches("psi", 3, [word]) == [word]
