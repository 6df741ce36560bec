"""Group words and relation schedules.

Words are tuples of letter strings over the alphabet

    "a"    the distinguished generator a
    "A"    its inverse
    "t"    the inverting involution tau
    "s<i>" the transposition generators s_i of the symmetric subgroup
    "S<i>" the twisted transpositions, S<i> = t * s<i>

so a word serializes to the concatenation of its letters.  The s-, S-
and t-letters stand for involutions in every representation used here,
which is why relator words may use them for their own inverses.

A representation is anything with an ``image(letter)`` lookup, an
``identity`` element and images that multiply with ``*``.  Evaluating a
word is the monoid homomorphism sending concatenation to products.
Relator words are made of letter powers, so ``evaluate`` multiplies
maximal runs x**k, not letters: each run's image is one power by
squaring, and equal runs in one word share it.  The run powers are then
multiplied by the representation's ``product``, a left fold of ``*``
unless the representation has a faster n-factor product: the pin and
the transvection representations multiply them in one packed-int
kernel call each.

The b-generators are the conjugates b_1 = a, b_{i+1} = S<i> b_i S<i>.
Because t inverts every b_i, they can be rewritten without t-letters:
b_{i+1} = s<i> b_i^{-1} s<i>, which closes to

    b_i = s<i-1> ... s<1> a^{(-1)^(i-1)} s<1> ... s<i-1>.

The second form is what tau-free representations evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import mul

from .rings import pow_by_squaring

A = "a"
A_INV = "A"
TAU = "t"


def s_letter(i: int) -> str:
    return f"s{i}"


def st_letter(i: int) -> str:
    return f"S{i}"


def invert_word(word) -> tuple:
    """Formal inverse, valid because non-a letters map to involutions."""
    flip = {A: A_INV, A_INV: A}
    return tuple(flip.get(x, x) for x in reversed(word))


def b_word(i: int, m: int, style: str = "st") -> tuple:
    """Word for the i-th b-generator, 1 <= i <= m.

    ``style="st"`` uses the defining twisted-transposition conjugations;
    ``style="y"`` is the tau-free rewriting (for representations of the
    subgroup generated by a and the s_i alone).
    """
    if not 1 <= i <= m:
        raise IndexError(f"b-generator index {i} out of range 1..{m}")
    if style == "st":
        word = (A,)
        for j in range(1, i):
            word = (st_letter(j),) + word + (st_letter(j),)
        return word
    if style == "y":
        core = (A,) if i % 2 == 1 else (A_INV,)
        pre = tuple(s_letter(j) for j in range(i - 1, 0, -1))
        return pre + core + tuple(reversed(pre))
    raise ValueError(f"unknown b-word style {style!r}")


@dataclass(frozen=True)
class RelationSchedule:
    """Named relator words for one of the three presentation flavors."""

    m: int
    kmax: int
    flavor: str
    relators: tuple  # tuple of (name, word)

    def names(self):
        return [name for name, _ in self.relators]

    def __iter__(self):
        return iter(self.relators)

    def __len__(self):
        return len(self.relators)


def _commutator(x: tuple, y: tuple) -> tuple:
    return invert_word(x) + invert_word(y) + x + y


def schedule(m: int, kmax: int, flavor: str) -> RelationSchedule:
    """Relators of the chosen presentation, with the integer-indexed
    commutation family truncated at ``kmax``.

    * ``"y"``: Coxeter relations of the symmetric group, the truncated
      family [s1, s1^(a^k)] for 1 <= k <= kmax, and s_i a s_i a for
      2 <= i <= m-1 (each such s_i inverts a).
    * ``"y-tilde"``: the above plus t**2, [t, s_i], and t a t a.
    * ``"Y"``: (b_i^k b_j^k)**2 for all ordered pairs i != j and
      1 <= |k| <= kmax.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    if kmax < 1:
        raise ValueError(f"need kmax >= 1, got {kmax}")
    rels = []
    if flavor in ("y", "y-tilde"):
        for i in range(1, m):
            rels.append((f"sq_s{i}", (s_letter(i),) * 2))
        for i in range(1, m - 1):
            rels.append((f"braid_{i}{i + 1}", (s_letter(i), s_letter(i + 1)) * 3))
        for i in range(1, m):
            for j in range(i + 2, m):
                rels.append((f"comm_s{i}s{j}", (s_letter(i), s_letter(j)) * 2))
        s1 = (s_letter(1),)
        for k in range(1, kmax + 1):
            conj = (A_INV,) * k + s1 + (A,) * k
            rels.append((f"comm_k{k}", _commutator(s1, conj)))
        for i in range(2, m):
            rels.append((f"inv_s{i}", (s_letter(i), A, s_letter(i), A)))
        if flavor == "y-tilde":
            rels.append(("tau_sq", (TAU, TAU)))
            for i in range(1, m):
                rels.append((f"comm_tau_s{i}", (TAU, s_letter(i)) * 2))
            rels.append(("tau_inverts_a", (TAU, A, TAU, A)))
        return RelationSchedule(m, kmax, flavor, tuple(rels))
    if flavor == "Y":
        b_words = {i: b_word(i, m) for i in range(1, m + 1)}
        b_invs = {i: invert_word(w) for i, w in b_words.items()}
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                for k in range(1, kmax + 1):
                    for sign, tag in ((1, k), (-1, -k)):
                        bi = b_words[i] if sign > 0 else b_invs[i]
                        bj = b_words[j] if sign > 0 else b_invs[j]
                        word = (bi * k + bj * k) * 2
                        rels.append((f"bb_{i}_{j}_k{tag}", word))
        return RelationSchedule(m, kmax, flavor, tuple(rels))
    raise ValueError(f"unknown flavor {flavor!r}")


class Representation:
    """Letter-image lookup shared by all concrete representations."""

    name = "rep"

    def __init__(self, images: dict, identity):
        self._images = dict(images)
        self.identity = identity

    def image(self, letter: str):
        try:
            return self._images[letter]
        except KeyError:
            raise ValueError(
                f"{self.name} has no image for letter {letter!r}"
            ) from None

    def letters(self):
        return sorted(self._images)

    def product(self, factors):
        """The product of a non-empty sequence of images, in order: a
        left fold of ``*`` here, one packed kernel call in ``OrthoRep``
        and ``PinRep``."""
        return reduce(mul, factors)


def evaluate(word, rep: Representation):
    """Product of letter images in word order (identity for the empty word).

    Each maximal run x**k costs one ``pow_by_squaring`` of x's image,
    memoized by ``(x, k)`` for this call, so a commutator's two ``A**k``
    and two ``a**k`` runs share one power each.  The run images are then
    multiplied in word order by one ``rep.product`` call.  For ``OrthoRep``
    that is one packed column-int product (``quadspace.laurent_product``),
    which packs the first run image and applies every other run as shifts
    of whole columns; for ``PinRep`` one n-factor Clifford product, which
    packs the run image with the most terms once and chains every other
    run onto it.  Both unpack once per word.  Other representations, such
    as the block-recursive ``SpinorRep``, fold with ``*``.
    """
    powers = {}
    factors = []
    for letter, run in groupby(word):
        k = sum(1 for _ in run)
        power = powers.get((letter, k))
        if power is None:
            power = powers[letter, k] = pow_by_squaring(rep.image(letter), k)
        factors.append(power)
    return rep.product(factors) if factors else rep.identity


def relator_failures(sched: RelationSchedule, rep: Representation) -> list:
    """Names of schedule relators whose image is not the identity."""
    bad = []
    for name, word in sched:
        if not evaluate(word, rep).is_identity:
            bad.append(name)
    return bad
