"""Group words and relation schedules.

Words are tuples of letter strings over the alphabet

    "a"    the distinguished generator a
    "A"    its inverse
    "t"    the inverting involution tau
    "s<i>" the transposition generators s_i of the symmetric subgroup
    "S<i>" the twisted transpositions, S<i> = t * s<i>
    "b<i>" the b-generators b_1..b_m of Sidki's presentation
    "B<i>" their inverses

so a word serializes to the concatenation of its letters.  The s-, S-
and t-letters stand for involutions in every representation used here,
which is why relator words may use them for their own inverses; a and
the b-letters are not involutions, so ``invert_word`` swaps them with
A and the B-letters.

A representation is anything with an ``image(letter)`` lookup, an
``identity`` element, images that multiply with ``*``, and a
``product(word)`` that multiplies a non-empty word's letter images in
order; ``evaluate`` is that monoid homomorphism, with the identity for
the empty word.  Relator words are made of letter powers, so
``Representation.product``, the fold that only eta and the specialized
representations use, multiplies maximal runs x**k, not letters: each
run's image is one power by squaring (``runs``), equal runs in one word
share it, and the fold multiplies the run powers with ``*``.
``OrthoRep`` and ``PinRep`` take no powers.  Their kernels apply a
letter by an action kept per letter, while a power would cost a generic
product and a new action on every call, so each chains one action per
letter in one packed-int kernel call.

The b-generators are the conjugates b_1 = a, b_{i+1} = S<i> b_i S<i>.
Because t inverts every b_i, they can be rewritten without t-letters:
b_{i+1} = s<i> b_i^{-1} s<i>, which closes to

    b_i = s<i-1> ... s<1> a^{(-1)^(i-1)} s<1> ... s<i-1>,

the word ``b_word`` spells and every representation evaluates, so the
b-letters need no t- or S-letter image.  A representation's
``image("b<i>")`` is that word's image, evaluated on first use and kept
by the representation; ``letters()`` stays the base alphabet.  Sidki's
relators (b_i^k b_j^k)^2 of the "Y" schedule are words of four runs
over b-letters.  A relation schedule is a list of ``(name, word)``
pairs.
"""

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
    """Formal inverse: a and the b-letters swap with A and the B-letters,
    every other letter maps to an involution and stays."""
    return tuple(x.swapcase() if x[0] in "aAbB" else x for x in reversed(word))


def b_word(i: int, m: int) -> tuple:
    """The tau-free word s<i-1> .. s<1> a^{(-1)^(i-1)} s<1> .. s<i-1> of
    the i-th b-generator, 1 <= i <= m."""
    if not 1 <= i <= m:
        raise IndexError(f"b-generator index {i} out of range 1..{m}")
    core = (A,) if i % 2 == 1 else (A_INV,)
    pre = tuple(s_letter(j) for j in range(i - 1, 0, -1))
    return pre + core + tuple(reversed(pre))


def _commutator(x: tuple, y: tuple) -> tuple:
    return invert_word(x) + invert_word(y) + x + y


def schedule(m: int, kmax: int, flavor: str) -> list:
    """The ``(name, word)`` relator pairs of the chosen presentation,
    with the integer-indexed commutation family truncated at ``kmax``.

    * ``"y"``: Coxeter relations of the symmetric group, the truncated
      family [s1, s1^(a^k)] for 1 <= k <= kmax, and s_i a s_i a for
      2 <= i <= m-1 (each such s_i inverts a).
    * ``"y-tilde"``: the above plus t**2, [t, s_i], and t a t a.
    * ``"Y"``: (b_i^k b_j^k)**2 for all ordered pairs i != j and
      1 <= |k| <= kmax, over b-letters (B-letters for negative k).
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
    elif flavor == "Y":
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                for k in range(1, kmax + 1):
                    for tag, b in ((k, "b"), (-k, "B")):
                        word = ((f"{b}{i}",) * k + (f"{b}{j}",) * k) * 2
                        rels.append((f"bb_{i}_{j}_k{tag}", word))
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return rels


class Representation:
    """Letter-image lookup shared by all concrete representations, for
    b-generators b1..bm.  The base images are given; a b-letter's image
    is evaluated on first use and kept."""

    name = "rep"

    def __init__(self, m: int, images: dict, identity):
        self.m = m
        self._images = dict(images)
        self.identity = identity
        self._b_images = dict.fromkeys(f"{b}{i}" for b in "bB" for i in range(1, m + 1))

    def image(self, letter: str):
        try:
            return self._images[letter]
        except KeyError:
            pass
        try:
            img = self._b_images[letter]
        except KeyError:
            raise ValueError(
                f"{self.name} has no image for letter {letter!r}"
            ) from None
        if img is None:
            word = b_word(int(letter[1:]), self.m)
            if letter[0] == "B":
                word = invert_word(word)
            img = self._b_images[letter] = evaluate(word, self)
        return img

    def letters(self):
        return sorted(self._images)

    def runs(self, word) -> list:
        """The image of each maximal run x**k of a word, in order: one
        ``pow_by_squaring`` of x's image per run, memoized by ``(x, k)``,
        so a commutator's two ``A**k`` and two ``a**k`` runs share one
        power each.  Only the fold below takes run powers: eta and the
        specialized representations."""
        powers = {}
        images = []
        for letter, run in groupby(word):
            k = sum(1 for _ in run)
            power = powers.get((letter, k))
            if power is None:
                power = powers[letter, k] = pow_by_squaring(self.image(letter), k)
            images.append(power)
        return images

    def product(self, word):
        """The image of a non-empty word: its run powers folded with ``*``
        here, letters chained in ``OrthoRep`` and ``PinRep``."""
        return reduce(mul, self.runs(word))


def evaluate(word, rep: Representation):
    """Product of letter images in word order (identity for the empty word)."""
    return rep.product(word) if word else rep.identity


def relator_failures(sched, rep: Representation) -> list:
    """Names of the schedule's relators whose image is not the identity."""
    bad = []
    for name, word in sched:
        if not evaluate(word, rep).is_identity:
            bad.append(name)
    return bad
