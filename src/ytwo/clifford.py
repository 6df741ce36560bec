"""The Clifford algebra of the quadratic module, and the pin-group
representation inside it.

Basis monomials are bit masks over the ordered generators
u < v_1 < ... < v_m (bit 0 is u, bit i is v_i).  Products rewrite to
canonical ascending order with the two relations

    x_j x_i = x_i x_j + 1      (i < j; all distinct pairs pair to 1)
    u u = 1,   v_i v_i = 1/t

An element keeps its coefficients as raw ints over a common base
``lo``, in ``parts``: one ``{mono: int}`` dict per power of alpha (one
for the Laurent ring, two for c0 + c1*alpha), bit k standing for
s**(lo + k).  It is canonical: no zero int is stored, and ``lo`` is
chosen so that the OR of all stored ints is odd (the zero element has
``lo = 0``).  Scalar objects are built only by the views (``terms``,
``scalar_part``, ``as_vector``); products work on the ints directly.

A product of n factors packs the factor with the most terms into a
single int with a W-bit slot per monomial: slot M of the alpha**i block
sits at bit (i*N + M)*W, N = 2**(m+1), and holds the coefficient int
shifted up by a headroom H, i.e. over the fixed base
s**(lo_1 + ... + lo_n - H).  Multiplying by one generator then acts on
every slot at once.  Moving x_g through a canonical monomial M gives

    x_g M = q_g**[g in M] (M ^ g) + sum(M ^ k for k in M, k < g)
    M x_g = q_g**[g in M] (M ^ g) + sum(M ^ k for k in M, k > g)

with q_0 = 1 and q_i = 1/t = s**-2, and no signs.  On the packed int,
with mask_g the slots whose monomial holds g and hi = X & mask_g, the
main term is (hi >> (W << g) + 2*[g >= 1]) | ((X ^ hi) << (W << g)), and
each extra term is (X & mask_k) >> (W << k).

Every other factor is chained onto the packed int X: the factors to
its left by left actions, nearest first, those to its right
by right actions.  A chained factor sends X to the sum over its
monomials p of the coefficient of p times the chain x_p * X (x_g1 *
(x_g2 * ...), g1 < ... < gk the generators of p) or X * x_p.  A
chained factor is first compiled into a program (``_compile``): its
monomials in the depth-first order of the trie of their chains, one
step each, which keeps a prefix of the current path, applies the
generators the monomial adds to it and adds its coefficient ints times
the last int of the path.  ``_chain`` runs a program.  Chains that share
their first actions share those steps, and only the current path is
alive, at most m + 2 ints whatever the number of terms.  Each set bit of
a coefficient is one shift-XOR of a whole chain, a factor's alpha**i
part lands i blocks up, and alpha**2 = s*alpha + 1 folds the third block
back after each chained factor.  The result is unpacked once, by walking
its lowest set bit, so the cost follows the nonzero slots, and made
canonical once.

Word products by letter programs.  ``PinRep`` keeps the right-action
program of each letter's image, compiled on the letter's first use.
``PinRep.times(x, word)`` packs x once and runs the program of each
letter of the word in turn, and a word's image is its first letter's
image times the other letters: one packed product per word, with no run
powers and nothing compiled per word, as phi chains the factor ops of its
letters (``quadspace.laurent_product``).

The width.  Let l_p be the bit length of the packed factor's ORed ints,
l_j those of the chained factors, and V the sum over all factors of the
most v-generators in one of their monomials; take H = 2 * max(m, V //
2) and W = l_p + H plus the sum of the l_j on the QE ring, of the l_j -
1 on the Laurent ring, rounded up to a multiple of 16.  Every slot then
holds its coefficient:

* Bottom.  Follow one term of the expansion: a current monomial M and
  the generators still to apply.  Let P count the v-generators in M plus
  those still to apply; it starts at most V.  Applying x_g spends g.
  The main term keeps P when g is not in M, since M gains g, and lowers
  it by 2 when g is in M, the only case that lowers the coefficient (by
  the 2 bits of s**-2, for a v-generator).  An extra term drops k from M
  and keeps no g, so it lowers P without touching the coefficient.  So a
  term meets at most V // 2 squares and falls at most 2 * (V // 2) <= H
  bits below where it was packed: never below bit 0 of its slot.
* Top.  Actions never raise a coefficient.  The packed coefficients lie
  below bit H + l_p.  A chained factor of bit length l multiplies by a
  polynomial of degree below l, raising the top bit by at most l - 1,
  and on the QE ring its fold adds s * alpha**2, one bit more.  So every
  bit stays below W.  On the Laurent ring nothing folds, and that bit
  is spared per chained factor: without it, letter chains widen the
  slots of long words, and the "y-tilde" relators at m = 8 build action
  tables up to 176 bits wide, against 96 with it.

Two factors hold at most 2m v-generators, so a binary product has H =
2m and W = l_a + l_b + 2m (one less on the Laurent ring) whatever its
monomials: its width depends on the bit lengths alone, and binary
products share few widths (the masks are built once per width).

Intertwining.  ``intertwines(c, M)`` asks whether x_i c = c * sum_j
M_ij x_j for every generator x_i.  It packs c once and takes the m + 1
right actions c x_j once; row i is then a shift-XOR of those, one per
set bit of each entry M_ij (its alpha part one block up, folded as
above), compared with the one left action x_i c.  It is the product
c * (row i) with the row chained on the right, so the binary width
above holds it (the row's entries, shifted to one base, as the chained
factor).  When c has spinor norm c c^tr = 1, the identity says that c
conjugates the vector module by M: left multiplication by c is then an
onto endomorphism of the algebra (it has the right inverse c^tr), a
finitely generated module over the scalars, and an onto endomorphism
of such a module is one-to-one (Vasconcelos 1969).  So c^tr c = 1 as
well, c^-1 = c^tr, and c^-1 x_i c = row i.  No inverse and no
conjugation matrix is needed: ``lifts(c, M)`` is this judgment, and
``conjugation_matrix`` stays as the reference it is tested against.

The norm.  ``_norm_slots(c)`` computes c * c^tr on packed ints alone:
it XORs c's coefficient ints into the submasks of the transposes
(``_transposed``, cancelled ints dropped), compiles the right program
of c^tr straight from those dicts, packs c at the binary width W =
l_c + l_tr + 2m (one less on the Laurent ring, rounded as above; l_tr
<= l_c, as every int of c^tr XORs ints of c) with headroom H = 2m, and
chains the program on it.  Slot M of the alpha**i block then holds
the coefficient over s**(2 lo - 2m), lo being c's.  A set bit in any
slot but monomial 0's raises NotScalarError; ``spinor_norm`` reads
the two slots of monomial 0 as its scalar, and ``lifts`` asks that the
alpha slot be zero and the other be the single bit of s**0, bit 2m -
2 lo.  When lo > m that bit would lie below bit 0 of the slot: every
term of the norm then has a positive exponent, so the norm is not 1,
and ``lifts`` says so without a shift.  No element is built for c^tr
or for the product, and nothing is unpacked beyond two slots.

Two closed forms of the same action rule serve the maps that need no
product.  The transpose of a monomial is

    M^tr = sum(T for T subset of M, |M ^ T| even),

every coefficient 1 (``_mono_transpose`` has the proof), so c^tr XORs
each coefficient of c into those submasks.  The commutator with a
generator loses the shared main term,

    x_j M + M x_j = sum(M ^ k for k in M, k != j),

which gives ``center_report`` its GF(2) rows.

The pin representation sends

    t -> u,   a -> s u v_1,   S<i> -> v_i + v_{i+1},

all of which have spinor norm c * c^tr = 1.  Conjugation v -> c^-1 v c
by such elements preserves the vector module and recovers the
transvection representation row for row.
``PowerSeq`` and ``CenterReport`` are ``rings.Record`` values.
"""

from functools import reduce
from itertools import islice
from operator import or_

from .errors import (
    MismatchError,
    MixedAmbientError,
    NotCliffordGroupError,
    NotScalarError,
    NotUnitError,
)
from .presentation import A, A_INV, Representation, TAU, s_letter, st_letter
from .quadspace import RMatrix
from .rings import (
    L_ONE,
    L_ZERO,
    LaurentScalar,
    QE_ONE,
    QE_ZERO,
    QEScalar,
    Record,
    S,
    T_INV,
    gf2_rank,
    pow_by_squaring,
)

# Transposes are cached per monomial, shared across algebras: at most
# 2**(m+1) entries for the largest m in use.  _MTG_CACHE and _MTM_CACHE
# stay empty; they are kept only because perfbench/tracer.py's
# cache_entries reads them by name.

_MTG_CACHE: dict = {}
_MTM_CACHE: dict = {}
_TR_CACHE: dict = {}

def _bits(mono: int) -> list:
    """Indices of the set bits of a monomial, ascending."""
    return [i for i in range(mono.bit_length()) if mono >> i & 1]


def _mono_transpose(mono: int) -> tuple:
    """The monomials of the reversed product of mono's generators, each
    with coefficient 1: every T subset of mono with |mono ^ T| even.

    By induction on the top generator g of M = mono (M = 0 gives 1).
    Reversal puts x_g first, so M^tr = x_g (M - g)^tr, and by the left
    action x_g T' = (T' | g) + sum(T' - k for k in T') for T' inside
    M - g.  The first terms give every T = T' | g with |M ^ T| =
    |(M - g) ^ T'| even.  A subset S of M - g comes from the T' = S | k,
    k in M - g - S, and those T' are in (M - g)^tr exactly when
    |M - g - S| is odd.  So S is reached |M - g - S| times if that count
    is odd and never otherwise: it survives exactly when |M ^ S| =
    |M - g - S| + 1 is even.  No generator is squared, so every
    coefficient is t**0."""
    hit = _TR_CACHE.get(mono)
    if hit is None:
        subs = []
        sub = mono
        while True:
            if not (mono ^ sub).bit_count() & 1:
                subs.append(sub)
            if not sub:
                break
            sub = (sub - 1) & mono
        hit = _TR_CACHE[mono] = tuple(subs)
    return hit


def _transposed(parts) -> list:
    """The parts of c^tr over c's ``lo``, from the parts of c: each
    coefficient XORed into the submasks ``_mono_transpose`` lists, and
    the ints that cancel dropped."""
    out = []
    for part in parts:
        acc: dict = {}
        for mono, x in part.items():
            for sub in _mono_transpose(mono):
                acc[sub] = acc.get(sub, 0) ^ x
        out.append({mono: x for mono, x in acc.items() if x})
    return out


def _slot_width(la: int, lb: int, squares: int) -> int:
    """Bits per packed slot for a product whose packed factor's ints have
    bit length la, whose chained factors may raise the top bit by lb (the
    sum of their bit lengths, each less one on the Laurent ring), and in
    which one term meets at most ``squares`` squares v_i v_i = s**-2 (the
    bound is proved in the module docstring).  Rounded up to a multiple
    of 16, so that products share few widths."""
    return (la + lb + 2 * squares + 15) & -16


def _vcount(parts) -> int:
    """The most v-generators in one monomial of an element's parts."""
    return max((p >> 1).bit_count() for part in parts for p in part) if any(parts) else 0


def _repeat(pattern: int, period: int, total: int) -> int:
    """``pattern`` copied at every multiple of ``period`` below ``total``
    bits (pattern below 2**period)."""
    out, span = pattern, period
    while span < total:
        out |= out << span
        span <<= 1
    return out & (1 << total) - 1 if span > total else out


def _pack(parts, width: int, base: int, span: int) -> int:
    """An element's parts as one int: the coefficient of M in the alpha**i
    part at bit base + i*span + M*width."""
    x = 0
    for part in parts:
        for mono, c in part.items():
            x |= c << (base + mono * width)
        base += span
    return x


def _or_all(parts) -> int:
    """The OR of the ints stored in a sequence of {mono: int} dicts."""
    low = 0
    for part in parts:
        low |= reduce(or_, part.values(), 0)
    return low


def _act(y: int, action) -> int:
    """A packed int y times one generator, by its entry of a table from
    ``CliffordAlgebra._actions``."""
    mask, up, down, extras = action
    hi = y & mask
    z = hi >> down | (y ^ hi) << up
    for mask, shift in extras:
        z ^= (y & mask) >> shift
    return z


def _fold(x: int, fold: int, span: int) -> int:
    """x with its alpha**2 block (the bits of ``fold``) folded back by
    alpha**2 = s*alpha + 1, ``span`` the bits of one power of alpha."""
    top = x & fold
    return x ^ top ^ top >> 2 * span ^ top >> (span - 1) if top else x


def _chain(x: int, steps, actions, span: int, fold: int) -> int:
    """The packed int x acted on by a program's ``steps`` (from
    ``CliffordAlgebra._compile``) through ``actions``, the left or right
    table of ``CliffordAlgebra._actions``, with the alpha**2 block folded
    back."""
    acc = 0
    path = [x]
    for keep, gens, coeffs in steps:
        del path[keep:]
        y = path[-1]
        for g in gens:
            y = _act(y, actions[g])
            path.append(y)
        base = 0
        for c in coeffs:
            while c:
                low = c & -c
                acc ^= y << (base + low.bit_length() - 1)
                c ^= low
            base += span
    return _fold(acc, fold, span)


# -- the algebra ------------------------------------------------------------


class CliffordAlgebra:
    """Clifford algebra on u, v_1..v_m over "laurent" or "qe" scalars."""

    def __init__(self, m: int, ring: str = "laurent"):
        if m < 3:
            raise ValueError(f"need m >= 3, got {m}")
        if ring not in ("laurent", "qe"):
            raise ValueError(f"unknown scalar ring {ring!r}")
        self.m = m
        self.ring = ring
        if ring == "laurent":
            self.scalar_zero = L_ZERO
            self.scalar_one = L_ONE
        else:
            self.scalar_zero = QE_ZERO
            self.scalar_one = QE_ONE
        # Products act by generators on packed ints (module docstring).
        # x_g * M and M * x_g are q_g**[g in M] (M ^ g) plus M ^ k for
        # each k in M on one side of g: q_g = s**-square_shift[g] (u**2 =
        # 1, v_i**2 = 1/t = s**-2), and extras[0][g] (left, k < g) or
        # extras[1][g] (right, k > g) lists the k.
        self._square_shift = (0,) + (2,) * m
        self._extras = (
            tuple(tuple(range(g)) for g in range(m + 1)),
            tuple(tuple(range(g + 1, m + 1)) for g in range(m + 1)),
        )
        # W -> _actions(W), built on first use: one entry per slot width,
        # and rounding W keeps the entries few.  (perfbench's
        # cache_entries counts it under this name.)  _reversed[M] is M
        # with its m + 1 bits in reverse order (see _chain).
        self._polybits_cache: dict = {}
        self._reversed = tuple(
            int(format(mono, f"0{m + 1}b")[::-1], 2) for mono in range(1 << (m + 1))
        )
        self.zero = self.from_terms({})
        self.one = self.from_terms({0: self.scalar_one})
        self._gens = tuple(
            self.from_terms({1 << i: self.scalar_one}) for i in range(m + 1)
        )

    def lift(self, c: LaurentScalar):
        """Coerce a Laurent scalar into this algebra's scalar ring."""
        if self.ring == "laurent":
            return c
        return QEScalar.from_laurent(c)

    def _actions(self, width: int) -> tuple:
        """The packed-int tables for ``width``-bit slots, cached per width:
        (left, right, fold).  ``left`` and ``right`` hold the generator
        actions (``right`` indexed by m - g, as ``_compile`` numbers it), the
        entry of g being (mask, up, down, extras): ``mask`` covers every
        slot whose monomial holds g; the slots outside it move up by ``up``
        = width << g (M to M | g), those inside down by ``down`` (M to M ^
        g, with the square's s**-2 for a v-generator); ``extras`` holds a
        (mask, shift) pair per anticommutator generator k.  ``fold`` covers
        the alpha**2 block (0 on the Laurent ring).  The masks repeat with
        period 2**(m+1) * width."""
        m = self.m
        span = width << (m + 1)
        blocks = len(self.zero.parts)
        total = span * blocks  # no mask reads the alpha**2 block
        steps = []
        for g in range(m + 1):
            shift = width << g
            steps.append((_repeat(((1 << shift) - 1) << shift, shift << 1, total), shift))
        square = self._square_shift
        left, right = (
            tuple(
                (mask, shift, shift + square[g], tuple(steps[k] for k in ks[g]))
                for g, (mask, shift) in enumerate(steps)
            )
            for ks in self._extras
        )
        fold = ((1 << span) - 1) << 2 * span if blocks == 2 else 0
        tables = self._polybits_cache[width] = (left, right[::-1], fold)
        return tables

    def _compile(self, lo: int, parts, left: bool) -> tuple:
        """The program by which the element with ``lo`` and ``parts`` (as
        a ``CliffordElement`` holds them) acts on a packed int X, as
        sum(c * x_p * X) (left) or sum(c * X * x_p) over its terms c * p:
        (lo, bits, vcount, steps), with ``lo``, the bit length of the
        ORed ints, the ``_vcount`` and one (keep, gens, coeffs) step per
        monomial, run by ``_chain``.

        A chain applies p's generators highest first on the left and
        lowest first on the right; reversing the bits of every monomial
        (``_reversed``, with the right actions indexed to match) turns the
        right case into the left one.  Taken in increasing order, the keys
        are then a depth-first walk of the trie of chains, the parent of a
        key being the key without its lowest bit, and the path from the
        root X to a key holds one int per prefix of its top bits.  A key
        shares with the key before it the prefix above the highest bit
        where the two differ.  Its step keeps that prefix's ints of the
        path (``keep``, the root included), applies the actions of the
        key's bits below it, highest first (``gens``), each result one
        more int of the path, and adds the coefficient ints ``coeffs``
        (one per power of alpha) times the last: the path holds at most
        m + 2 ints, and a chain shares its parent's actions."""
        rev = self._reversed
        monos = parts[0].keys() | parts[1].keys() if len(parts) == 2 else parts[0]
        steps = []
        prev = 0
        for key in sorted(monos if left else [rev[p] for p in monos]):
            rest = key & (1 << (key ^ prev).bit_length()) - 1
            keep = (key ^ rest).bit_count() + 1
            gens = []
            while rest:
                g = rest.bit_length() - 1
                rest ^= 1 << g
                gens.append(g)
            p = key if left else rev[key]
            # coeffs is a list: tuple() of a generator left CPython's tuple
            # free lists 0.1 MB fuller on 2,000 m = 4 lifting words
            steps.append((keep, tuple(gens), [part.get(p, 0) for part in parts]))
            prev = key
        return lo, _or_all(parts).bit_length(), _vcount(parts), tuple(steps)

    def _run(self, x: "CliffordElement", lefts, rights) -> "CliffordElement":
        """x with the programs ``lefts`` (nearest first) chained on its
        left and ``rights`` on its right (see the module docstring): x is
        packed once, each program runs on the packed int, and the result
        is unpacked and made canonical once."""
        programs = (*lefts, *rights)
        if not programs:
            return x
        m = self.m
        spare = self.ring == "laurent"  # no fold: a spare bit per factor
        lo, chained = x.lo, 0
        for f_lo, bits, _, _ in programs:
            lo += f_lo
            chained += max(bits - spare, 0)  # a zero factor has no bits
        squares = m  # two factors hold at most 2m v-generators
        if len(programs) > 1:
            v = _vcount(x.parts) + sum(f_v for _, _, f_v, _ in programs)
            squares = max(m, v // 2)
        width = _slot_width(_or_all(x.parts).bit_length(), chained, squares)
        left, right, fold = self._polybits_cache.get(width) or self._actions(width)
        span = width << (m + 1)  # the bits of one power of alpha
        y = _pack(x.parts, width, 2 * squares, span)
        for *_, steps in lefts:
            y = _chain(y, steps, left, span, fold)
        for *_, steps in rights:
            y = _chain(y, steps, right, span, fold)
        parts = [[] for _ in self.zero.parts]
        full, last = (1 << width) - 1, (1 << (m + 1)) - 1
        slot = 0  # the slot at bit 0 of y
        while y:
            skip = ((y & -y).bit_length() - 1) // width
            slot += skip
            y >>= skip * width
            parts[slot >> (m + 1)].append((slot & last, y & full))
            y >>= width
            slot += 1
        return _canonical(self, lo - 2 * squares, parts)

    def _product(self, factors) -> "CliffordElement":
        """The product of a sequence of elements: the factor with the most
        terms is packed once and every other factor is compiled and
        chained onto it (``_run``)."""
        most = -1
        for i, f in enumerate(factors):
            size = sum(map(len, f.parts))
            if size >= most:  # pack the last factor with the most terms
                j, most = i, size
        compile = self._compile
        return self._run(
            factors[j],
            [compile(f.lo, f.parts, True) for f in reversed(factors[:j])],
            [compile(f.lo, f.parts, False) for f in factors[j + 1 :]],
        )

    def _scalar(self, lo: int, xs):
        """The scalar whose alpha**i part has bit k -> s**(lo + k) of xs[i]."""
        if self.ring == "laurent":
            return LaurentScalar(lo, xs[0])
        return QEScalar(LaurentScalar(lo, xs[0]), LaurentScalar(lo, xs[1]))

    def scalar(self, c) -> "CliffordElement":
        return self.from_terms({0: c})

    def gen(self, i: int) -> "CliffordElement":
        """Generator i of the vector module: 0 is u, 1..m are the v_i."""
        if not 0 <= i <= self.m:
            raise IndexError(f"generator index {i} out of range 0..{self.m}")
        return self._gens[i]

    def u(self) -> "CliffordElement":
        return self.gen(0)

    def v(self, i: int) -> "CliffordElement":
        if not 1 <= i <= self.m:
            raise IndexError(f"v-index {i} out of range 1..{self.m}")
        return self.gen(i)

    def vector(self, coeffs) -> "CliffordElement":
        coeffs = tuple(coeffs)
        if len(coeffs) != self.m + 1:
            raise ValueError("need one coefficient per generator")
        return self.from_terms({1 << i: c for i, c in enumerate(coeffs)})

    def from_terms(self, terms: dict) -> "CliffordElement":
        """The element sum(c * mono) of a {mono: scalar} dict."""
        coeffs = []  # (power of alpha, mono, nonzero Laurent coefficient)
        for mono, c in terms.items():
            if isinstance(c, LaurentScalar):
                c = self.lift(c)
            pieces = (c,) if self.ring == "laurent" else (c.c0, c.c1)
            coeffs += ((i, mono, x) for i, x in enumerate(pieces) if x.mask)
        lo = min((x.off for *_, x in coeffs), default=0)
        parts = [[]] if self.ring == "laurent" else [[], []]
        for i, mono, x in coeffs:
            parts[i].append((mono, x.mask << (x.off - lo)))
        return _canonical(self, lo, parts)

    def radical_element(self) -> "CliffordElement":
        """u + v_1 + ... + v_m embedded in the algebra."""
        return self.vector((self.scalar_one,) * (self.m + 1))

    def __eq__(self, other):
        return (
            isinstance(other, CliffordAlgebra)
            and self.m == other.m
            and self.ring == other.ring
        )

    def __hash__(self):
        return hash((self.m, self.ring))

    def __repr__(self):
        return f"CliffordAlgebra(m={self.m}, ring={self.ring!r})"


def _canonical(algebra, lo, parts) -> "CliffordElement":
    """The canonical element whose alpha**i coefficient on mono is bit k
    -> s**(lo + k) of x, for each (mono, x) pair in parts[i]; each mono
    appears at most once per part and zeros may appear."""
    parts = [{mono: x for mono, x in part if x} for part in parts]
    low = _or_all(parts)
    if not low:
        return CliffordElement(algebra, 0, tuple(parts))
    shift = (low & -low).bit_length() - 1
    if shift:
        parts = [{mono: x >> shift for mono, x in part.items()} for part in parts]
    return CliffordElement(algebra, lo + shift, tuple(parts))


_ALGEBRAS: dict = {}


def get_algebra(m: int, ring: str = "laurent") -> CliffordAlgebra:
    key = (m, ring)
    alg = _ALGEBRAS.get(key)
    if alg is None:
        alg = _ALGEBRAS[key] = CliffordAlgebra(m, ring)
    return alg


class CliffordElement:
    """A finite scalar combination of basis monomials, kept canonical.

    ``parts[i]`` maps each monomial with a nonzero alpha**i coefficient
    to that coefficient as a raw int, bit k standing for s**(lo + k)
    (see the module docstring); ``terms`` is the {mono: scalar} view,
    built on each read."""

    __slots__ = ("algebra", "lo", "parts")

    def __init__(self, algebra: CliffordAlgebra, lo: int, parts: tuple):
        self.algebra = algebra
        self.lo = lo
        self.parts = parts

    def _check_ambient(self, other):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise MixedAmbientError(
                f"cannot combine {self.algebra!r} with {other.algebra!r}"
            )

    def __add__(self, other):
        self._check_ambient(other)
        lo = min(self.lo, other.lo)
        sa, sb = self.lo - lo, other.lo - lo
        parts = []
        for x, y in zip(self.parts, other.parts):
            acc = {mono: c << sa for mono, c in x.items()}
            for mono, c in y.items():
                acc[mono] = acc.get(mono, 0) ^ c << sb
            parts.append(acc.items())
        return _canonical(self.algebra, lo, parts)

    __sub__ = __add__

    def __mul__(self, other):
        self._check_ambient(other)
        return self.algebra._product((self, other))

    def __pow__(self, k: int):
        if k < 0:
            return cl_inverse(self) ** (-k)
        return pow_by_squaring(self, k) if k else self.algebra.one

    def scale(self, c) -> "CliffordElement":
        """c * self.  A monomial s**k (a Laurent unit) only moves ``lo``;
        any other scalar takes a product."""
        low = c.c0 if isinstance(c, QEScalar) and not c.c1.mask else c
        if isinstance(low, LaurentScalar) and low.mask == 1 and self:
            return CliffordElement(self.algebra, self.lo + low.off, self.parts)
        return self * self.algebra.scalar(c)

    def transpose(self) -> "CliffordElement":
        parts = [acc.items() for acc in _transposed(self.parts)]
        return _canonical(self.algebra, self.lo, parts)

    # -- views -------------------------------------------------------------

    def _monos(self) -> set:
        """The monomials with a nonzero coefficient."""
        return set().union(*self.parts)

    def _coeff(self, mono: int):
        """The scalar coefficient of mono."""
        return self.algebra._scalar(self.lo, [part.get(mono, 0) for part in self.parts])

    @property
    def terms(self) -> dict:
        """{mono: scalar} for each nonzero coefficient, built on each read."""
        return {mono: self._coeff(mono) for mono in sorted(self._monos())}

    def __bool__(self):
        return any(self.parts)

    @property
    def is_scalar(self):
        return self._monos() <= {0}

    def scalar_part(self):
        return self._coeff(0)

    @property
    def is_identity(self):
        first, *rest = self.parts
        return self.lo == 0 and first == {0: 1} and not any(rest)

    def parity(self):
        """0 or 1 if homogeneous in the Z2-grading, else None."""
        ps = {mono.bit_count() & 1 for mono in self._monos()}
        if len(ps) == 1:
            return ps.pop()
        return None if ps else 0

    @property
    def is_even(self):
        return all(mono.bit_count() & 1 == 0 for mono in self._monos())

    def as_vector(self) -> tuple:
        """Coefficients on the generators; raises if other monomials appear."""
        alg = self.algebra
        monos = self._monos()
        for mono in monos:
            if mono.bit_count() != 1:
                raise NotCliffordGroupError(
                    f"element has a non-vector component on monomial {bin(mono)}"
                )
        out = [alg.scalar_zero] * (alg.m + 1)
        for mono in monos:
            out[mono.bit_length() - 1] = self._coeff(mono)
        return tuple(out)

    def to_json(self):
        return [[mono, c.to_json()] for mono, c in self.terms.items()]

    def __eq__(self, other):
        return (
            isinstance(other, CliffordElement)
            and self.algebra == other.algebra
            and self.lo == other.lo
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash(
            (self.algebra, self.lo, tuple(frozenset(p.items()) for p in self.parts))
        )

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for mono, c in terms.items():
            names = ["u" if i == 0 else f"v{i}" for i in _bits(mono)]
            word = "*".join(names) if names else "1"
            cs = str(c)
            if not names:
                parts.append(cs)
            elif cs == "1":
                parts.append(word)
            elif "+" in cs or " " in cs:
                parts.append(f"({cs})*{word}")
            else:
                parts.append(f"{cs}*{word}")
        return " + ".join(parts)

    def __repr__(self):
        return f"CliffordElement<{self}>"


# -- pin representation ------------------------------------------------------


class PinRep(Representation):
    """Letter images inside the Clifford algebra (see module docstring)."""

    name = "pin"

    def __init__(self, m: int, ring: str = "laurent"):
        alg = get_algebra(m, ring)
        self.algebra = alg
        s_elem = alg.scalar(S)
        u = alg.u()
        images = {
            TAU: u,
            A: s_elem * u * alg.v(1),
            A_INV: s_elem * alg.v(1) * u,
        }
        for i in range(1, m):
            pair = alg.v(i) + alg.v(i + 1)
            images[st_letter(i)] = pair
            images[s_letter(i)] = u * pair
        super().__init__(m, images, alg.one)
        # letter -> the right-action program of its image, built on the
        # letter's first use
        self._programs = {}

    def times(self, x: CliffordElement, word) -> CliffordElement:
        """x times the images of the letters of ``word``, in order, by one
        packed product: x is packed once and every letter acts by its
        kept program."""
        x._check_ambient(self.identity)
        programs = self._programs
        chain = []
        for letter in word:
            program = programs.get(letter)
            if program is None:
                image = self.image(letter)
                program = self.algebra._compile(image.lo, image.parts, False)
                programs[letter] = program
            chain.append(program)
        return self.algebra._run(x, (), chain)

    def product(self, word):
        """The image of a non-empty word: the first letter's image times
        the other letters (``times``), read by ``islice``, as a slice
        per word would put tuples of every word length on CPython's
        free lists."""
        return self.times(self.image(word[0]), islice(word, 1, None))


def _norm_slots(c: CliffordElement) -> tuple:
    """The spinor norm c * c^tr as (lo, xs), bit k of xs[i] standing for
    s**(lo + k) in its alpha**i part; raises NotScalarError if it is not
    scalar.  c is packed at the binary width and the right program of
    c^tr, compiled from c's parts, is chained on it (module docstring):
    no element is built for c^tr or for the product."""
    alg = c.algebra
    m = alg.m
    _, bits, _, steps = alg._compile(c.lo, _transposed(c.parts), False)
    spare = alg.ring == "laurent"
    width = _slot_width(_or_all(c.parts).bit_length(), max(bits - spare, 0), m)
    _, right, fold = alg._polybits_cache.get(width) or alg._actions(width)
    span = width << (m + 1)
    y = _chain(_pack(c.parts, width, 2 * m, span), steps, right, span, fold)
    full = (1 << width) - 1
    xs = [y >> i * span & full for i in range(len(c.parts))]
    for i, x in enumerate(xs):
        y ^= x << i * span
    if y:
        raise NotScalarError("spinor norm is not a pure scalar")
    return 2 * (c.lo - m), xs


def spinor_norm(c: CliffordElement):
    """The scalar c * c^tr; raises NotScalarError if it is not scalar."""
    return c.algebra._scalar(*_norm_slots(c))


def cl_inverse(c: CliffordElement) -> CliffordElement:
    """Inverse via the conjugation-norm trick (covers the Clifford group:
    if c * c^tr is a unit scalar, the inverse is c^tr / (c * c^tr))."""
    cbar = c.transpose()
    z = c * cbar
    if not z.is_scalar:
        raise NotUnitError("element norm is not scalar; inverse unavailable")
    try:
        nu_inv = z.scalar_part().inverse()
    except Exception as exc:
        raise NotUnitError(f"norm {z.scalar_part()} is not a unit") from exc
    cand = cbar.scale(nu_inv)
    if not (cand * c).is_identity or not (c * cand).is_identity:
        raise NotUnitError("candidate inverse failed verification")
    return cand


def conjugation_matrix(c: CliffordElement) -> RMatrix:
    """Matrix of v -> c^-1 v c on the vector module (rows are images):
    row i is c^-1 x_i c, one three-factor product each."""
    alg = c.algebra
    c_inv = cl_inverse(c)
    return RMatrix(alg._product((c_inv, x, c)).as_vector() for x in alg._gens)


def intertwines(c: CliffordElement, mat: RMatrix) -> bool:
    """True iff x_i * c == c * sum_j mat[i][j] x_j for every generator
    x_i: with spinor norm 1, iff conjugation by c is ``mat`` (module
    docstring).  The right actions c * x_j are taken once and shared by
    the rows; each row is compared with one left action x_i * c."""
    alg = c.algebra
    m = alg.m
    if mat.size != m + 1:
        return False
    rows = [
        [
            (j, b, piece)
            for j, x in row.items()
            for b, piece in enumerate((x.c0, x.c1) if isinstance(x, QEScalar) else (x,))
            if piece.mask
        ]
        for row in mat.entries
    ]
    # the entries and x_i * c shifted up to one base s**low
    pieces = [piece for row in rows for *_, piece in row]
    low = min([0] + [p.off for p in pieces])
    top = max([1] + [p.off + p.mask.bit_length() for p in pieces])
    width = _slot_width(_or_all(c.parts).bit_length(), top - low, m)
    left, right, fold = alg._polybits_cache.get(width) or alg._actions(width)
    span = width << (m + 1)
    x = _pack(c.parts, width, 2 * m, span)
    acts = [_act(x, right[m - j]) for j in range(m + 1)]  # c * x_j
    for i, row in enumerate(rows):
        acc = 0
        for j, b, piece in row:
            y = acts[j] << b * span + piece.off - low
            mask = piece.mask
            while mask:
                one = mask & -mask
                acc ^= y << one.bit_length() - 1
                mask ^= one
        if _fold(acc, fold, span) != _act(x, left[i]) << -low:
            return False
    return True


def lifts(c: CliffordElement, mat: RMatrix) -> bool:
    """True iff pi(c) == mat: c has spinor norm 1, which makes c^-1 =
    c^tr, and ``intertwines(c, mat)`` (the module docstring has the
    proof).  The one place where the two are judged together; the norm
    is compared with 1 on its packed slots (``_norm_slots``), and raises
    NotScalarError if it is not scalar."""
    lo, xs = _norm_slots(c)
    if lo > 0 or xs[0] != 1 << -lo or any(xs[1:]):
        return False
    return intertwines(c, mat)


# -- power identities --------------------------------------------------------


class PowerSeq(Record):
    """The coefficient pair of (u v_i)**k = a_k + b_k u v_i."""

    __slots__ = ("k", "a", "b")


def power_sequences(kmax: int) -> list:
    """PowerSeq values for k = 0..kmax via a_k = a_{k-1} + a_{k-2}/t."""
    if kmax < 0:
        raise ValueError("need kmax >= 0")
    a_prev, a_cur = L_ONE, L_ZERO  # a_0, a_1
    b_prev, b_cur = L_ZERO, L_ONE  # b_0, b_1
    out = [PowerSeq(0, a_prev, b_prev)]
    if kmax >= 1:
        out.append(PowerSeq(1, a_cur, b_cur))
    for k in range(2, kmax + 1):
        a_prev, a_cur = a_cur, a_cur + T_INV * a_prev
        b_prev, b_cur = b_cur, b_cur + T_INV * b_prev
        out.append(PowerSeq(k, a_cur, b_cur))
    return out


def check_power_identities(k: int) -> PowerSeq:
    """Verify (u v_i)**k = a_k + b_k u v_i, its v_i u mirror, and the
    exchange identity (v_1 u)**k (v_2 u)**k = (u v_2)**k (u v_1)**k, all
    by direct powering in the m = 3 algebra; returns the coefficient pair."""
    seq = power_sequences(k)[k]
    alg = get_algebra(3, "laurent")
    u = alg.u()
    for i in (1, 2):
        uv = u * alg.v(i)
        vu = alg.v(i) * u
        want_uv = alg.scalar(seq.a) + uv.scale(seq.b)
        want_vu = alg.scalar(seq.a) + vu.scale(seq.b)
        if uv ** k != want_uv:
            raise MismatchError(f"(u v{i})^{k} != a_k + b_k u v{i}")
        if vu ** k != want_vu:
            raise MismatchError(f"(v{i} u)^{k} != a_k + b_k v{i} u")
    lhs = (alg.v(1) * u) ** k * (alg.v(2) * u) ** k
    rhs = (u * alg.v(2)) ** k * (u * alg.v(1)) ** k
    if lhs != rhs:
        raise MismatchError(f"exchange identity failed at k={k}")
    return seq


# -- centre and kernel -------------------------------------------------------


class CenterReport(Record):
    __slots__ = ("m", "radical_is_central", "witness", "specialized_dim")


def _center_rows(alg) -> dict:
    """{(j, mono): row} for the commutators x_j M + M x_j: bit M of the
    row is the coefficient of mono in the commutator with monomial M."""
    ncols = 1 << (alg.m + 1)
    rows: dict = {}
    for j, (left, right) in enumerate(zip(*alg._extras)):
        for k in left + right:
            for col in range(ncols):
                if col >> k & 1:
                    key = j, col ^ 1 << k
                    rows[key] = rows.get(key, 0) ^ 1 << col
    return rows


def center_report(m: int) -> CenterReport:
    """Symbolic centrality of 1 and r = u + v_1 + ... + v_m, plus the
    dimension of the centre of the algebra specialized at any order n.

    The dimension is computed by exact linear algebra: z is central iff
    it commutes with every generator, a linear condition on the 2**(m+1)
    monomial coefficients.  By the generator actions of the module
    docstring, x_j M and M x_j share the main term q_j**[j in M] (M ^ j),
    so it cancels and

        x_j M + M x_j = sum(M ^ k for k in M, k != j),

    read off the same ``_extras`` table the products use.  Every
    coefficient is 1: the system lies over GF(2), and its nullity is the
    same in every GF(2**d) the evaluation maps reach.  The rows are
    GF(2) bit masks over the monomial columns, ranked by ``gf2_rank``.
    """
    if not 3 <= m <= 8:
        raise ValueError(f"need 3 <= m <= 8, got {m}")
    alg = get_algebra(m, "laurent")
    r = alg.radical_element()
    witness = None
    radical_central = True
    for i in range(m + 1):
        g = alg.gen(i)
        if r * g + g * r:
            radical_central = False
            witness = "u" if i == 0 else f"v{i}"
            break
    return CenterReport(
        m=m,
        radical_is_central=radical_central,
        witness=witness,
        specialized_dim=(1 << (m + 1)) - gf2_rank(_center_rows(alg).values()),
    )


def kernel_element(m: int, lam: LaurentScalar) -> CliffordElement:
    """A norm-one central element: 1 + lam*r when m = 2 mod 4 (q(r) = 0)
    and 1 + lam*(1 + r) when m = 0 mod 4 (q(r) = 1).  Verified by
    ``lifts`` to lift the identity matrix."""
    if m % 2:
        raise ValueError(f"kernel elements exist only for even m, got {m}")
    alg = get_algebra(m, "laurent")
    r = alg.radical_element()
    core = r if m % 4 == 2 else alg.one + r
    z = alg.one + core.scale(lam)
    if not lifts(z, RMatrix.identity(m + 1, L_ONE, L_ZERO)):
        raise MismatchError("kernel candidate is not a norm-one element of ker(pi)")
    return z
