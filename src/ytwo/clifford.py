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

A product packs one factor's parts into a single int with a W-bit slot
per monomial: slot M of the alpha**i block sits at bit (i*N + M)*W,
N = 2**(m+1), and holds the coefficient int shifted up by 2m, i.e. over
the fixed base s**(lo - 2m).  Multiplying by one generator then acts on
every slot at once.  Moving x_g through a canonical monomial M gives

    x_g M = q_g**[g in M] (M ^ g) + sum(M ^ k for k in M, k < g)
    M x_g = q_g**[g in M] (M ^ g) + sum(M ^ k for k in M, k > g)

with q_0 = 1 and q_i = 1/t = s**-2, and no signs.  On the packed int,
with mask_g the slots whose monomial holds g and hi = X & mask_g, the
main term is (hi >> (W << g) + 2*[g >= 1]) | ((X ^ hi) << (W << g)), and
each extra term is (X & mask_k) >> (W << k).  A square only lowers a
coefficient, at most m times along one monomial, so the 2m bits below
every coefficient keep it at or above bit 0 and the base stays fixed.
a * b is the sum over the monomials p of one factor of its coefficient
times the chain x_p * b (left actions on packed b, g1 < ... < gk the
generators of p, x_g1 * (x_g2 * ...)) or a * x_p (right actions on
packed a), whichever factor has fewer terms is chained; chains share
their suffixes within one product.  Each set bit of a coefficient is
one shift-XOR of a whole chain, a factor's alpha**i part lands in block
i of the accumulator, and alpha**2 = s*alpha + 1 folds the third block
back.  With la and lb the bit lengths of the factors' ORed ints, a
product coefficient has la + lb - 1 bits above the 2m below it and the
fold adds one, so W = la + lb + 2m, rounded up to a multiple of 16,
holds every slot.  The result is unpacked by walking its lowest set bit, so
the cost follows the nonzero slots.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
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


def _slot_width(la: int, lb: int, m: int) -> int:
    """Bits per packed slot for a product of factors whose ints have bit
    lengths la and lb: the carry-less product has la + lb - 1 bits, the
    fixed base puts 2m bits below them and the alpha**2 fold adds one on
    top.  Rounded up to a multiple of 16, so that products share few
    widths: each width keeps m + 1 masks as long as a packed element."""
    return (la + lb + 2 * m + 15) & -16


def _or_all(parts) -> int:
    """The OR of the ints stored in a sequence of {mono: int} dicts."""
    low = 0
    for part in parts:
        low |= reduce(or_, part.values(), 0)
    return low


def _laurent(lo: int, x: int) -> LaurentScalar:
    """The scalar with coefficient of s**(lo + k) at bit k of x."""
    if not x:
        return L_ZERO
    shift = (x & -x).bit_length() - 1
    return LaurentScalar._new(lo + shift, x >> shift)


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
        # Products act by generators on packed ints (module docstring):
        # slot M of the alpha**i block at bit (i * 2**(m+1) + M) * W, each
        # coefficient over the fixed base s**(lo - 2m), and W = la + lb +
        # 2m rounded up to a multiple of 16.  x_g * M and M * x_g are
        # q_g**[g in M] (M ^ g) plus M ^ k for each k in M on one side of
        # g: q_g = s**-square_shift[g] (u**2 = 1, v_i**2 = 1/t = s**-2),
        # and extras[0][g] (left, k < g) or extras[1][g] (right, k > g)
        # lists the k.
        self._square_shift = (0,) + (2,) * m
        self._extras = (
            tuple(tuple(range(g)) for g in range(m + 1)),
            tuple(tuple(range(g + 1, m + 1)) for g in range(m + 1)),
        )
        # W -> _actions(W), built on first use: one entry per slot width,
        # and rounding W keeps the entries few.  (perfbench's
        # cache_entries counts it under this name.)
        self._polybits_cache: dict = {}
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
        """The generator actions on packed ints with ``width``-bit slots,
        one table per side (left, right), cached per width.  Entry g is
        (mask, up, down, extras): ``mask`` covers every slot whose
        monomial holds g, over one block of 2**(m+1) slots per power of
        alpha; the slots outside it move up by ``up`` = width << g (M to
        M | g), those inside down by ``down`` (M to M ^ g, with the
        square's s**-2 for a v-generator); ``extras`` holds a (mask,
        shift) pair per anticommutator generator k."""
        total = (width << (self.m + 1)) * len(self.zero.parts)
        steps = []
        for g in range(self.m + 1):
            shift = width << g
            mask, span = ((1 << shift) - 1) << shift, shift << 1
            while span < total:
                mask |= mask << span
                span <<= 1
            steps.append((mask, shift))
        square = self._square_shift
        sides = self._polybits_cache[width] = tuple(
            tuple(
                (mask, shift, shift + square[g], tuple(steps[k] for k in ks[g]))
                for g, (mask, shift) in enumerate(steps)
            )
            for ks in self._extras
        )
        return sides

    def _kernel(self, a, b) -> "CliffordElement":
        """a * b by packed generator actions (see the module docstring)."""
        m = self.m
        xs, ys = a.parts, b.parts
        left = sum(map(len, xs)) <= sum(map(len, ys))
        chained, packed = (xs, ys) if left else (ys, xs)
        width = _slot_width(_or_all(xs).bit_length(), _or_all(ys).bit_length(), m)
        sides = self._polybits_cache.get(width) or self._actions(width)
        actions = sides[0 if left else 1]
        span = width << (m + 1)  # the bits of one power of alpha
        x = 0
        base = 2 * m
        for part in packed:
            for mono, c in part.items():
                x |= c << (base + mono * width)
            base += span
        # p -> the generator whose action takes p ^ (1 << g) to p: the
        # lowest for x_g * (...), the highest for (...) * x_g
        todo: dict = {}
        for part in chained:
            for p in part:
                while p and p not in todo:
                    g = (p & -p if left else p).bit_length() - 1
                    todo[p] = g
                    p ^= 1 << g
        chains = {0: x}
        for p in sorted(todo):
            g = todo[p]
            x = chains[p ^ 1 << g]
            mask, up, down, extras = actions[g]
            hi = x & mask
            y = hi >> down | (x ^ hi) << up
            for mask, shift in extras:
                y ^= (x & mask) >> shift
            chains[p] = y
        acc = 0
        base = 0
        for part in chained:
            for p, c in part.items():
                y = chains[p]
                while c:
                    low = c & -c
                    acc ^= y << (base + low.bit_length() - 1)
                    c ^= low
            base += span
        if len(xs) == 2:  # alpha**2 = s*alpha + 1
            top = acc >> 2 * span
            acc ^= (top << 2 * span) ^ top ^ (top << (span + 1))
        parts = [[] for _ in xs]
        full, last = (1 << width) - 1, (1 << (m + 1)) - 1
        slot = 0  # the slot at bit 0 of acc
        while acc:
            skip = ((acc & -acc).bit_length() - 1) // width
            slot += skip
            acc >>= skip * width
            parts[slot >> (m + 1)].append((slot & last, acc & full))
            acc >>= width
            slot += 1
        return _canonical(self, a.lo + b.lo - 2 * m, parts)

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
        return self.algebra._kernel(self, other)

    def __pow__(self, k: int):
        if k < 0:
            return cl_inverse(self) ** (-k)
        return pow_by_squaring(self, k) if k else self.algebra.one

    def scale(self, c) -> "CliffordElement":
        return self * self.algebra.scalar(c)

    def transpose(self) -> "CliffordElement":
        parts = []
        for part in self.parts:
            acc: dict = {}
            for mono, x in part.items():
                for sub in _mono_transpose(mono):
                    acc[sub] = acc.get(sub, 0) ^ x
            parts.append(acc.items())
        return _canonical(self.algebra, self.lo, parts)

    # -- views -------------------------------------------------------------

    def _monos(self) -> set:
        """The monomials with a nonzero coefficient."""
        return set().union(*self.parts)

    def _coeff(self, mono: int):
        """The scalar coefficient of mono."""
        lo = self.lo
        if self.algebra.ring == "laurent":
            return _laurent(lo, self.parts[0].get(mono, 0))
        c0, c1 = self.parts
        return QEScalar(_laurent(lo, c0.get(mono, 0)), _laurent(lo, c1.get(mono, 0)))

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
        super().__init__(images, alg.one)


def spinor_norm(c: CliffordElement):
    """The scalar c * c^tr; raises NotScalarError if it is not scalar."""
    prod = c * c.transpose()
    if not prod.is_scalar:
        raise NotScalarError("spinor norm is not a pure scalar", element=prod)
    return prod.scalar_part()


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
    """Matrix of v -> c^-1 v c on the vector module (rows are images)."""
    alg = c.algebra
    c_inv = cl_inverse(c)
    rows = []
    for i in range(alg.m + 1):
        y = c_inv * alg.gen(i) * c
        rows.append(y.as_vector())
    return RMatrix(rows)


# -- power identities --------------------------------------------------------


@dataclass(frozen=True)
class PowerSeq:
    """The coefficient pair of (u v_i)**k = a_k + b_k u v_i."""

    k: int
    a: LaurentScalar
    b: LaurentScalar


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


def check_power_identities(k: int, m: int = 3) -> PowerSeq:
    """Verify (u v_i)**k = a_k + b_k u v_i, its v_i u mirror, and the
    exchange identity (v_1 u)**k (v_2 u)**k = (u v_2)**k (u v_1)**k, all
    by direct algebra powering; returns the coefficient pair."""
    seq = power_sequences(k)[k]
    alg = get_algebra(m, "laurent")
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


@dataclass
class CenterReport:
    m: int
    radical_is_central: bool
    witness: str | None
    specialized_dim: int


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
    and 1 + lam*(1 + r) when m = 0 mod 4 (q(r) = 1).  Verified to have
    spinor norm 1 and to conjugate every vector trivially."""
    if m % 2:
        raise ValueError(f"kernel elements exist only for even m, got {m}")
    alg = get_algebra(m, "laurent")
    r = alg.radical_element()
    core = r if m % 4 == 2 else alg.one + r
    z = alg.one + core.scale(lam)
    norm = spinor_norm(z)
    if not norm.is_one:
        raise MismatchError(f"kernel candidate has spinor norm {norm}")
    if not conjugation_matrix(z).is_identity:
        raise MismatchError("kernel candidate does not centralize the module")
    return z
