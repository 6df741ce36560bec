"""The Clifford algebra of the quadratic module, and the pin-group
representation inside it.

Basis monomials are bit masks over the ordered generators
u < v_1 < ... < v_m (bit 0 is u, bit i is v_i).  Products rewrite to
canonical ascending order with the two relations

    x_j x_i = x_i x_j + 1      (i < j; all distinct pairs pair to 1)
    u u = 1,   v_i v_i = 1/t

Each swap strictly lowers the inversion count and each square strictly
shortens the word, so rewriting terminates.  The coefficients produced
by rewriting are powers of 1/t, so the structure constants of a
monomial product are ring-independent: they are ``{mono: polybits}``
where bit e of ``polybits`` is the coefficient of t**-e, folded one
generator at a time from the globally cached generator products.  Only
a squared v_i contributes 1/t, so e <= m.

An element keeps its coefficients as raw ints over a common base
``lo``, in ``parts``: one ``{mono: int}`` dict per power of alpha (one
for the Laurent ring, two for c0 + c1*alpha), bit k standing for
s**(lo + k).  It is canonical: no zero int is stored, and ``lo`` is
chosen so that the OR of all stored ints is odd (the zero element has
``lo = 0``).  Scalar objects are built only by the views (``terms``,
``scalar_part``, ``as_vector``); products work on the ints directly.
Term pairs multiply with the carry-less ``_clmul``, and each structure
constant is weighted by its *spread* mask: polybits bit e moves to bit
2*(m - e), i.e. s**-2e relative to the fixed base s**-2m, one table
entry per bit so that every weight is a shift.  A monomial pair's constants are stored once
per algebra, as its spread table, keyed by the one int
p * (N + 1) + q for the pair (p, q), N = 2**(m+1) being the number of
monomials.  The accumulator is a plain list of N ints per power of
alpha, XOR-updated in the inlined entry loop with no function call per
term pair; alpha**2 = s*alpha + 1 folds alpha**2 back.  A transpose is
the same loop against a formal right factor q = N, which no monomial
can equal, whose structure constants are the reversals.

The pin representation sends

    t -> u,   a -> s u v_1,   S<i> -> v_i + v_{i+1},

all of which have spinor norm c * c^tr = 1.  Conjugation v -> c^-1 v c
by such elements preserves the vector module and recovers the
transvection representation row for row.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _clmul,
    gf2_rank,
    pow_by_squaring,
)

# -- monomial structure constants (shared across algebras) -----------------
# Keys are monomials of the largest algebra in use, so there are at most
# (m+1) * 2**(m+1) generator products, as many generator-by-monomial
# pairs (``center_report``'s) and 2**(m+1) transposes.

_MTG_CACHE: dict = {}
_MTM_CACHE: dict = {}
_TR_CACHE: dict = {}


def _xor_into(acc: dict, c: int, pairs) -> dict:
    """acc[mono] ^= c * w for each (mono, w) in pairs, for the structure
    constants and ``center_report``; the product kernel inlines its own.
    Either c or every w is a power of two, so c * w is the carry-less
    product.  Zeros stay in acc; readers skip them."""
    get = acc.get
    for mono, w in pairs:
        acc[mono] = get(mono, 0) ^ c * w
    return acc


def _mono_times_gen(mono: int, j: int):
    """Product (monomial) * (generator j) as ((mono', w), ...) pairs, the
    coefficient of mono' being t**-e with polybits w = 2**e."""
    hit = _MTG_CACHE.get((mono, j))
    if hit is None:
        k = mono.bit_length() - 1  # the top generator, -1 for the scalar 1
        if k < j:
            hit = ((mono | 1 << j, 1),)
        elif k == j:
            hit = ((mono ^ 1 << j, 1 if j == 0 else 2),)
        else:  # x_k x_j = x_j x_k + 1
            rest = mono ^ 1 << k
            hit = tuple((m2 | 1 << k, w) for m2, w in _mono_times_gen(rest, j))
            hit += ((rest, 1),)
        _MTG_CACHE[mono, j] = hit
    return hit


def _fold_gens(mono: int, gens) -> dict:
    """{mono': polybits} of mono times the generators in order."""
    state = {mono: 1}
    for j in gens:
        nxt: dict = {}
        for m2, poly in state.items():
            _xor_into(nxt, poly, _mono_times_gen(m2, j))
        state = nxt
    return {m2: poly for m2, poly in state.items() if poly}


def _bits(mono: int) -> list:
    """Indices of the set bits of a monomial or polybits, ascending."""
    return [i for i in range(mono.bit_length()) if mono >> i & 1]


def _mono_times_mono(p: int, q: int) -> dict:
    """Product of two monomials as a {mono: polybits} dict, cached for
    ``center_report``; products keep theirs as spread tables instead."""
    hit = _MTM_CACHE.get((p, q))
    if hit is None:
        hit = _MTM_CACHE[p, q] = _fold_gens(p, _bits(q))
    return hit


def _mono_transpose(mono: int) -> dict:
    """The reversed product of a monomial's generators, canonicalized."""
    hit = _TR_CACHE.get(mono)
    if hit is None:
        hit = _TR_CACHE[mono] = _fold_gens(0, reversed(_bits(mono)))
    return hit


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
        # the number of monomials; also the formal transpose factor's index
        self._dim = 1 << (m + 1)
        # p * (dim + 1) + q -> the structure constants of p * q and
        # p * (dim + 1) + dim -> _TR_CACHE[p], as ((mono', spread), ...);
        # at most 4**(m+1) + 2**(m+1) entries.
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

    def _spread_table(self, p: int, q: int) -> tuple:
        consts = _mono_transpose(p) if q == self._dim else _fold_gens(p, _bits(q))
        table = self._polybits_cache[p * (self._dim + 1) + q] = tuple(
            (mono, 1 << 2 * (self.m - e))
            for mono, pb in consts.items() for e in _bits(pb)
        )
        return table

    def _kernel(self, a, b) -> "CliffordElement":
        """a * b over raw ints; b = None gives the transpose of a."""
        dim = self._dim
        xs = a.parts
        lb, ys = (0, ({dim: 1},)) if b is None else (b.lo, b.parts)
        tables = self._polybits_cache
        stride = dim + 1
        parts = [[0] * dim for _ in range(len(xs) + len(ys) - 1)]
        for i, xi in enumerate(xs):
            for j, yj in enumerate(ys):
                acc = parts[i + j]
                for p, x in xi.items():
                    row = p * stride
                    x_wide = x & (x - 1)
                    for q, y in yj.items():
                        # a power of two on either side: * is carry-less
                        c = _clmul(x, y) if x_wide and y & (y - 1) else x * y
                        table = tables.get(row + q)
                        if table is None:
                            table = self._spread_table(p, q)
                        for mono, w in table:
                            acc[mono] ^= c * w
        return self._build(a.lo + lb - 2 * self.m, parts)

    def _build(self, lo, parts) -> "CliffordElement":
        """The element with alpha**i coefficient parts[i][mono], a dense
        list of raw ints over the base lo."""
        if len(parts) == 3:  # alpha**2 = s*alpha + 1
            top = parts.pop()
            c0, c1 = parts
            for mono, x in enumerate(top):
                if x:
                    c1[mono] ^= x << 1
                    c0[mono] ^= x
        return _canonical(self, lo, [enumerate(part) for part in parts])

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
    low = 0
    for part in parts:
        for x in part.values():
            low |= x
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
        return self.algebra._kernel(self, None)

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


def center_report(m: int) -> CenterReport:
    """Symbolic centrality of 1 and r = u + v_1 + ... + v_m, plus the
    dimension of the centre of the algebra specialized at any order n.

    The dimension is computed by exact linear algebra: z is central iff
    it commutes with every generator, a linear condition on the 2**(m+1)
    monomial coefficients.  Moving x_j across a monomial uses only
    x_i x_j + x_j x_i = 1, so each commutator [x_j, x] is a sum of
    monomials with coefficient 1 (the q(x_j) terms cancel): the system
    lies over GF(2), and its nullity is the same in every GF(2**d) the
    evaluation maps reach.  Each surviving structure constant is checked
    to be exactly 1 (MismatchError otherwise); the rows are GF(2) bit
    masks over the monomial columns, ranked by ``gf2_rank``.
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
    ncols = 1 << (m + 1)
    rows: dict = {}
    for j in range(m + 1):
        for col in range(ncols):
            comm = _xor_into({}, 1, _mono_times_gen(col, j))
            _xor_into(comm, 1, _mono_times_mono(1 << j, col).items())
            for mono, poly in comm.items():
                if poly > 1:  # polybits: a power of 1/t other than t**0
                    raise MismatchError(f"[x{j}, {col:b}] has {poly:b} on {mono:b}")
                if poly:
                    rows[j, mono] = rows.get((j, mono), 0) ^ 1 << col
    return CenterReport(
        m=m,
        radical_is_central=radical_central,
        witness=witness,
        specialized_dim=ncols - gf2_rank(rows.values()),
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
