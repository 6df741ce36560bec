"""Exact scalar arithmetic in characteristic two.

Three levels of scalars, all values by convention: plain ``__slots__``
classes whose fields are never assigned after construction, so
arithmetic returns new objects and constants such as ``L_ZERO`` are
shared freely.  Nothing enforces this at run time.  The records of the
other modules are plain ``__slots__`` classes too, on ``Record``.

* ``LaurentScalar`` -- an element of GF(2)[s, 1/s].  A scalar is stored
  as an integer bit mask together with the exponent of its lowest term:
  bit i of ``mask`` is the coefficient of s**(off + i).  Canonical form
  has ``mask == 0`` (the zero scalar, with ``off == 0``) or ``mask`` odd.
  The symbol t is identified with s**2, so GF(2)[t, 1/t] is the subring
  of scalars supported on even exponents.
* ``QEScalar`` -- an element of the quadratic extension by a root
  ``alpha`` of x**2 + s*x + 1, stored as a pair of Laurent scalars
  c0 + c1*alpha.  Note alpha is a unit: alpha * (s + alpha) = 1.
* ``FFElement`` -- an element of a finite field GF(2**d), stored as a
  bit mask reduced modulo a fixed irreducible polynomial.

Addition is always XOR of coefficient masks; multiplication of masks is
carry-less (shift and XOR), so all operations are exact.

``EvalMap`` ties the levels together: for odd n it sends alpha to a
primitive n-th root of unity zeta, hence s to zeta + 1/zeta and t to
zeta**2 + 1/zeta**2, and is a ring homomorphism on both scalar levels.
"""

import functools
import itertools

from .errors import (
    BadModulusError,
    EvenNError,
    FieldTooLargeError,
    NotUnitError,
    ZeroInputError,
)


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) coefficient masks."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b * low  # low is a power of two, so this is a shift
        a ^= low
    return acc


def pow_by_squaring(base, k: int):
    """base**k for k >= 1 by square-and-multiply; needs no identity."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _poly_str(exponents, var: str) -> str:
    """The terms var**e, in the given order, joined as "x^4 + x + 1"; "0"
    if there are none."""
    terms = ["1" if e == 0 else var if e == 1 else f"{var}^{e}" for e in exponents]
    return " + ".join(terms) or "0"


class Record:
    """A plain ``__slots__`` record: ``__slots__`` names the fields in
    constructor order, ``_defaults`` gives the optional ones their default
    (a type such as ``list`` stands for a fresh instance of it)."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls, names = type(self).__name__, self.__slots__
        # each keyword must name a field that no positional value filled
        if len(args) > len(names) or set(kwargs) - set(names[len(args) :]):
            raise TypeError(f"{cls} got too many, repeated or unknown fields")
        given = dict(zip(names, args), **kwargs)
        for name in names:
            if name not in given:
                if name not in self._defaults:
                    raise TypeError(f"{cls} needs the field {name!r}")
                value = self._defaults[name]
                given[name] = value() if isinstance(value, type) else value
            setattr(self, name, given[name])


class LaurentScalar:
    """A GF(2) Laurent polynomial in s (see module docstring)."""

    __slots__ = ("off", "mask")

    def __init__(self, off: int = 0, mask: int = 0):
        if mask == 0:
            off = 0
        else:
            shift = (mask & -mask).bit_length() - 1
            off += shift
            mask >>= shift
        self.off = off
        self.mask = mask

    @classmethod
    def _new(cls, off: int, mask: int) -> "LaurentScalar":
        # internal fast path: caller guarantees canonical (off, mask)
        self = object.__new__(cls)
        self.off = off
        self.mask = mask
        return self

    @classmethod
    def from_exponents(cls, exponents) -> "LaurentScalar":
        """Build a scalar from an iterable of s-exponents (an XOR set)."""
        mask = 0
        exps = list(exponents)
        if not exps:
            return L_ZERO
        lo = min(exps)
        for e in exps:
            mask ^= 1 << (e - lo)
        return cls(lo, mask)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        m1, m2 = self.mask, other.mask
        if not m1:
            return other
        if not m2:
            return self
        o1, o2 = self.off, other.off
        if o1 <= o2:
            m = m1 ^ (m2 << (o2 - o1))
            off = o1
        else:
            m = m2 ^ (m1 << (o1 - o2))
            off = o2
        if not m:
            return L_ZERO
        shift = (m & -m).bit_length() - 1
        return LaurentScalar._new(off + shift, m >> shift)

    __sub__ = __add__  # characteristic two

    def __mul__(self, other):
        m1, m2 = self.mask, other.mask
        if not m1 or not m2:
            return L_ZERO
        # a factor 1 returns the other operand itself: values are immutable
        if m1 == 1:
            if not self.off:
                return other
            return LaurentScalar._new(self.off + other.off, m2)
        if m2 == 1:
            if not other.off:
                return self
            return LaurentScalar._new(self.off + other.off, m1)
        # product of masks with odd low bits is odd: still canonical
        return LaurentScalar._new(self.off + other.off, _clmul(m1, m2))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if self.mask == 1:
            return LaurentScalar._new(self.off * k, 1)
        return pow_by_squaring(self, k) if k else L_ONE

    def inverse(self) -> "LaurentScalar":
        """Invert; only monomials s**k are units of GF(2)[s, 1/s]."""
        if self.mask == 0:
            raise ZeroInputError("cannot invert the zero scalar")
        if self.mask != 1:
            raise NotUnitError(f"{self} is not a unit (not a monomial)")
        return LaurentScalar._new(-self.off, 1)

    # -- predicates and views --------------------------------------------

    def __bool__(self):
        return self.mask != 0

    @property
    def is_one(self):
        return self.mask == 1 and self.off == 0

    @property
    def is_monomial(self):
        return self.mask == 1

    def exponents(self) -> tuple:
        """Sorted tuple of s-exponents with nonzero coefficient."""
        out = []
        m, base = self.mask, self.off
        while m:
            low = m & -m
            out.append(base + low.bit_length() - 1)
            m ^= low
        return tuple(out)

    def in_t_subring(self) -> bool:
        """True iff supported on even exponents only (a polynomial in t, 1/t)."""
        return all(e % 2 == 0 for e in self.exponents())

    def in_t_polynomial(self) -> bool:
        """True iff supported on even, nonnegative exponents (lies in GF(2)[t])."""
        return self.off >= 0 and self.in_t_subring()

    def to_json(self):
        return list(self.exponents())

    def __eq__(self, other):
        return (
            isinstance(other, LaurentScalar)
            and self.mask == other.mask
            and self.off == other.off
        )

    def __hash__(self):
        return hash((self.off, self.mask))

    def __str__(self):
        return _poly_str(self.exponents(), "s")

    def str_t(self):
        """Render in the variable t = s**2 (requires even support)."""
        if not self.in_t_subring():
            raise ValueError(f"{self} has odd exponents; not in the t-subring")
        return _poly_str([e // 2 for e in self.exponents()], "t")

    def __repr__(self):
        return f"LaurentScalar<{self}>"


L_ZERO = LaurentScalar._new(0, 0)
L_ONE = LaurentScalar._new(0, 1)
S = LaurentScalar._new(1, 1)
S_INV = LaurentScalar._new(-1, 1)
T = LaurentScalar._new(2, 1)
T_INV = LaurentScalar._new(-2, 1)


def s_pow(k: int) -> LaurentScalar:
    """The monomial s**k."""
    return LaurentScalar._new(k, 1)


class QEScalar:
    """c0 + c1*alpha with alpha**2 = s*alpha + 1."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: LaurentScalar, c1: LaurentScalar = L_ZERO):
        self.c0 = c0
        self.c1 = c1

    @classmethod
    def from_laurent(cls, x: LaurentScalar) -> "QEScalar":
        return cls(x, L_ZERO)

    def __add__(self, other):
        return QEScalar(self.c0 + other.c0, self.c1 + other.c1)

    __sub__ = __add__

    def __mul__(self, other):
        a0, a1 = self.c0, self.c1
        b0, b1 = other.c0, other.c1
        # a factor 1 returns the other operand itself, as for LaurentScalar
        if a0.mask == 1 and not a0.off and not a1.mask:
            return other
        if b0.mask == 1 and not b0.off and not b1.mask:
            return self
        p11 = a1 * b1
        return QEScalar(a0 * b0 + p11, a0 * b1 + a1 * b0 + p11 * S)

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return pow_by_squaring(self, k) if k else QE_ONE

    def conj(self) -> "QEScalar":
        """The Galois conjugate, swapping alpha and 1/alpha = s + alpha."""
        return QEScalar(self.c0 + self.c1 * S, self.c1)

    def norm(self) -> LaurentScalar:
        """The multiplicative norm c0**2 + c0*c1*s + c1**2 down in the Laurent ring."""
        prod = self * self.conj()
        if prod.c1.mask:
            raise ArithmeticError("norm computation produced an alpha term")
        return prod.c0

    def inverse(self) -> "QEScalar":
        if not self:
            raise ZeroInputError("cannot invert the zero scalar")
        n = self.norm()
        n_inv = n.inverse()  # NotUnitError propagates
        c = self.conj()
        return QEScalar(c.c0 * n_inv, c.c1 * n_inv)

    def __bool__(self):
        return bool(self.c0.mask or self.c1.mask)

    @property
    def is_one(self):
        return self.c0.is_one and not self.c1.mask

    def laurent_part(self) -> LaurentScalar:
        """Lower to the Laurent subring; raises if an alpha term remains."""
        if self.c1.mask:
            raise ValueError(f"{self} is not in the Laurent subring")
        return self.c0

    def to_json(self):
        return [self.c0.to_json(), self.c1.to_json()]

    def __eq__(self, other):
        return (
            isinstance(other, QEScalar)
            and self.c0 == other.c0
            and self.c1 == other.c1
        )

    def __hash__(self):
        return hash((self.c0, self.c1))

    def __str__(self):
        if not self:
            return "0"
        parts = []
        if self.c0.mask:
            parts.append(str(self.c0))
        if self.c1.mask:
            coeff = str(self.c1)
            if coeff == "1":
                parts.append("alpha")
            elif self.c1.is_monomial:
                parts.append(f"{coeff}*alpha")
            else:
                parts.append(f"({coeff})*alpha")
        return " + ".join(parts)

    def __repr__(self):
        return f"QEScalar<{self}>"


QE_ZERO = QEScalar(L_ZERO, L_ZERO)
QE_ONE = QEScalar(L_ONE, L_ZERO)
ALPHA = QEScalar(L_ZERO, L_ONE)
ALPHA_INV = QEScalar(S, L_ONE)  # 1/alpha = s + alpha


# -- GF(2)[x] helpers on int bit masks -----------------------------------


def _pdeg(p: int) -> int:
    return p.bit_length() - 1


def _pmod(a: int, m: int) -> int:
    dm = _pdeg(m)
    while _pdeg(a) >= dm and a:
        a ^= m << (_pdeg(a) - dm)
    return a


def _pmulmod(a: int, b: int, m: int) -> int:
    return _pmod(_clmul(a, b), m)


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _ppowmod(a: int, k: int, m: int) -> int:
    r = 1
    a = _pmod(a, m)
    while k:
        if k & 1:
            r = _pmulmod(r, a, m)
        k >>= 1
        a = _pmulmod(a, a, m)
    return r


def is_irreducible(poly: int) -> bool:
    """Rabin irreducibility test for a GF(2)[x] polynomial bit mask."""
    d = _pdeg(poly)
    if d <= 0:
        return False
    if d == 1:
        return True
    # x**(2**d) == x mod poly, and x**(2**(d/p)) - x coprime for primes p | d
    x = 0b10
    if _ppowmod(x, 1 << d, poly) != _pmod(x, poly):
        return False
    for p in prime_factors(d):
        h = _ppowmod(x, 1 << (d // p), poly) ^ _pmod(x, poly)
        if _pgcd(poly, h) != 1:
            return False
    return True


def prime_factors(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def find_irreducible(degree: int) -> int:
    """Deterministic modulus choice: lowest weight, then least bit mask."""
    if degree == 1:
        return 0b11  # x + 1
    base = (1 << degree) | 1
    for weight in range(3, degree + 2, 2):
        for mids in itertools.combinations(range(1, degree), weight - 2):
            poly = base
            for i in mids:
                poly |= 1 << i
            if is_irreducible(poly):
                return poly
    raise ArithmeticError(f"no irreducible polynomial of degree {degree} found")


# GF(2**d) keeps 2**d-entry exp/log tables; degree 20 (n = 41) builds them
# in about a second, degree 28 (n = 29) would need gigabytes.
MAX_FIELD_DEGREE = 20


def field_degree(n: int) -> int:
    """Degree d of the smallest field GF(2**d) with a primitive n-th root
    of unity: the order of 2 modulo odd n >= 3.

    Takes at most ``MAX_FIELD_DEGREE`` steps and raises
    ``FieldTooLargeError`` when the order is larger.
    """
    if n < 3 or n % 2 == 0:
        raise EvenNError(f"n must be odd and >= 3, got {n}")
    x = 1
    for d in range(1, MAX_FIELD_DEGREE + 1):
        x = 2 * x % n
        if x == 1:
            return d
    raise FieldTooLargeError(
        f"n = {n} needs GF(2**d) with d > {MAX_FIELD_DEGREE}, "
        f"the largest supported field degree"
    )


class FiniteField:
    """GF(2**degree) presented by an irreducible modulus bit mask.

    Multiplication uses exp/log tables over the least primitive element,
    built once at construction, so the degree is at most
    ``MAX_FIELD_DEGREE``; a larger one raises ``FieldTooLargeError``
    before anything is searched or allocated.
    """

    def __init__(self, degree: int, modulus: int | None = None):
        if degree > MAX_FIELD_DEGREE:
            raise FieldTooLargeError(
                f"GF(2**{degree}) is above the largest supported degree "
                f"{MAX_FIELD_DEGREE}"
            )
        if modulus is None:
            modulus = find_irreducible(degree)
        if _pdeg(modulus) != degree:
            raise BadModulusError(
                f"modulus {bin(modulus)} has degree {_pdeg(modulus)}, wanted {degree}"
            )
        if not is_irreducible(modulus):
            raise BadModulusError(f"modulus {bin(modulus)} is reducible")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        self._qm1 = self.order - 1
        self._qm1_factors = prime_factors(self._qm1)
        self._build_tables()
        self.zero = FFElement(self, 0)
        self.one = FFElement(self, 1)
        self.x = FFElement(self, 2 if degree > 1 else _pmod(2, modulus))

    def _build_tables(self):
        g = self._least_primitive()
        exp = [0] * self._qm1
        log = [0] * self.order
        v = 1
        for i in range(self._qm1):
            exp[i] = v
            log[v] = i
            v = _pmulmod(v, g, self.modulus)
        self._exp = exp
        self._log = log
        self.generator_bits = g

    def _least_primitive(self) -> int:
        for g in range(2, self.order):
            if self._order_bits(g) == self._qm1:
                return g
        if self.order == 2:
            return 1
        raise ArithmeticError("no primitive element found")

    def _order_bits(self, v: int) -> int:
        e = self._qm1
        for p in self._qm1_factors:
            while e % p == 0 and _ppowmod(v, e // p, self.modulus) == 1:
                e //= p
        return e

    def element(self, bits: int) -> "FFElement":
        return FFElement(self, bits & (self.order - 1))

    def mul_bits(self, a: int, b: int) -> int:
        if not (a and b):
            return 0
        return self._exp[(self._log[a] + self._log[b]) % self._qm1]

    def pow_bits(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroInputError("0 has no negative powers")
            return 0
        return self._exp[(self._log[a] * k) % self._qm1]

    def mulx_bits(self, a: int) -> int:
        a <<= 1
        if a >> self.degree:
            a ^= self.modulus
        return a

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __repr__(self):
        return f"GF(2^{self.degree}; {_x_poly(self.modulus)})"


def _x_poly(mask: int) -> str:
    """The GF(2)[x] polynomial with coefficient of x**i at bit i of mask,
    highest power first (its exponents are the bit positions)."""
    return _poly_str(LaurentScalar(0, mask).exponents()[::-1], "x")


class FFElement:
    """An element of a FiniteField, stored as a reduced bit mask."""

    __slots__ = ("field", "bits")

    def __init__(self, field: FiniteField, bits: int):
        self.field = field
        self.bits = bits

    def __add__(self, other):
        return FFElement(self.field, self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        return FFElement(self.field, self.field.mul_bits(self.bits, other.bits))

    def __pow__(self, k: int):
        return FFElement(self.field, self.field.pow_bits(self.bits, k))

    def inverse(self) -> "FFElement":
        if self.bits == 0:
            raise ZeroInputError("cannot invert 0")
        return self ** -1

    def order(self) -> int:
        """Multiplicative order."""
        if self.bits == 0:
            raise ZeroInputError("0 has no multiplicative order")
        return self.field._order_bits(self.bits)

    def __bool__(self):
        return self.bits != 0

    @property
    def is_one(self):
        return self.bits == 1

    def to_json(self):
        """Little-endian bit string: character i is the coefficient of x**i."""
        return "".join(
            "1" if self.bits >> i & 1 else "0" for i in range(self.field.degree)
        )

    def __eq__(self, other):
        return (
            isinstance(other, FFElement)
            and self.bits == other.bits
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.field.degree, self.field.modulus, self.bits))

    def __str__(self):
        return _x_poly(self.bits)

    def __repr__(self):
        return f"FFElement<{self} in {self.field!r}>"


class EvalMap:
    """Evaluation homomorphism into GF(2**d): alpha -> zeta of order n.

    Sends s to zeta + 1/zeta and t = s**2 to zeta**2 + 1/zeta**2, so a
    Laurent scalar maps to a sum of powers of the s-image and a QE scalar
    additionally picks up c1 * zeta.
    """

    def __init__(self, n: int, field: FiniteField, zeta: FFElement):
        if n < 3 or n % 2 == 0:
            raise EvenNError(f"n must be odd and >= 3, got {n}")
        if zeta.order() != n:
            raise ValueError(f"zeta has order {zeta.order()}, wanted {n}")
        self.n = n
        self.field = field
        self.zeta = zeta
        self.s_image = zeta + zeta ** -1
        if not self.s_image:
            raise ValueError("degenerate map: zeta + 1/zeta = 0")
        self.alpha_image = zeta
        self.t_image = self.s_image * self.s_image
        self._log_s = field._log[self.s_image.bits]

    def apply(self, x):
        """Apply to a LaurentScalar or QEScalar; returns an FFElement."""
        if isinstance(x, QEScalar):
            return self.apply(x.c0) + self.apply(x.c1) * self.zeta
        field = self.field
        qm1 = field._qm1
        bits = 0
        m, base = x.mask, x.off
        while m:
            low = m & -m
            e = base + low.bit_length() - 1
            bits ^= field._exp[(self._log_s * e) % qm1]
            m ^= low
        return FFElement(field, bits)

    def describe(self) -> dict:
        """Reproducibility record: n, modulus and the root chosen."""
        return {
            "n": self.n,
            "degree": self.field.degree,
            "modulus": _x_poly(self.field.modulus),
            "zeta": self.zeta.to_json(),
        }

    def __repr__(self):
        return f"EvalMap<n={self.n}, zeta={self.zeta} in {self.field!r}>"


# one field per degree, shared by the maps of every n of that degree
_field = functools.cache(FiniteField)


@functools.cache
def make_eval_map(n: int) -> EvalMap:
    """Construct the evaluation map for odd n >= 3.

    The field degree is ``field_degree(n)``, the multiplicative order d of
    2 modulo n, so that n divides 2**d - 1.  zeta is g**((2**d - 1)/n)
    for the least primitive element g, a deterministic choice recorded in
    ``describe()``.  Each map is built once per process, and each field
    (2**d-entry tables) once per degree, so a process holds at most
    ``MAX_FIELD_DEGREE`` fields; neither is mutated after construction.
    """
    field = _field(field_degree(n))
    zeta = FFElement(field, field.generator_bits) ** ((field.order - 1) // n)
    return EvalMap(n, field, zeta)


def cyclotomic_cosets(n: int) -> list:
    """The 2-cyclotomic cosets of {1, ..., n-1} modulo odd n >= 3, each
    walked x -> 2x from its least element, in order of that element."""
    if n < 3 or n % 2 == 0:
        raise EvenNError(f"n must be odd and >= 3, got {n}")
    seen = set()
    cosets = []
    for c in range(1, n):
        if c in seen:
            continue
        coset = []
        x = c
        while x not in seen:
            seen.add(x)
            coset.append(x)
            x = (2 * x) % n
        cosets.append(coset)
    return cosets


def cyclotomic_split(n: int) -> list:
    """Degrees of the irreducible factors of (x**n + 1)/(x + 1) over GF(2):
    the sizes of the 2-cyclotomic cosets, which sum to n - 1."""
    return sorted(len(coset) for coset in cyclotomic_cosets(n))


# -- packed GF(2) linear algebra ------------------------------------------


def gf2_rank(rows) -> int:
    """Rank of a GF(2) matrix given as an iterable of row bit masks."""
    pivots = {}
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = row
                rank += 1
                break
            row ^= p
    return rank


def ff_rank(field: FiniteField, rows) -> int:
    """Rank of a matrix over GF(2**d), via its GF(2) blow-up.

    ``rows`` is a list of equal-length lists of raw element bits (ints
    below 2**d), never ``FFElement`` objects.  Each nonzero entry c
    becomes the d x d GF(2) matrix of multiplication by c; zero entries
    contribute nothing and are skipped.  The blown-up GF(2) rank is
    exactly d times the rank over the field.
    """
    d = field.degree
    mulx = field.mulx_bits
    packed = []
    for row in rows:
        acc = [0] * d
        for j, v in enumerate(row):
            if not v:
                continue
            bit = 1 << (j * d)
            for _ in range(d):
                vv = v
                while vv:
                    low = vv & -vv
                    acc[low.bit_length() - 1] |= bit
                    vv ^= low
                v = mulx(v)
                bit <<= 1
        packed.extend(acc)
    r = gf2_rank(packed)
    if r % d:
        raise ArithmeticError("blow-up rank not divisible by the field degree")
    return r // d
