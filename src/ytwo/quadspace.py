"""The quadratic module and its matrix machinery.

``QuadSpace`` is a free module of rank m+1 with ordered basis
u, v_1, ..., v_m.  The bilinear form pairs any two distinct basis
vectors to 1 and is alternating; the quadratic form takes the value 1
on u and 1/t on every v_i.  Both extend to arbitrary vectors by
q(sum l_i x_i) = sum l_i**2 q(x_i) + sum_{i<j} l_i l_j (x_i, x_j).
As every (x_i, x_j) with i != j is 1, ``q_eval``, ``bilin`` and
``transvection`` read closed forms in one pass over the entries, such
as (x, y) = X Y + sum x_i y_i with X, Y the sums of the entries.

Everything uses one global convention: vectors are rows, row i of a
matrix is the image of basis vector i, and composition reads left to
right (x * (g h) = (x * g) * h).

``RMatrix`` stores only the nonzero entries of each row, keyed by
column, and the ring's zero.  Every product walks nonzero entries
against nonzero entries only, and equality and hashing read the same
sparse rows; dense rows are built only when read (JSON, printing).  A
matrix is a value by the same convention as the scalars in ``rings``:
a plain ``__slots__`` class whose fields are never assigned after
construction; so is ``HyperbolicDecomposition``, a ``rings.Record``.

Scalars only need +, *, truth (nonzero), is_one and inverse(), so the
same code runs over the Laurent ring, its quadratic extension, or a
finite field after specialization.

Products of Laurent transvections (the images of a phi word) have a
packed kernel, ``laurent_product``.  The running product is a list of
n column ints, started from the identity: entry (i, j) is a
``width``-bit slot at bit i*width of column j, bit b of the slot
standing for s**b.  Since column j of P * F is the sum of column k of P
times F[k][j], a factor acts on whole columns.  A transvection r_w,
x -> x + c(x) w with row i of its matrix e_i + c_i w, is given by its
factor ops (span, sources, targets) (``transvection_ops``): a (k, e)
source per set bit of c_k and a (j, e) target per set bit of w_j, the
two sides' exponents moved by +lo_w and -lo_w so that both are at
least 0 (a rank-one part c w with a negative exponent is refused).  It
takes

    y = sum(cols[k] << e for (k, e) in sources),
    cols[j] ^= y << e for (j, e) in targets,

in place, y = sum c_k col_k read in full before the first update.
r_u costs m + 1 shifts where its matrix takes 2m + 1, and a swap
r_{v_i + v_{i+1}} four where its matrix takes m + 1.

Every entry of r_w has degree below its span: one more than the top
exponent of c w, the sum of the top source and target exponents, and 1
for the identity.  y may pass the top of its slot, but it is no
truncated value: each of its bits lands, shifted by a target, at its
entry's true degree.  So an entry of a product of r factors, or of a
prefix of it, has degree at most the sum of (span_i - 1): with
``width`` = 1 + that sum, no shift leaves its slot.  The result is
unpacked once, by walking the lowest set bit of each column.  A phi
word takes only this kernel (``OrthoRep.product``), no generic product;
``RMatrix.__mul__`` stays the one generic product, over every ring.
"""

from . import rings
from .errors import NonUnitNormError, UnsupportedFormError
from .rings import L_ONE, L_ZERO, LaurentScalar, Record, T_INV, gf2_rank


class RMatrix:
    """A square matrix over any char-2 scalar ring; rows act on the right.

    The matrix is stored once, sparsely: ``entries`` holds per row a dict
    from column j to the nonzero entry x, and ``zero`` is the ring's
    zero.  (A dict per row, not a tuple of (j, x) pairs: iterating a
    dict allocates nothing, while the few hundred pair tuples of each
    64x64 product raised peak memory by half a megabyte through
    CPython's tuple free lists.)  Products, ``row_apply``,
    ``is_identity`` and ``map_entries`` walk only the nonzero entries,
    and so do equality and hashing; ``zero`` takes part in equality, so
    all-zero matrices over different rings differ.  ``rows`` builds the
    dense rows on each read.  No field is assigned after construction
    and no row dict is mutated.
    """

    __slots__ = ("entries", "zero")

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        n = len(rows)
        if not n:
            raise ValueError("matrix must have at least one row")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        first = rows[0]
        self.entries = tuple({j: x for j, x in enumerate(r) if x} for r in rows)
        self.zero = first[0] + first[0]  # characteristic two

    @classmethod
    def _sparse(cls, entries, zero):
        """The matrix with row dicts ``entries`` of nonzero entries, kept as is."""
        mat = object.__new__(cls)
        mat.entries = entries
        mat.zero = zero
        return mat

    @property
    def rows(self):
        """The dense rows, built on each read."""
        rows = []
        for nonzero in self.entries:
            row = [self.zero] * len(self.entries)
            for j, x in nonzero.items():
                row[j] = x
            rows.append(tuple(row))
        return tuple(rows)

    @property
    def size(self):
        return len(self.entries)

    @classmethod
    def identity(cls, n, one, zero):
        if n < 1:
            raise ValueError("matrix must have at least one row")
        return cls._sparse(tuple({i: one} for i in range(n)), zero)

    def __mul__(self, other):
        b = other.entries
        return RMatrix._sparse(tuple(_combine(a, b) for a in self.entries), self.zero)

    def __pow__(self, k: int):
        if k <= 0:
            raise ValueError("matrix powers need k >= 1 (identity not inferable)")
        return rings.pow_by_squaring(self, k)

    def row_apply(self, vec):
        """Image of a row vector under this matrix."""
        acc = _combine({k: a for k, a in enumerate(vec) if a}, self.entries)
        return tuple(acc.get(j, self.zero) for j in range(len(self.entries)))

    def map_entries(self, fn) -> "RMatrix":
        """The entrywise image under ``fn``, which must send zero to zero
        (a ring map or coercion): only nonzero entries are mapped."""
        entries = tuple(
            {j: y for j, x in row.items() if (y := fn(x))} for row in self.entries
        )
        return RMatrix._sparse(entries, fn(self.zero))

    @property
    def is_identity(self):
        for i, row in enumerate(self.entries):
            x = row.get(i)
            if len(row) != 1 or x is None or not x.is_one:
                return False
        return True

    def to_json(self):
        return [[x.to_json() for x in row] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.zero == other.zero
            and self.entries == other.entries
        )

    def __hash__(self):
        # frozensets: a product fills its row dicts in another order than
        # the constructor does
        return hash(tuple(frozenset(row.items()) for row in self.entries))

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows
        )

    def __repr__(self):
        return f"RMatrix({self.size}x{self.size})"


def _combine(coeffs, entries):
    """The row sum_k a_k * entries[k] over the items k: a_k of ``coeffs``,
    as a dict of its nonzero entries; ``entries[k]`` is the dict of row k.
    Entries that cancel are dropped."""
    acc = {}
    for k, a in coeffs.items():
        for j, b in entries[k].items():
            if j in acc:
                acc[j] = acc[j] + a * b
            else:
                acc[j] = a * b
    return {j: x for j, x in acc.items() if x}


def _shifts(entries, base: int) -> tuple:
    """A (j, e) pair per set bit of each entry x of the {j: x} dict
    ``entries``, e the bit's exponent less ``base``."""
    out = []
    for j, x in entries.items():
        d, mask = x.off - base, x.mask
        while mask:
            low = mask & -mask
            out.append((j, d + low.bit_length() - 1))
            mask ^= low
    return tuple(out)


def laurent_product(n: int, chain) -> RMatrix:
    """The n x n product r_1 * ... * r_k of Laurent transvections, each
    given by its factor ops (``transvection_ops``) in ``chain``, in one
    packed column-int product from the identity (module docstring): each
    factor adds its y into its target columns, and the result is
    unpacked once."""
    width = 1 + sum(span - 1 for span, _, _ in chain)
    cols = [1 << j * width for j in range(n)]
    for _, sources, targets in chain:
        y = 0
        for k, e in sources:
            y ^= cols[k] << e
        for j, e in targets:
            cols[j] ^= y << e
    full = (1 << width) - 1
    out = tuple({} for _ in range(n))
    for j, c in enumerate(cols):
        i = 0
        while c:
            skip = ((c & -c).bit_length() - 1) // width
            i += skip
            c >>= skip * width
            out[i][j] = LaurentScalar(0, c & full)
            c >>= width
            i += 1
    return RMatrix._sparse(out, L_ZERO)


class QuadSpace:
    """Rank m+1 module with basis u, v_1..v_m and the standard form.

    ``q_values`` may be overridden (e.g. with field elements) when the
    space is specialized; the bilinear form is always the all-ones
    off-diagonal pairing in the 0/1 of the scalar ring.
    """

    def __init__(self, m: int, q_values=None, one=L_ONE, zero=L_ZERO):
        if m < 3:
            raise ValueError(f"need m >= 3, got {m}")
        self.m = m
        self.rank = m + 1
        self.one = one
        self.zero = zero
        if q_values is None:
            q_values = (L_ONE,) + (T_INV,) * m
        q_values = tuple(q_values)
        if len(q_values) != m + 1:
            raise ValueError("need one q-value per basis vector")
        self.q_values = q_values

    def basis_vector(self, i: int):
        return tuple(
            self.one if j == i else self.zero for j in range(self.rank)
        )

    def basis_labels(self):
        return ("u",) + tuple(f"v{i}" for i in range(1, self.m + 1))

    def identity_matrix(self) -> RMatrix:
        return RMatrix.identity(self.rank, self.one, self.zero)

    def __repr__(self):
        return f"QuadSpace(m={self.m})"


def q_eval(space: QuadSpace, vec):
    """q(vec) in one pass: q(sum c_i x_i) = sum_i c_i (c_i q(x_i) + S_i),
    S_i the sum of the entries before c_i, since (x_i, x_j) = 1 for i != j."""
    total = before = space.zero
    for c, q in zip(vec, space.q_values):
        if c:
            total = total + c * (c * q + before)
            before = before + c
    return total


def bilin(space: QuadSpace, x, y):
    """(x, y) = X Y + sum x_i y_i, X and Y the sums of the entries:
    distinct basis vectors pair to 1, and the sum cancels the diagonal
    terms x_i y_i of X Y in characteristic two."""
    total = sum(x, space.zero) * sum(y, space.zero)
    for a, b in zip(x, y):
        if a and b:
            total = total + a * b
    return total


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _rank_one(space: QuadSpace, w) -> tuple:
    """(c, support) of the transvection along w: row i of its matrix is
    e_i + c[i] w, and ``support`` holds w's nonzero entries by column.
    c[i] = (W + w_i)/q(w), W the sum of w's entries, since (e_i, w) =
    W - w_i; requires q(w) to be a unit."""
    qw = q_eval(space, w)
    try:
        qw_inv = qw.inverse()
    except Exception as exc:
        raise NonUnitNormError(f"q(w) = {qw} is not invertible") from exc
    support = {j: x for j, x in enumerate(w) if x}
    total = sum(support.values(), space.zero)
    return [(total + x) * qw_inv for x in w], support


def transvection(space: QuadSpace, w) -> RMatrix:
    """Matrix of x -> x + ((x, w)/q(w)) w; requires q(w) to be a unit.
    Row i is e_i + c_i w (``_rank_one``), built from w's nonzero entries."""
    c, support = _rank_one(space, w)
    rows = []
    for i, ci in enumerate(c):
        row = {j: ci * x for j, x in support.items()}
        row[i] = row.get(i, space.zero) + space.one
        rows.append({j: x for j, x in row.items() if x})
    return RMatrix._sparse(tuple(rows), space.zero)


def transvection_ops(space: QuadSpace, w) -> tuple:
    """How the transvection along w acts in ``laurent_product``: (span,
    sources, targets).  With c and w as in ``_rank_one``, lo_w the
    lowest exponent of w, the sources are a (k, e) pair per set bit of
    c_k and the targets a (j, e) pair per set bit of w_j, their exponents
    moved by +lo_w and -lo_w: y = sum c_k col_k s**lo_w, then col_j ^=
    y w_j s**-lo_w.  ``span`` is one more than the top exponent of c w
    (1, with no sources or targets, for the identity).  Raises
    ValueError if c w has a negative exponent, which the identity
    columns at s**0 cannot hold."""
    c, support = _rank_one(space, w)
    c = {k: x for k, x in enumerate(c) if x}
    if not c:  # w is orthogonal to everything: r_w is the identity
        return 1, (), ()
    lo_w = min(x.off for x in support.values())
    sources, targets = _shifts(c, -lo_w), _shifts(support, lo_w)
    if min(e for _, e in sources) < 0:
        raise ValueError("the transvection's rank-one part has a negative exponent")
    span = max(e for _, e in sources) + max(e for _, e in targets) + 1
    return span, sources, targets


class HyperbolicDecomposition(Record):
    """Result of the inductive splitting-off of hyperbolic pairs: the (e, f)
    vector ``pairs``, the ``residual`` basis of the remainder and its
    q-values ``residual_q``, and (q0, q1, q_rest) per step in ``states``."""

    __slots__ = ("pairs", "residual", "residual_q", "states")
    _defaults = dict(states=list)


# q-state table for the inductive step: (q0, q1, q_common) -> (alpha, beta).
# The family is periodic with period four starting from (1, 1/t, 1/t).
_T1 = T_INV
_T1P = T_INV + L_ONE
_GF2 = (L_ZERO, L_ONE)
_STATE_TABLE = {
    (L_ONE, _T1, _T1): (1, 1),
    (L_ONE, _T1, _T1P): (0, 1),
    (L_ONE, _T1P, _T1P): (1, 1),
    (L_ONE, _T1P, _T1): (0, 1),
}


def hyperbolic_decompose(space: QuadSpace) -> HyperbolicDecomposition:
    """Split off hyperbolic pairs until the remainder has rank 2 or 3.

    Works over the standard form family only: starting from q-values
    (1, 1/t, ..., 1/t) the reachable states cycle through a fixed table
    of four rows, each providing GF(2) coefficients (alpha, beta) with

        q(alpha e0 + beta e1 + e_k) = 0.

    The step extracts e = alpha e0 + beta e1 + e_k and
    f = alpha e0 + beta e1 + e_{k-1}, adds e + f times beta + 1 to e0,
    alpha + 1 to e1 and alpha + beta + 1 to the rest, so they stay
    orthogonal to the pair, and adds the same GF(2) coefficients to their
    q-values (q0 += beta**2 + 1 = beta + 1, and so on).  Each step checks
    both: every corrected vector's q-value against ``q_eval``, and its
    pairing with e and f on the masks.  All vectors are GF(2) combinations
    of the input basis, so the working vectors are bit masks over it
    (bit i for basis vector i), and a mask becomes a scalar tuple only for
    the output and for the q-value check.
    """
    if not isinstance(space.q_values[0], LaurentScalar):
        raise UnsupportedFormError("decomposition runs over the Laurent ring")
    qs = list(space.q_values)
    if qs[0] != L_ONE or any(q != T_INV for q in qs[1:]):
        raise UnsupportedFormError("q-values are not (1, 1/t, ..., 1/t)")

    one, zero, rank = space.one, space.zero, space.rank

    def vec(mask):
        return tuple(one if mask >> i & 1 else zero for i in range(rank))

    def pairing(x, y):
        # (x, y) = |x| |y| + |x & y| mod 2 on masks, ``bilin``'s closed form
        return (x.bit_count() * y.bit_count() + (x & y).bit_count()) % 2

    masks = [1 << i for i in range(rank)]
    pairs, states = [], []
    while len(masks) >= 4:
        rest = qs[2:]
        if any(q != rest[0] for q in rest[1:]):
            raise UnsupportedFormError("tail q-values diverged; outside the family")
        state = (qs[0], qs[1], qs[2])
        ab = _STATE_TABLE.get(state)
        if ab is None:
            raise UnsupportedFormError(f"q-state {state} is not in the table")
        alpha, beta = ab
        k = len(masks) - 1
        head = alpha * masks[0] ^ beta * masks[1]
        e = head ^ masks[k]
        f = head ^ masks[k - 1]
        ef = e ^ f
        # correction coefficients (beta+1, alpha+1, alpha+beta+1) in GF(2)
        c0, c1, cr = beta ^ 1, alpha ^ 1, alpha ^ beta ^ 1
        new_masks = [masks[0] ^ c0 * ef, masks[1] ^ c1 * ef]
        new_masks += [x ^ cr * ef for x in masks[2 : k - 1]]
        new_qs = [qs[0] + _GF2[c0], qs[1] + _GF2[c1]]
        new_qs += [q + _GF2[cr] for q in qs[2 : k - 1]]
        # the table is an advertised contract; cross-check each step on its own:
        # each corrected x is orthogonal to e and f and has its q-value
        for x, q in zip(new_masks, new_qs):
            if pairing(x, e) or pairing(x, f):
                raise UnsupportedFormError("correction not orthogonal to the pair")
            if q_eval(space, vec(x)) != q:
                raise UnsupportedFormError("q-update formulas disagree with q_eval")
        pairs.append((vec(e), vec(f)))
        states.append(state)
        masks, qs = new_masks, new_qs
    residual = [vec(x) for x in masks]
    return HyperbolicDecomposition(
        pairs=pairs,
        residual=residual,
        residual_q=[q_eval(space, v) for v in residual],
        states=states,
    )


def radical_vector(space: QuadSpace):
    """The radical of the bilinear form: the all-ones vector for even m.

    For odd m returns None; nondegeneracy is certified by the GF(2) rank
    of the Gram matrix (its entries are already 0/1, so any evaluation
    map fixes them).
    """
    n = space.rank
    if space.m % 2 == 0:
        r = tuple(space.one for _ in range(n))
        for i in range(n):
            if bilin(space, r, space.basis_vector(i)):
                raise ArithmeticError("all-ones vector failed the radical check")
        return r
    if gram_rank_gf2(space.m) != n:
        raise ArithmeticError("Gram matrix unexpectedly singular for odd m")
    return None


def gram_rank_gf2(m: int) -> int:
    """GF(2) rank of the (m+1)-square all-ones-off-diagonal Gram matrix."""
    n = m + 1
    full = (1 << n) - 1
    return gf2_rank(full ^ (1 << i) for i in range(n))


def rmat_lower_laurent(mat: RMatrix) -> RMatrix:
    """Lower a QE matrix into the Laurent subring (raises if impossible)."""
    return mat.map_entries(lambda x: x.laurent_part())
