"""The quadratic module and its matrix machinery.

``QuadSpace`` is a free module of rank m+1 with ordered basis
u, v_1, ..., v_m.  The bilinear form pairs any two distinct basis
vectors to 1 and is alternating; the quadratic form takes the value 1
on u and 1/t on every v_i.  Both extend to arbitrary vectors by
q(sum l_i x_i) = sum l_i**2 q(x_i) + sum_{i<j} l_i l_j (x_i, x_j).

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

Products of several Laurent matrices (the transvection images of a
word) have a packed kernel, ``laurent_product``.  The running product
is a list of n column ints: entry (i, j) is a ``width``-bit slot at bit
i*width of column j, bit b of the slot standing for s**(lo + b), lo the
sum of the factors' lowest exponents.  A factor F with lowest exponent
lo_F acts through its ``laurent_ops``: one op (k, j, e) per set bit e of
F[k][j] over s**lo_F, grouped by k.  Since column j of P * F is the sum
of column k of P times F[k][j], applying F is ``new[j] ^= cols[k] << e``
for each op, skipped as a whole for a zero column k.  Over its own
lowest exponent every entry of F is a polynomial of degree below its
span (the most bits any of its entries needs), so an entry of the
product has degree below the sum of the spans: with ``width`` that sum,
no shift leaves its slot.  The result is unpacked once, by walking the
lowest set bit of each column.
A phi word takes only this kernel (``OrthoRep.product``), no generic
product; ``RMatrix.__mul__`` stays the one generic product, over every
ring.
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


def _lo_span(entries) -> tuple:
    """(lo, span) of a Laurent matrix's row dicts: the lowest exponent of
    its entries and the most bits an entry needs over s**lo ((0, 0) for
    the zero matrix)."""
    lo = min((x.off for row in entries for x in row.values()), default=0)
    span = max(
        (x.off - lo + x.mask.bit_length() for row in entries for x in row.values()),
        default=0,
    )
    return lo, span


def laurent_ops(mat: RMatrix) -> tuple:
    """How the Laurent matrix ``mat`` acts in ``laurent_product``:
    (lo, span, ops) with (lo, span) as in ``_lo_span`` and ops one
    (k, targets) pair per nonzero row k, targets holding a (j, e) pair
    per set bit e of entry (k, j) over s**lo."""
    lo, span = _lo_span(mat.entries)
    ops = []
    for k, row in enumerate(mat.entries):
        targets = []
        for j, x in row.items():
            d, mask = x.off - lo, x.mask
            while mask:
                low = mask & -mask
                targets.append((j, d + low.bit_length() - 1))
                mask ^= low
        if targets:
            ops.append((k, tuple(targets)))
    return lo, span, tuple(ops)


def laurent_product(first: RMatrix, chain) -> RMatrix:
    """first * F_1 * ... * F_r for Laurent matrices, each F_i given by its
    ``laurent_ops`` in ``chain``, in one packed column-int product (module
    docstring): ``first`` is packed straight from its entries, each F_i
    acts by its ops, and the result is unpacked once."""
    if not chain:
        return first
    entries = first.entries
    n = len(entries)
    base, width = _lo_span(entries)
    lo = base
    for f_lo, f_span, _ in chain:
        lo += f_lo
        width += f_span
    cols = [0] * n
    for i, row in enumerate(entries):
        at = i * width - base
        for j, x in row.items():
            cols[j] |= x.mask << (at + x.off)
    for _, _, ops in chain:
        new = [0] * n
        for k, targets in ops:
            c = cols[k]
            if c:
                for j, e in targets:
                    new[j] ^= c << e
        cols = new
    full = (1 << width) - 1
    out = tuple({} for _ in range(n))
    for j, c in enumerate(cols):
        i = 0
        while c:
            skip = ((c & -c).bit_length() - 1) // width
            i += skip
            c >>= skip * width
            out[i][j] = LaurentScalar(lo, c & full)
            c >>= width
            i += 1
    return RMatrix._sparse(out, first.zero)


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
    """Value of the quadratic form on a vector."""
    total = space.zero
    n = space.rank
    for i in range(n):
        c = vec[i]
        if c:
            total = total + c * c * space.q_values[i]
    for i in range(n):
        ci = vec[i]
        if not ci:
            continue
        for j in range(i + 1, n):
            cj = vec[j]
            if cj:
                total = total + ci * cj
    return total


def bilin(space: QuadSpace, x, y):
    """The alternating bilinear pairing (all distinct basis pairs pair to 1)."""
    total = space.zero
    n = space.rank
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        for j in range(n):
            if i != j and y[j]:
                total = total + xi * y[j]
    return total


def vec_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(c, x):
    return tuple(c * a for a in x)


def transvection(space: QuadSpace, w) -> RMatrix:
    """Matrix of x -> x + ((x, w)/q(w)) w; requires q(w) to be a unit.

    Row i is e_i + ((W + w_i)/q(w)) w, W the sum of w's entries, since
    (e_i, w) = W - w_i; it is built from w's nonzero entries."""
    qw = q_eval(space, w)
    try:
        qw_inv = qw.inverse()
    except Exception as exc:
        raise NonUnitNormError(f"q(w) = {qw} is not invertible") from exc
    support = {j: x for j, x in enumerate(w) if x}
    total = sum(support.values(), space.zero)
    rows = []
    for i in range(space.rank):
        c = (total + w[i]) * qw_inv
        row = {j: c * x for j, x in support.items()}
        row[i] = row.get(i, space.zero) + space.one
        rows.append({j: x for j, x in row.items() if x})
    return RMatrix._sparse(tuple(rows), space.zero)


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
    f = alpha e0 + beta e1 + e_{k-1}, corrects the remaining vectors by
    multiples of e + f so they stay orthogonal to the pair, and updates
    the q-values (q0 += beta**2 + 1, q1 += alpha**2 + 1, rest +=
    alpha**2 + beta**2 + 1).  All output vectors are GF(2) combinations
    of the input basis.
    """
    if not isinstance(space.q_values[0], LaurentScalar):
        raise UnsupportedFormError("decomposition runs over the Laurent ring")
    vectors = [space.basis_vector(i) for i in range(space.rank)]
    qs = list(space.q_values)
    if qs[0] != L_ONE or any(q != T_INV for q in qs[1:]):
        raise UnsupportedFormError("q-values are not (1, 1/t, ..., 1/t)")

    one, zero = space.one, space.zero
    pairs = []
    states = []
    while len(vectors) >= 4:
        rest = qs[2:]
        if any(q != rest[0] for q in rest[1:]):
            raise UnsupportedFormError("tail q-values diverged; outside the family")
        state = (qs[0], qs[1], qs[2])
        ab = _STATE_TABLE.get(state)
        if ab is None:
            raise UnsupportedFormError(f"q-state {state} is not in the table")
        alpha, beta = ab
        k = len(vectors) - 1
        sa = one if alpha else zero
        sb = one if beta else zero
        head = vec_add(vec_scale(sa, vectors[0]), vec_scale(sb, vectors[1]))
        e = vec_add(head, vectors[k])
        f = vec_add(head, vectors[k - 1])
        ef = vec_add(e, f)
        # correction coefficients (beta+1, alpha+1, alpha+beta+1) in GF(2)
        c0 = one if (beta ^ 1) else zero
        c1 = one if (alpha ^ 1) else zero
        cr = one if (alpha ^ beta ^ 1) else zero
        new_vectors = [
            vec_add(vectors[0], vec_scale(c0, ef)),
            vec_add(vectors[1], vec_scale(c1, ef)),
        ]
        for i in range(2, k - 1):
            new_vectors.append(vec_add(vectors[i], vec_scale(cr, ef)))
        a_sq = L_ONE if alpha else L_ZERO
        b_sq = L_ONE if beta else L_ZERO
        new_qs = [
            qs[0] + b_sq + L_ONE,
            qs[1] + a_sq + L_ONE,
        ]
        for i in range(2, k - 1):
            new_qs.append(qs[i] + a_sq + b_sq + L_ONE)
        # the table is an advertised contract; cross-check it from scratch
        for vec, q in zip(new_vectors, new_qs):
            if q_eval(space, vec) != q:
                raise UnsupportedFormError("q-update formulas disagree with q_eval")
        pairs.append((e, f))
        states.append(state)
        vectors = new_vectors
        qs = new_qs
    return HyperbolicDecomposition(
        pairs=pairs,
        residual=vectors,
        residual_q=[q_eval(space, v) for v in vectors],
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
