"""The block-recursive matrix representation and its realization on a
submodule of the Clifford algebra.

Over the quadratic extension, the group generated by a and the s_i has
a family of 2**(m-2)-dimensional matrix representations defined by a
block doubling recursion: the base case is

    a  -> [[alpha, 0], [0, 1/alpha]]
    s1 -> [[1, 0], [1, 1]]
    s2 -> [[0, 1], [1, 0]]

and each step doubles the size, sending a to diag(a, a**-1), s1 and s2
to the unipotent and swap block forms, s3 to [[s2', 0], [I, s2']] and
s_k (k >= 4) to diag(s_{k-1}', s_{k-1}').

The same action lives inside the Clifford algebra: the seed vector

    w = (1/s + alpha) + alpha u v_1 + (1/alpha) u v_2 + s v_1 v_2

is an alpha-eigenvector for right multiplication by the a-image, fixed
by the s1-image, and a (1/alpha)-eigenvector for s u v_2.  Repeatedly
right-multiplying w by the s_j images (stage j = m-1 down to 2, each
stage appending x -> x s_j for everything collected so far) produces an
ordered basis of a rank 2**(m-2) submodule W on which right
multiplication reproduces the matrices above, row for row.  Appending
the u-translates W u doubles the module and extends the action to the
full group including tau.

Linear independence of these bases is certified by specialization:
full coefficient rank over one finite field already implies
independence over the ring.  ``WBasis`` is a ``rings.Record`` value.
"""

from .clifford import CliffordElement, PinRep, get_algebra
from .errors import InconclusiveError, MismatchError
from .presentation import A, A_INV, Representation, TAU, s_letter
from .quadspace import RMatrix
from .rings import (
    ALPHA,
    ALPHA_INV,
    EvalMap,
    QE_ONE,
    QE_ZERO,
    QEScalar,
    Record,
    S,
    S_INV,
    ff_rank,
    make_eval_map,
)


def _ident(n):
    return tuple({i: QE_ONE} for i in range(n))


def _block2(tl, tr, bl, br) -> RMatrix:
    """The matrix [[tl, tr], [bl, br]] of h x h blocks, each given by its
    sparse rows (``RMatrix.entries``), or None for a zero block."""
    h = len(tl or tr)
    rows = []
    for left, right in ((tl, tr), (bl, br)):
        for i in range(h):
            row = dict(left[i]) if left else {}
            if right:
                row.update((h + j, x) for j, x in right[i].items())
            rows.append(row)
    return RMatrix._sparse(tuple(rows), QE_ZERO)


class SpinorRep(Representation):
    """The 2**(m-2)-dimensional block-recursive representation over QE."""

    name = "spinor"

    def __init__(self, m: int):
        if m < 3:
            raise ValueError(f"need m >= 3, got {m}")
        self.dim = 1 << (m - 2)
        a, a_inv, s_imgs = _build_level(m)
        images = {A: a, A_INV: a_inv}
        for i in range(1, m):
            images[s_letter(i)] = s_imgs[i]
        super().__init__(m, images, RMatrix.identity(self.dim, QE_ONE, QE_ZERO))


def _build_level(m: int):
    if m == 3:
        a = RMatrix(((ALPHA, QE_ZERO), (QE_ZERO, ALPHA_INV)))
        a_inv = RMatrix(((ALPHA_INV, QE_ZERO), (QE_ZERO, ALPHA)))
        s1 = RMatrix(((QE_ONE, QE_ZERO), (QE_ONE, QE_ONE)))
        s2 = RMatrix(((QE_ZERO, QE_ONE), (QE_ONE, QE_ZERO)))
        return a, a_inv, {1: s1, 2: s2}
    a_p, a_inv_p, s_p = _build_level(m - 1)
    half = 1 << (m - 3)
    ident = _ident(half)
    a = _block2(a_p.entries, None, None, a_inv_p.entries)
    a_inv = _block2(a_inv_p.entries, None, None, a_p.entries)
    s_imgs = {
        1: _block2(ident, None, ident, ident),
        2: _block2(None, ident, ident, None),
        3: _block2(s_p[2].entries, None, ident, s_p[2].entries),
    }
    for k in range(4, m):
        s_imgs[k] = _block2(s_p[k - 1].entries, None, None, s_p[k - 1].entries)
    return a, a_inv, s_imgs


def seed_vector(m: int) -> CliffordElement:
    """The eigenvector w generating the spinor submodule (verified)."""
    alg = get_algebra(m, "qe")
    w = alg.from_terms(
        {
            0: QEScalar(S_INV) + ALPHA,
            0b011: ALPHA,  # u v1
            0b101: ALPHA_INV,  # u v2
            0b110: QEScalar(S),  # v1 v2
        }
    )
    pin = PinRep(m, "qe")
    if w * pin.image(A) != w.scale(ALPHA):
        raise MismatchError("seed vector is not an alpha-eigenvector for a")
    if w * pin.image(s_letter(1)) != w:
        raise MismatchError("seed vector is not fixed by s1")
    s_u_v2 = alg.scalar(S) * alg.u() * alg.v(2)
    if w * s_u_v2 != w.scale(ALPHA_INV):
        raise MismatchError("seed vector fails the 1/alpha eigen-equation")
    return w


class WBasis(Record):
    """Ordered basis of the spinor submodule, in doubling order: stage j
    appends the s_j-translates of everything so far, j = m-1 down to 2;
    ``words`` holds the applied s-indices, in application order."""

    __slots__ = ("m", "elements", "words")

    def __len__(self):
        return len(self.elements)


def spinor_basis(m: int) -> WBasis:
    if not 3 <= m <= 8:
        raise ValueError(f"need 3 <= m <= 8, got {m}")
    pin = PinRep(m, "qe")
    elems = [seed_vector(m)]
    words = [()]
    for j in range(m - 1, 1, -1):
        letter = (s_letter(j),)
        elems += [pin.times(x, letter) for x in elems]
        words += [wd + (j,) for wd in words]
    return WBasis(m, tuple(elems), tuple(words))


def full_rank_at(elements, emap: EvalMap) -> bool:
    """True iff the specialized coefficient matrix has full row rank.

    Row i holds the raw field bits of ``emap`` applied to the
    coefficients of ``elements[i]``, one column per monomial and 0 where
    the monomial is absent; ``ff_rank`` ranks the GF(2) blow-up of these
    rows (``rings.ff_blowup``, shared with the enumeration's compiled
    generators), to which those zero cells contribute nothing.
    """
    if not elements:
        return True
    ncols = 1 << (elements[0].algebra.m + 1)
    rows = []
    for el in elements:
        row = [0] * ncols
        for mono, c in el.terms.items():
            row[mono] = emap.apply(c).bits
        rows.append(row)
    return ff_rank(emap.field, rows) == len(rows)


# orders n of the evaluation maps tried, in turn, by the certificate
_CERT_NS = (5, 7, 11)


def independence_certificate(elements) -> bool:
    """Certify ring-linear independence by specialization.

    Returns True on the first n in ``_CERT_NS`` whose evaluation map
    gives the coefficient matrix full row rank (which implies
    independence over the ring).  If every listed specialization is
    rank-deficient the result is inconclusive, not a dependence proof,
    and is raised as such.
    """
    elements = list(getattr(elements, "elements", elements))
    tried = []
    for n in _CERT_NS:
        emap = make_eval_map(n)
        if full_rank_at(elements, emap):
            return True
        tried.append(n)
    raise InconclusiveError(
        f"rank-deficient at every specialization n in {_CERT_NS}", tried=tried
    )


def _expand_rhs(entries, basis_elems):
    """sum_j c_j * basis_elems[j] over the nonzero entries j: c_j of a row."""
    acc = None
    for j, c in entries.items():
        term = basis_elems[j].scale(c)
        acc = term if acc is None else acc + term
    return basis_elems[0].algebra.zero if acc is None else acc


def _check_rows(expected: dict, elems, pin, message: str):
    """Check x_i * image == expansion of the expected row i over ``elems``
    for every letter and row; the first failure raises MismatchError
    with ``message.format(letter, i)`` and witness ``(letter, i)``."""
    for letter, mat in expected.items():
        for i, x in enumerate(elems):
            if pin.times(x, (letter,)) != _expand_rhs(mat.entries[i], elems):
                raise MismatchError(message.format(letter, i), witness=(letter, i))


def check_action(m: int) -> dict:
    """Verify that right multiplication on the stage basis matches the
    block-recursive matrices entry for entry, for a and every s_i; exact
    over QE."""
    basis = spinor_basis(m)
    eta = SpinorRep(m)
    letters = [A] + [s_letter(i) for i in range(1, m)]
    _check_rows(
        {letter: eta.image(letter) for letter in letters},
        basis.elements,
        PinRep(m, "qe"),
        "action mismatch for {} on basis row {}",
    )
    return {"m": m, "checked": letters, "rows": len(basis)}


def check_extended_action(m: int) -> dict:
    """Verify the doubled module: on the basis (stage basis, then its
    u-translates) tau acts as the block swap, a as diag(a, a**-1) and
    each s_i diagonally; also certifies independence of the doubled
    basis by specialization."""
    basis = spinor_basis(m)
    pin = PinRep(m, "qe")
    eta = SpinorRep(m)
    u = pin.image(TAU)
    elems = list(basis.elements) + [x * u for x in basis.elements]
    independence_certificate(elems)
    half = len(basis)
    ident = _ident(half)
    expected = {
        TAU: _block2(None, ident, ident, None),
        A: _block2(eta.image(A).entries, None, None, eta.image(A_INV).entries),
    }
    for i in range(1, m):
        s_rows = eta.image(s_letter(i)).entries
        expected[s_letter(i)] = _block2(s_rows, None, None, s_rows)
    _check_rows(expected, elems, pin, "extended action mismatch for {} on row {}")
    return {"m": m, "rows": len(elems), "checked": sorted(expected)}
