"""The transvection representation on the quadratic module.

Generator images (row convention, composition left to right):

    t      -> r_u                  (u fixed, v_i -> v_i + u)
    a      -> r_u r_{v1}
    S<i>   -> r_{v_i + v_{i+1}}    (swaps v_i, v_{i+1}, fixes the rest)
    s<i>   -> t * S<i>
    A      -> r_{v1} r_u

Every image preserves the quadratic and bilinear forms, and all matrix
entries in the image are polynomials in t even though the form values
involve 1/t.  A word is multiplied by one packed column-int product
(``quadspace.laurent_product``) from the identity, which chains the
transvections of every letter in order, one or two per letter, each in
the form of ``quadspace.transvection_ops``: y = sum c_k col_k and then
col_j ^= w_j y, whose span is one more than the top exponent of c w (1
for r_u and r_{v_i + v_{i+1}}, 3 for r_{v_i}, whose c holds t = s**2).
A b-letter chains two transvections as well, b<i> -> r_u r_{v_i} and
B<i> -> r_{v_i} r_u; its image stays the evaluation of its b-word
(``Representation.image``), against which the tests check the pair.  A
letter's ops are built on its first use and kept by the representation;
a run power would cost a generic product on every call, so runs take no
powers here.

``conjugate_power_matrix`` builds the closed-form matrix for the k-fold
a-conjugate of s1 out of the geometric sums

    Sigma_k = sum_{i=-k..k} alpha**(2i),

and Sigma_{k-1} = Sigma_k + alpha**2k + alpha**-2k (at k = 0 that gives
Sigma_{-1} = Sigma_0 = 1, not the empty sum), computed in the quadratic
extension (where alpha**2 + alpha**-2 = t) and then lowered back to the
Laurent subring.  The conjugates all share the shape "x -> x + f_x *
(u + v1 + v2) on u, v1, v2" with coefficients summing to zero, the
shape ``triple_form_matrix`` exposes directly, over QE scalars.
"""

from functools import reduce
from operator import mul

from .presentation import A, A_INV, Representation, TAU, s_letter, st_letter
from .quadspace import (
    QuadSpace,
    RMatrix,
    laurent_product,
    transvection,
    transvection_ops,
    vec_add,
)
from .rings import ALPHA, ALPHA_INV, QE_ONE, QE_ZERO


class OrthoRep(Representation):
    """Images of all word letters as matrices over the Laurent ring."""

    name = "ortho"

    def __init__(self, space: QuadSpace):
        self.space = space
        m = space.m
        u, v1 = space.basis_vector(0), space.basis_vector(1)
        # letter -> the axes of its transvections, in product order
        self._axes = {TAU: (u,), A: (u, v1), A_INV: (v1, u)}
        for i in range(1, m):
            axis = vec_add(space.basis_vector(i), space.basis_vector(i + 1))
            self._axes[st_letter(i)] = (axis,)
            self._axes[s_letter(i)] = (u, axis)
        r = {}  # one transvection matrix per axis
        images = {}
        for letter, axes in self._axes.items():
            for w in axes:
                if w not in r:
                    r[w] = transvection(space, w)
            images[letter] = reduce(mul, (r[w] for w in axes))
        super().__init__(m, images, space.identity_matrix())
        # b<i> -> r_u r_{v_i} and B<i> -> r_{v_i} r_u, for ``product`` only:
        # their images stay the b-words' evaluations, out of ``letters()``
        for i in range(1, m + 1):
            v = space.basis_vector(i)
            self._axes[f"b{i}"], self._axes[f"B{i}"] = (u, v), (v, u)
        # letter -> the ``transvection_ops`` of its axes, built on the
        # letter's first use; a closed-form word uses three letters
        self._ops = {}

    def product(self, word):
        """The image of a non-empty word by one packed column-int product
        (``laurent_product``) from the identity: every letter acts by its
        one or two transvections."""
        ops = self._ops
        chain = []
        for letter in word:
            op = ops.get(letter)
            if op is None:
                axes = self._axes.get(letter)
                if axes is None:
                    self.image(letter)  # outside the alphabet: raises ValueError
                op = ops[letter] = tuple(transvection_ops(self.space, w) for w in axes)
            chain += op
        return laurent_product(self.space.rank, chain)


def triple_form_matrix(space: QuadSpace, f0, f1, f2) -> RMatrix:
    """The map u -> u + f0*w, v1 -> v1 + f1*w, v2 -> v2 + f2*w for
    w = u + v1 + v2, and v_i -> v_i + (f0+1)u + (f1+1)v1 + (f2+1)v2
    beyond, for QE scalars f0, f1, f2 (zero coefficient sum assumed).
    """
    head = (
        (QE_ONE + f0, f0, f0),
        (f1, QE_ONE + f1, f1),
        (f2, f2, QE_ONE + f2),
        (QE_ONE + f0, QE_ONE + f1, QE_ONE + f2),
    )
    rows = [{j: x for j, x in enumerate(row) if x} for row in head]
    tail = rows.pop()  # the nonzero entries that every v_i row shares
    rows += ({**tail, i: QE_ONE} for i in range(3, space.rank))
    return RMatrix._sparse(tuple(rows), QE_ZERO)


def conjugate_power_matrix(space: QuadSpace, k: int) -> RMatrix:
    """Closed form for the k-fold a-conjugate of the s1 image, over QE:
    the triple of coefficients is (alpha**2k + alpha**-2k, Sigma_{k-1},
    Sigma_k), with Sigma_{k-1} taken as Sigma_k + alpha**2k + alpha**-2k.
    At k = 0 that is (0, 1, 1), the s1 image itself."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    a2k = ALPHA ** (2 * k) + ALPHA_INV ** (2 * k)
    sigma_k = QE_ZERO
    for i in range(-k, k + 1):
        sigma_k = sigma_k + (ALPHA ** (2 * i) if i >= 0 else ALPHA_INV ** (-2 * i))
    sigma_km1 = sigma_k + a2k
    return triple_form_matrix(space, a2k, sigma_km1, sigma_k)


def entries_are_t_polynomials(mat: RMatrix) -> bool:
    """True iff every Laurent entry has only even, nonnegative exponents."""
    return all(x.in_t_polynomial() for row in mat.entries for x in row.values())
