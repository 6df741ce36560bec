"""The transvection representation on the quadratic module.

Generator images (row convention, composition left to right):

    t      -> r_u                  (u fixed, v_i -> v_i + u)
    a      -> r_u r_{v1}
    S<i>   -> r_{v_i + v_{i+1}}    (swaps v_i, v_{i+1}, fixes the rest)
    s<i>   -> t * S<i>
    A      -> r_{v1} r_u

Every image preserves the quadratic and bilinear forms, and all matrix
entries in the image are polynomials in t even though the form values
involve 1/t.

``conjugate_power_matrix`` builds the closed-form matrix for the k-fold
a-conjugate of s1 out of the geometric sums

    Sigma_k = sum_{i=-k..k} alpha**(2i),   Sigma_{-1} = 0,

computed in the quadratic extension (where alpha**2 + alpha**-2 = t)
and then lowered back to the Laurent subring.  The conjugates all share
the shape "x -> x + f_x * (u + v1 + v2) on u, v1, v2" with coefficients
summing to zero, the shape ``triple_form_matrix`` exposes directly.
"""

from __future__ import annotations

from .presentation import A, A_INV, Representation, TAU, s_letter, st_letter
from .quadspace import QuadSpace, RMatrix, rmat_lift_qe, transvection, vec_add
from .rings import ALPHA, ALPHA_INV, L_ONE, QE_ONE, QE_ZERO, QEScalar


class OrthoRep(Representation):
    """Images of all word letters as matrices over the Laurent ring."""

    name = "ortho"

    def __init__(self, space: QuadSpace):
        self.space = space
        m = space.m
        r_u = transvection(space, space.basis_vector(0))
        r_v1 = transvection(space, space.basis_vector(1))
        images = {TAU: r_u, A: r_u * r_v1, A_INV: r_v1 * r_u}
        for i in range(1, m):
            axis = vec_add(space.basis_vector(i), space.basis_vector(i + 1))
            st = transvection(space, axis)
            images[st_letter(i)] = st
            images[s_letter(i)] = r_u * st
        super().__init__(images, space.identity_matrix())


def triple_form_matrix(space: QuadSpace, f0, f1, f2) -> RMatrix:
    """The map u -> u + f0*w, v1 -> v1 + f1*w, v2 -> v2 + f2*w for
    w = u + v1 + v2, and v_i -> v_i + (f0+1)u + (f1+1)v1 + (f2+1)v2
    beyond; scalars may be Laurent or QE (zero coefficient sum assumed).
    """
    one = _one_like(f0)
    zero = f0 + f0
    n = space.rank
    rows = []
    head = [
        (one + f0, f0, f0),
        (f1, one + f1, f1),
        (f2, f2, one + f2),
    ]
    for i in range(3):
        rows.append(tuple(head[i]) + (zero,) * (n - 3))
    tail = (one + f0, one + f1, one + f2)
    for i in range(3, n):
        row = list(tail) + [zero] * (n - 3)
        row[i] = row[i] + one
        rows.append(tuple(row))
    return RMatrix(rows)


def _one_like(x):
    if isinstance(x, QEScalar):
        return QE_ONE
    return L_ONE


def conjugate_power_matrix(space: QuadSpace, k: int) -> RMatrix:
    """Closed form for the k-fold a-conjugate of the s1 image, over QE.

    k = 0 returns the s1 image itself (lifted).  For k >= 1 the triple
    of coefficients is (alpha**2k + alpha**-2k, Sigma_{k-1}, Sigma_k).
    """
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return rmat_lift_qe(OrthoRep(space).image(s_letter(1)))
    a2k = ALPHA ** (2 * k) + ALPHA_INV ** (2 * k)
    sigma_k = QE_ZERO
    for i in range(-k, k + 1):
        sigma_k = sigma_k + (ALPHA ** (2 * i) if i >= 0 else ALPHA_INV ** (-2 * i))
    sigma_km1 = sigma_k + a2k
    return triple_form_matrix(space, a2k, sigma_km1, sigma_k)


def entries_are_t_polynomials(mat: RMatrix) -> bool:
    """True iff every Laurent entry has only even, nonnegative exponents."""
    return all(x.in_t_polynomial() for row in mat.entries for x in row.values())
