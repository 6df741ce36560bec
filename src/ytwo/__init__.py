"""Exact characteristic-two arithmetic for quadratic forms, Clifford
algebras, pin groups, and their finite matrix-group specializations.

The package is organized bottom-up:

* :mod:`ytwo.rings` -- GF(2) Laurent scalars, the quadratic extension
  by a root of x**2 + s*x + 1, finite fields GF(2**d), evaluation maps
  and the cyclotomic splitting of the augmentation ideal.
* :mod:`ytwo.quadspace` -- the rank m+1 quadratic module, orthogonal
  transvections, the hyperbolic decomposition, matrices.
* :mod:`ytwo.presentation` -- group words, b-generators, relation
  schedules, and word evaluation in any representation.
* :mod:`ytwo.ortho` -- the transvection representation and the closed
  form for iterated conjugates.
* :mod:`ytwo.clifford` -- the Clifford algebra, the pin representation,
  spinor norms, the conjugation action, centre and kernel witnesses.
* :mod:`ytwo.spinor` -- the block-recursive matrix representation and
  its realization on a rank 2**(m-2) submodule of the Clifford algebra.
* :mod:`ytwo.spectool` -- finite-field specialization, bit-packed
  coset-closure group enumeration, and the small-cases report.
* :mod:`ytwo.cli` -- the ``ytwo`` command line front end.
"""

from .rings import (
    ALPHA,
    ALPHA_INV,
    EvalMap,
    FFElement,
    FiniteField,
    L_ONE,
    L_ZERO,
    LaurentScalar,
    QE_ONE,
    QE_ZERO,
    QEScalar,
    S,
    S_INV,
    T,
    T_INV,
    cyclotomic_split,
    make_eval_map,
    s_pow,
)
from .quadspace import (
    HyperbolicDecomposition,
    QuadSpace,
    RMatrix,
    bilin,
    hyperbolic_decompose,
    q_eval,
    radical_vector,
    transvection,
)
from .presentation import (
    Representation,
    b_word,
    evaluate,
    relator_failures,
    schedule,
)
from .ortho import OrthoRep, conjugate_power_matrix, entries_are_t_polynomials
from .clifford import (
    CliffordAlgebra,
    CliffordElement,
    PinRep,
    center_report,
    check_power_identities,
    cl_inverse,
    conjugation_matrix,
    get_algebra,
    intertwines,
    kernel_element,
    lifts,
    power_sequences,
    spinor_norm,
)
from .spinor import (
    SpinorRep,
    check_action,
    check_extended_action,
    independence_certificate,
    seed_vector,
    spinor_basis,
)
from .spectool import (
    GroupReport,
    dickson,
    group_order_bfs,
    small_cases_check,
    specialize,
)

__version__ = "0.1.0"
