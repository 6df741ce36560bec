"""Finite-field specialization and matrix-group enumeration.

Specializing a representation applies an evaluation map entrywise to
its generator matrices; the relators are re-checked over the field and
(for the transvection representation) preservation of the specialized
form is verified on the basis.

Enumeration is Dimino's coset closure under right multiplication
(Butler, *Fundamental Algorithms for Permutation Groups*, 1991).  A
matrix over GF(2**d) is packed row-major into a single integer (each
entry contributing its d coefficient bits, little-endian) -- the
canonical encoding used for deduplication.  Because a fixed right
factor is GF(2)-linear in the packed row bits, each generator is
compiled into a block schedule: a state of any number of components is
the concatenation of their packings, its whole rows (across component
boundaries) are grouped into blocks of at most 128 bits, and each block
has one XOR lookup table per 12-bit chunk, shared by blocks with equal
bit images.  The generators are taken one at a time.  While g_i is
taken, the elements found are one list of right cosets of
H = <g_1, ..., g_(i-1)>, and each new coset is built whole, one pass
per chunk over the |H| states of a stored coset.  Only a coset
representative's product with each generator is tested for
membership, so there is about one product per element, not one per
element and generator.  It stops before a coset would take the stored
states past a cap, or their bytes past a fixed budget, which wide
states meet first.  ``DEFAULT_CAP`` is every default cap here and the
CLI's largest ``--cap``.  ``GroupReport`` is a ``rings.Record``.
"""

import sys
from math import gcd

from .errors import CapExceededError
from .presentation import (
    A,
    Representation,
    TAU,
    relator_failures,
    schedule,
    st_letter,
)
from .ortho import OrthoRep
from .quadspace import (
    QuadSpace,
    RMatrix,
    bilin,
    gram_rank_gf2,
    q_eval,
    radical_vector,
)
from .rings import (
    EvalMap, Record, cyclotomic_cosets, cyclotomic_split, ff_rank, make_eval_map,
    prime_factors,
)
from .spinor import SpinorRep


class SpecializedRep(Representation):
    """A representation's letter images mapped entrywise into a finite
    field by an evaluation map."""

    name = "specialized"

    def __init__(self, source: Representation, emap: EvalMap):
        self.map = emap
        self.field = emap.field
        images = {
            letter: source.image(letter).map_entries(emap.apply)
            for letter in source.letters()
        }
        super().__init__(source.m, images, source.identity.map_entries(emap.apply))

    @property
    def b_matrices(self) -> tuple:
        """The images of the b-letters b1..bm."""
        return tuple(self.image(f"b{i}") for i in range(1, self.m + 1))


_RELATOR_K = 10


def specialize(m: int, n: int, kind: str = "phi") -> SpecializedRep:
    """Specialize the transvection ("phi") or block-recursive ("eta")
    representation at the order-n evaluation map, verifying the relators
    up to ``_RELATOR_K`` over the field."""
    emap = make_eval_map(n)
    if kind == "phi":
        source, flavor = OrthoRep(QuadSpace(m)), "y-tilde"
    elif kind == "eta":
        source, flavor = SpinorRep(m), "y"
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    rep = SpecializedRep(source, emap)
    bad = relator_failures(schedule(m, _RELATOR_K, flavor), rep)
    if bad:
        raise ArithmeticError(f"specialized relators failed: {bad}")
    if kind == "phi":
        _check_form_preserved(rep)
    return rep


def _check_form_preserved(rep: SpecializedRep):
    emap = rep.map
    space = QuadSpace(
        rep.m,
        q_values=[emap.apply(q) for q in QuadSpace(rep.m).q_values],
        one=rep.field.one,
        zero=rep.field.zero,
    )
    basis = [space.basis_vector(i) for i in range(space.rank)]
    letters = [TAU, A] + [st_letter(i) for i in range(1, rep.m)]
    for letter in letters:
        mat = rep.image(letter)
        imgs = [mat.row_apply(x) for x in basis]
        for i, x in enumerate(basis):
            if q_eval(space, imgs[i]) != q_eval(space, x):
                raise ArithmeticError(f"{letter} image does not preserve q")
            for j in range(i + 1, space.rank):
                if bilin(space, imgs[i], imgs[j]) != bilin(space, x, basis[j]):
                    raise ArithmeticError(f"{letter} image skews the pairing")


# -- packed enumeration ------------------------------------------------------


def pack_matrix(mat: RMatrix) -> int:
    """Row-major little-endian bit packing; the dedup encoding."""
    d = mat.zero.field.degree
    n = mat.size
    out = 0
    for i, row in enumerate(mat.entries):
        for j, x in row.items():
            out |= x.bits << ((i * n + j) * d)
    return out


def unpack_matrix(packed: int, n: int, field) -> RMatrix:
    d = field.degree
    mask = (1 << d) - 1
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(field.element(packed & mask))
            packed >>= d
        rows.append(tuple(row))
    return RMatrix(rows)


_BLOCK_BITS = 128
_CHUNK_BITS = 12


def _row_images(mat: RMatrix) -> list:
    """Packed image under right multiplication by ``mat`` of each bit of
    one packed row (bit k of entry j is x**k in column j)."""
    field = mat.zero.field
    d = field.degree
    powers = [field.pow_bits(field.x.bits, k) for k in range(d)]
    images = []
    for row in mat.entries:
        for xk_bits in powers:
            packed = 0
            for c, entry in row.items():
                packed |= field.mul_bits(xk_bits, entry.bits) << (c * d)
            images.append(packed)
    return images


def _chunk_tables(images: list) -> list:
    """XOR table for each ``_CHUNK_BITS`` chunk of a block with these bit
    images; the last table may be narrower, and len(table) - 1 is its mask."""
    tables = []
    for base in range(0, len(images), _CHUNK_BITS):
        table = [0]
        for img in images[base : base + _CHUNK_BITS]:
            table += [t ^ img for t in table]
        tables.append(table)
    return tables


def _compile_generator(gens) -> list:
    """Block schedule of right multiplication by the tuple ``gens`` (one
    matrix per component) on the concatenated packing: consecutive whole
    rows, crossing component boundaries, grouped into ``(shift, tables)``
    blocks of at most ``_BLOCK_BITS`` bits (a wider row is a block alone).
    Blocks with equal bit images share one table list."""
    rows = []
    for mat in gens:
        rows += [_row_images(mat)] * mat.size
    shared = {}
    blocks = []
    shift = 0
    i = 0
    while i < len(rows):
        images = list(rows[i])
        i += 1
        while i < len(rows) and len(images) + len(rows[i]) <= _BLOCK_BITS:
            images += [img << len(images) for img in rows[i]]
            i += 1
        key = tuple(images)
        if key not in shared:
            shared[key] = _chunk_tables(images)
        blocks.append((shift, shared[key]))
        shift += len(images)
    return blocks


def _apply(blocks: list, states: list) -> list:
    """Images of a whole list of packed states under one block schedule:
    one pass over the states per chunk, one shift-merge per later block."""
    out = None
    for shift, tables in blocks:
        img = None
        for ci, table in enumerate(tables):
            at = shift + ci * _CHUNK_BITS
            mask = len(table) - 1
            if img is None:
                img = [table[x >> at & mask] for x in states]
            else:
                img = [y ^ table[x >> at & mask] for y, x in zip(img, states)]
        out = img if out is None else [o | y << shift for o, y in zip(out, img)]
    return out


# The default cap on the states an enumeration stores, and the largest
# ``--cap`` the CLI accepts.
DEFAULT_CAP = 2_000_000
# The cap counts states; this bounds their bytes, which grow with the
# state width (a (10,41) phi state packs 2,420 bits, a (3,9) one 96).
_BYTE_BUDGET = 512 << 20
# a stored state beyond its int: a set slot (16 bytes) at up to 4x
# over-allocation, its pointer in ``elements``, and one more pointer
# that bounds the transient coset slice and its images (a coset is no
# larger than the elements already stored)
_STATE_OVERHEAD = 4 * 16 + 2 * 8


def _coset_closure(ident: int, schedules, cap: int) -> int:
    """Dimino's closure.  While a generator is taken, ``elements`` is a
    disjoint union of right cosets of H, the group of the generators
    taken before it, each stored as a run of |H| states that starts with
    its representative (H first, from the identity).  A coset is either
    stored whole or disjoint from ``elements``, so a representative's
    product with a generator is the only membership test, and when it is
    new its whole coset is added untested.  The walk ends when every
    coset is closed under every generator taken, so ``elements`` is the
    group."""
    state_bytes = sys.getsizeof(ident) + _STATE_OVERHEAD
    elements = [ident]
    seen = {ident}

    def add_coset(blocks, start, size):
        # both limits are checked before the images are built, the cap
        # first; the coset is new, so the count is a lower bound on the order
        count = len(elements) + size
        if count > cap:
            raise CapExceededError(
                f"enumeration passed the cap of {cap} elements", count=count
            )
        if count * state_bytes > _BYTE_BUDGET:
            raise CapExceededError(
                f"enumeration would pass the budget of {_BYTE_BUDGET} bytes "
                f"at {state_bytes} bytes per state",
                count=len(elements),
            )
        coset = _apply(blocks, elements[start : start + size])
        elements.extend(coset)
        seen.update(coset)

    taken = []
    for g in schedules:
        if _apply(g, [ident])[0] in seen:
            continue  # g is already in H
        size = len(elements)  # elements[:size] is H
        taken.append(g)
        add_coset(g, 0, size)
        pos = size  # the representatives of the cosets past H
        while pos < len(elements):
            rep = [elements[pos]]
            for s in taken:
                if _apply(s, rep)[0] not in seen:
                    add_coset(s, pos, size)
            pos += size
    return len(elements)


def _group_order(generator_tuples, cap: int) -> int:
    """Order of the group generated by tuples of invertible field matrices
    (one matrix per component, multiplied componentwise).

    Dimino's coset closure under right multiplication; a state is the
    concatenation of the component packings.  Raises ValueError unless
    component c is invertible, of one size and over one field in every
    tuple, and CapExceededError before a coset could take the stored
    states past ``cap`` or their bytes past ``_BYTE_BUDGET``.
    """
    generator_tuples = [tuple(t) for t in generator_tuples]
    if not generator_tuples:
        return 1
    ncomp = len(generator_tuples[0])
    if any(len(t) != ncomp for t in generator_tuples):
        raise ValueError("generator tuples must have equal length")
    if not ncomp:
        return 1
    ident = 0
    offset = 0
    for c, mat0 in enumerate(generator_tuples[0]):
        n = mat0.size
        field = mat0.zero.field
        for tup in generator_tuples:
            mat = tup[c]
            if mat.size != n or mat.zero.field != field:
                raise ValueError(
                    f"component {c}: generators must all be {n}x{n} over {field}"
                )
            if ff_rank(field, [[x.bits for x in row] for row in mat.rows]) != n:
                raise ValueError("generator matrix is singular")
        ident |= pack_matrix(RMatrix.identity(n, field.one, field.zero)) << offset
        offset += n * n * field.degree
    schedules = [_compile_generator(tup) for tup in generator_tuples]
    return _coset_closure(ident, schedules, cap)


def group_order_bfs(generators, cap: int = DEFAULT_CAP) -> int:
    """Exact order of the group generated by invertible field matrices."""
    return _group_order([(g,) for g in generators], cap)


def group_order_bfs_tuples(generator_tuples, cap: int = DEFAULT_CAP) -> int:
    """Order of a group of matrix tuples (one matrix per component ring,
    multiplied componentwise).  States are the concatenated packings."""
    return _group_order(generator_tuples, cap)


def unit_coset_reps(n: int) -> list:
    """Least representative of each 2-cyclotomic coset of the units mod n."""
    return [c[0] for c in cyclotomic_cosets(n) if gcd(c[0], n) == 1]


def augmentation_components(n: int) -> list:
    """One evaluation map per direct factor of the order-n augmentation
    ring: for every divisor n' >= 3 of n and every 2-cyclotomic coset of
    units mod n', the map sending alpha to the corresponding primitive
    n'-th root.  The field degrees reproduce ``cyclotomic_split(n)``."""
    out = []
    for div in range(3, n + 1):
        if n % div:
            continue
        base = make_eval_map(div)
        for c in unit_coset_reps(div):
            out.append(EvalMap(div, base.field, base.zeta ** c))
    return out


def eta_component_matrices(m: int, n: int) -> list:
    """b-generator tuples for the full augmentation specialization of
    the block-recursive representation (one matrix per component)."""
    source = SpinorRep(m)
    components = [
        SpecializedRep(source, emap).b_matrices
        for emap in augmentation_components(n)
    ]
    return [tuple(comp[i] for comp in components) for i in range(m)]


def matrix_order(mat: RMatrix, n: int):
    """The multiplicative order of a field matrix, given that it divides
    n: None unless mat**n is the identity, else n with each prime p
    divided out while mat**(order/p) is still the identity."""
    if not (mat**n).is_identity:
        return None
    order = n
    for p in prime_factors(n):
        while order % p == 0 and (mat ** (order // p)).is_identity:
            order //= p
    return order


def dickson(mat: RMatrix) -> int:
    """rank(M + 1) mod 2: the Z2 invariant that is 1 on transvections.

    It is the Dickson invariant only where the bilinear form is
    nondegenerate (odd m, even matrix size).  On even m it is the raw
    parity, and the small-cases row marks its check with a caveat.
    """
    field = mat.zero.field
    rows = [
        [x.bits ^ 1 if i == j else x.bits for j, x in enumerate(row)]
        for i, row in enumerate(mat.rows)
    ]
    return ff_rank(field, rows) & 1


# -- the small-cases report --------------------------------------------------

# Expected orders from the classical order formulas (see the test oracle):
#   SL2(q) = q (q**2 - 1), Sp4(q) = q**4 (q**2 - 1)(q**4 - 1),
#   Omega-(6, q) = q**6 (q**3 + 1)(q**2 - 1)(q**4 - 1), and the radical
#   rows carry an extra factor q**m for the translation normal subgroup.
EXPECTED_ORDERS = {
    (3, 5): 4080,  # SL2(16)
    (3, 7): 254016,  # SL2(8) x SL2(8)
    (4, 5): 979200,  # Sp4(4)
    (4, 7): 1056706560,  # Sp4(8)
    (5, 5): 1018368000,  # Omega-(6, 4)
    (3, 11): 1073740800,  # SL2(32**2)
    (6, 5): 4096 * 1018368000,  # 4**6 : Omega-(6, 4)
}


class GroupReport(Record):
    """One small-cases row: ``enumeration`` is "ran", "skip" or "cap", and
    ``budget_stop`` the byte-budget error that ended a "cap" run, if any.
    On even m the Dickson check carries a degenerate-form caveat."""

    __slots__ = (
        "m", "n", "map_desc", "specialization_error", "expected_order",
        "order_phi", "order_eta", "enumeration", "cap", "budget_stop",
        "a_order_phi", "a_order_eta", "radical_rank", "q_radical",
        "dickson_values", "aug_degrees",
    )
    _defaults = dict(
        specialization_error=None, expected_order=None, order_phi=None,
        order_eta=None, enumeration="skip", cap=DEFAULT_CAP, budget_stop=None,
        a_order_phi=None, a_order_eta=None, radical_rank=None, q_radical=None,
        dickson_values=dict, aug_degrees=(),
    )

    @property
    def checks(self) -> list:
        """The row's verdict: one ``(name, ok, expected, actual, detail)``
        tuple per named check, with ``ok`` None for a skipped check."""
        out = []

        def add(name, ok, expected=None, actual=None, detail=None):
            out.append((name, ok, expected, actual, detail))

        m, n = self.m, self.n
        name = f"relators_specialized/m={m}/n={n}"
        if self.specialization_error is not None:
            return [(name, False, None, None, self.specialization_error)]
        add(name, True, detail=f"map {self.map_desc}")
        for label, order in (("phi", self.a_order_phi), ("eta", self.a_order_eta)):
            add(f"a_order_{label}", order == n, str(n), str(order))
        rank, want = self.radical_rank, 1 if m % 2 == 0 else 0
        add("radical_rank", rank == want, str(want), str(rank))
        if self.q_radical is not None:
            want = 0 if m % 4 == 2 else 1
            add("q_radical", self.q_radical == want, str(want), str(self.q_radical))
        add(
            "dickson_b_generators",
            all(v == 0 for v in self.dickson_values.values()),
            "0 (even transvection count)",
            str(self.dickson_values),
            "caveat: degenerate form" if m % 2 == 0 else None,
        )
        expected, cap = self.expected_order, self.cap
        if self.enumeration == "ran":
            orders = {"phi": self.order_phi, "eta": self.order_eta}
            for label, other in (("phi", "eta"), ("eta", "phi")):
                order = orders[label]
                if expected is None:
                    ok = order == orders[other]
                    detail = None if ok else f"{other} order {orders[other]}"
                    add(f"group_order_{label}", ok, None, str(order), detail)
                else:
                    ok = order == expected
                    add(f"group_order_{label}", ok, str(expected), str(order))
        elif (
            self.enumeration == "cap"
            and self.budget_stop is None
            and expected is not None
            and expected <= cap
        ):
            # passing the cap proves the order exceeds the expected one
            add("group_order", False, str(expected), f"> {cap}", f"cap {cap} exceeded")
        else:
            if self.enumeration == "cap":
                detail = self.budget_stop or f"cap {cap} exceeded"
            elif expected is not None and expected > cap:
                detail = (
                    f"expected order {expected} exceeds cap {cap}; "
                    "structural checks only"
                )
            else:
                known = "unknown" if expected is None else expected
                detail = f"expected order {known}; enumeration not requested"
            add("group_order", None, detail=detail)
        return out

    @property
    def failures(self) -> list:
        """Names of the failed checks."""
        return [name for name, ok, *_ in self.checks if ok is False]

    @property
    def status(self) -> str:
        oks = [ok for _, ok, *_ in self.checks]
        if False in oks:
            return "fail"
        return "skip" if None in oks else "pass"


def small_cases_check(
    m: int,
    n: int,
    cap: int = DEFAULT_CAP,
    force: bool = False,
) -> GroupReport:
    """Specialize both representations at (m, n) and record the
    structural invariants (and, under the cap, exact enumerated orders)
    that ``GroupReport.checks`` compares against the small-cases
    expectations.

    The closure runs only when the expected order is known and within
    the cap, or always under ``force`` (a cap hit is recorded as
    enumeration="cap", not raised, and any order fields already
    completed stay populated).

    A specialization that fails (a relator or the form check) ends the
    row: its error becomes the failed ``relators_specialized`` check.
    """
    try:
        phi = specialize(m, n, "phi")
        eta = specialize(m, n, "eta")
    except ArithmeticError as exc:
        desc = make_eval_map(n).describe()
        return GroupReport(
            m=m, n=n, map_desc=desc, cap=cap, specialization_error=str(exc)
        )
    report = GroupReport(m=m, n=n, map_desc=phi.map.describe(), cap=cap)
    report.aug_degrees = tuple(cyclotomic_split(n))
    report.expected_order = EXPECTED_ORDERS.get((m, n))

    report.a_order_phi = matrix_order(phi.image(A), n)
    report.a_order_eta = matrix_order(eta.image(A), n)

    space = QuadSpace(m)
    report.radical_rank = (m + 1) - gram_rank_gf2(m)
    if m % 2 == 0:
        r = radical_vector(space)
        q_r = q_eval(space, r)
        report.q_radical = 1 if q_r.is_one else 0

    for i, mat in enumerate(phi.b_matrices, start=1):
        report.dickson_values[f"b{i}"] = dickson(mat)

    if force or (report.expected_order is not None and report.expected_order <= cap):
        try:
            report.order_phi = group_order_bfs(phi.b_matrices, cap)
            report.order_eta = group_order_bfs_tuples(
                eta_component_matrices(m, n), cap
            )
            report.enumeration = "ran"
        except CapExceededError as exc:
            report.enumeration = "cap"
            if exc.count <= cap:  # stopped by the byte budget, not the cap
                report.budget_stop = str(exc)
    return report
