"""Independent reference implementations used to cross-check the
package.  Everything here is deliberately naive: dict-based polynomial
arithmetic, trial division, schoolbook matrix products over residue
representations.  None of it shares code with ytwo internals."""

from __future__ import annotations


# -- GF(2) Laurent polynomials as exponent sets -----------------------------


def ref_lp(exps=()):
    """A Laurent polynomial as a frozenset of exponents (XOR semantics)."""
    out = set()
    for e in exps:
        out ^= {e}
    return frozenset(out)


def ref_lp_add(x, y):
    return frozenset(set(x) ^ set(y))


def ref_lp_mul(x, y):
    out = set()
    for a in x:
        for b in y:
            out ^= {a + b}
    return frozenset(out)


# -- GF(2)[s, 1/s][alpha] / (alpha^2 + s alpha + 1) --------------------------
# elements: dict alpha_degree -> frozenset of s-exponents


def ref_qe(c0=(), c1=()):
    return {0: ref_lp(c0), 1: ref_lp(c1)}


def ref_qe_mul(x, y):
    prod = {}
    for dx, cx in x.items():
        for dy, cy in y.items():
            d = dx + dy
            prod[d] = ref_lp_add(prod.get(d, frozenset()), ref_lp_mul(cx, cy))
    # reduce alpha^k for k >= 2 via alpha^2 = s*alpha + 1
    while any(d >= 2 and prod[d] for d in list(prod)):
        d = max(dd for dd in prod if dd >= 2 and prod[dd])
        c = prod.pop(d)
        s_c = ref_lp_mul(c, ref_lp([1]))
        prod[d - 1] = ref_lp_add(prod.get(d - 1, frozenset()), s_c)
        prod[d - 2] = ref_lp_add(prod.get(d - 2, frozenset()), c)
    return {0: prod.get(0, frozenset()), 1: prod.get(1, frozenset())}


# -- the Clifford algebra by word rewriting ---------------------------------
# Generators are u = 0 and v_i = i.  An element is a dict from ascending
# generator words to ref_qe coefficients (a Laurent coefficient is a
# ref_qe with an empty alpha part); zero coefficients are never stored.


def ref_qe_add(x, y):
    return {d: ref_lp_add(x[d], y[d]) for d in (0, 1)}


def _ref_cl_add_into(acc, word, coeff):
    total = ref_qe_add(acc.get(word, ref_qe()), coeff)
    if total[0] or total[1]:
        acc[word] = total
    else:
        acc.pop(word, None)


_WORD_CACHE: dict = {}


def ref_cl_word(word):
    """Normal form of a generator word, rewriting the leftmost adjacent
    pair that is out of order: x_j x_i = x_i x_j + 1 (i < j), u u = 1,
    v_i v_i = 1/t = s**-2."""
    hit = _WORD_CACHE.get(word)
    if hit is not None:
        return hit
    out = {}
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if a == b:
            square = ref_qe([0] if a == 0 else [-2])
            for w, c in ref_cl_word(word[:k] + word[k + 2:]).items():
                _ref_cl_add_into(out, w, ref_qe_mul(square, c))
            break
        if a > b:
            for sub in (word[:k] + (b, a) + word[k + 2:], word[:k] + word[k + 2:]):
                for w, c in ref_cl_word(sub).items():
                    _ref_cl_add_into(out, w, c)
            break
    else:
        out = {word: ref_qe([0])}
    _WORD_CACHE[word] = out
    return out


def ref_cl_add(x, y):
    out = dict(x)
    for w, c in y.items():
        _ref_cl_add_into(out, w, c)
    return out


def ref_cl_mul(x, y):
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            c = ref_qe_mul(cx, cy)
            for w, cw in ref_cl_word(wx + wy).items():
                _ref_cl_add_into(out, w, ref_qe_mul(c, cw))
    return out


def ref_cl_transpose(x):
    out = {}
    for wx, cx in x.items():
        for w, cw in ref_cl_word(wx[::-1]).items():
            _ref_cl_add_into(out, w, ref_qe_mul(cx, cw))
    return out


# -- square matrices by the schoolbook product -------------------------------
# A matrix is a list of rows.  A ring is an (add, mul, zero) triple over
# one of the scalar references: ref_lp, ref_qe, or RefField residues.

REF_LP_RING = (ref_lp_add, ref_lp_mul, frozenset())
REF_QE_RING = (ref_qe_add, ref_qe_mul, ref_qe())


def ref_mat_mul(a, b, ring):
    """Entry (i, j) is the sum of a[i][k] * b[k][j] over every k, zero
    terms included.  ``a`` may have any number of rows, so a row vector
    times a matrix is a one-row product."""
    add, mul, zero = ring
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            total = zero
            for k in range(len(b)):
                total = add(total, mul(row[k], b[k][j]))
            out_row.append(total)
        out.append(out_row)
    return out


# -- GF(2)[x] as int bit masks ----------------------------------------------


def ref_pmul(a, b):
    out = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            out ^= a << i
        i += 1
    return out


def ref_pdivmod(a, b):
    q = 0
    db = b.bit_length() - 1
    while a.bit_length() - 1 >= db and a:
        sh = (a.bit_length() - 1) - db
        a ^= b << sh
        q |= 1 << sh
    return q, a


def ref_pmod(a, b):
    return ref_pdivmod(a, b)[1]


def ref_factor_degrees(poly):
    """Degrees of the irreducible factors of a GF(2)[x] polynomial, by
    trial division in ascending candidate order (the smallest divisor
    found this way is automatically irreducible)."""
    degrees = []
    while poly.bit_length() - 1 > 0:
        for cand in range(2, poly + 1):
            q, r = ref_pdivmod(poly, cand)
            if r == 0:
                degrees.append(cand.bit_length() - 1)
                poly = q
                break
    return sorted(degrees)


def ref_xn_plus_1_over_x_plus_1(n):
    """(x^n + 1) / (x + 1) as an int mask: 1 + x + ... + x^(n-1)."""
    return (1 << n) - 1


# -- the form and transvections, dense ---------------------------------------


def ref_q_eval(space, vec):
    """q(vec) from the q-values and the all-ones pairing of distinct basis
    vectors, over every pair of entries."""
    n, q = space.rank, space.zero
    for i in range(n):
        q = q + vec[i] * vec[i] * space.q_values[i]
        for j in range(i + 1, n):
            q = q + vec[i] * vec[j]
    return q


def ref_bilin(space, x, y):
    """(x, y) as the sum of x_i y_j over all ordered pairs i != j."""
    n, total = space.rank, space.zero
    for i in range(n):
        for j in range(n):
            if i != j:
                total = total + x[i] * y[j]
    return total


def ref_transvection(space, w):
    """Dense rows of x -> x + ((x, w)/q(w)) w, one basis vector x at a
    time: q(w) by ``ref_q_eval``, (e_i, w) as the sum of w's entries off
    position i."""
    n, zero, one = space.rank, space.zero, space.one
    qw_inv = ref_q_eval(space, w).inverse()
    rows = []
    for i in range(n):
        pair = zero
        for j in range(n):
            if j != i:
                pair = pair + w[j]
        c = pair * qw_inv
        rows.append(tuple((one if j == i else zero) + c * w[j] for j in range(n)))
    return tuple(rows)


# -- words by the left fold ---------------------------------------------------


def ref_evaluate(word, rep):
    """Image of a word as the plain left fold of its letter images, one
    product per letter (``rep.identity`` for the empty word)."""
    acc = rep.identity
    for letter in word:
        acc = acc * rep.image(letter)
    return acc


def _ref_inverse_word(word):
    """Reversed, with a <-> A; every other letter here is an involution."""
    return tuple({"a": "A", "A": "a"}.get(x, x) for x in reversed(word))


def ref_b_word(i):
    """The paper's b-generator: b_1 = a, b_{i+1} = S<i> b_i S<i>."""
    word = ("a",)
    for j in range(1, i):
        word = (f"S{j}",) + word + (f"S{j}",)
    return word


def ref_tau_free_b_word(i):
    """The same recursion with t cancelled (t inverts every b_i):
    b_{i+1} = s<i> b_i^{-1} s<i>, for reps without t- or S-letters."""
    word = ("a",)
    for j in range(1, i):
        word = (f"s{j}",) + _ref_inverse_word(word) + (f"s{j}",)
    return word


def ref_expand_b_letters(word):
    """Spell out each b-letter b<i> as ``ref_b_word(i)`` and each B<i> as
    its inverse; other letters stay."""
    out = ()
    for letter in word:
        if letter[0] == "b":
            out += ref_b_word(int(letter[1:]))
        elif letter[0] == "B":
            out += _ref_inverse_word(ref_b_word(int(letter[1:])))
        else:
            out += (letter,)
    return out


# -- GF(2^d) via residues ----------------------------------------------------


class RefField:
    def __init__(self, modulus):
        self.modulus = modulus
        self.d = modulus.bit_length() - 1

    def mul(self, a, b):
        return ref_pmod(ref_pmul(a, b), self.modulus)

    def pow(self, a, k):
        if a == 0:
            return 0 if k else 1
        k %= (1 << self.d) - 1
        r = 1
        for _ in range(k):
            r = self.mul(r, a)
        return r

    @property
    def ring(self):
        return (lambda a, b: a ^ b, self.mul, 0)

    def order(self, a):
        assert a
        r = 1
        x = a
        while x != 1:
            x = self.mul(x, a)
            r += 1
        return r


def ref_ff_rank(field, rows):
    """Rank over GF(2**d) of a list of rows of residues, by Gaussian
    elimination in ``field`` (a RefField); a pivot a is inverted as
    a**(q - 2)."""
    rows = [list(r) for r in rows]
    q = 1 << field.d
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.pow(rows[rank][col], q - 2)
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != rank and c:
                rows[i] = [x ^ field.mul(c, y) for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def ref_ff_det(field, rows):
    """Determinant over GF(2**d) of a square list of rows of residues, by
    Gaussian elimination in ``field`` (a RefField): the product of the
    pivots, no sign in characteristic two."""
    rows = [list(r) for r in rows]
    q = 1 << field.d
    det = 1
    for col in range(len(rows)):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if pivot is None:
            return 0
        rows[col], rows[pivot] = rows[pivot], rows[col]
        det = field.mul(det, rows[col][col])
        inv = field.pow(rows[col][col], q - 2)
        for i in range(col + 1, len(rows)):
            c = field.mul(rows[i][col], inv)
            if c:
                rows[i] = [x ^ field.mul(c, y) for x, y in zip(rows[i], rows[col])]
    return det


# -- classical group order formulas ------------------------------------------


def order_sl2(q):
    return q * (q * q - 1)


def order_sp4(q):
    return q ** 4 * (q ** 2 - 1) * (q ** 4 - 1)


def order_omega_minus_6(q):
    return q ** 6 * (q ** 3 + 1) * (q ** 2 - 1) * (q ** 4 - 1)


def factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# -- permutation closure (for symmetric-group checks) -------------------------


def perm_closure(perms):
    """Order of the permutation group generated by tuples."""
    n = len(perms[0])
    ident = tuple(range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                q = tuple(g[p[i]] for i in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)
