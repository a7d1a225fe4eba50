"""Arithmetic over F_q and O_alpha = F_q[t]/(t^alpha), with Smith normal form.

Field elements are integers 0..q-1 encoding base-p coefficient vectors of
F_p[x]/(modulus); all field operations go through precomputed tables, which
is comfortable for the supported range p in {2,3,5,7}, k in {1,2}.

O_alpha elements are length-alpha tuples of field elements (coefficient of
t^0 first).  An element is a unit exactly when its t^0 coefficient is
nonzero, and the valuation of 0 is alpha by convention.

The Smith normal form over O_alpha diagonalizes any matrix as
U M V = diag(t^g1, ..., t^gr, 0, ...) with U, V invertible and the g's
weakly increasing; zero diagonal entries are encoded as g = alpha so the
kernel-size formula stays uniform.  One elimination loop computes it:
smith_invariants runs it on a copy of M, and smith_normal_form runs it on
M with I_n appended to its right and I_m stacked below, so that the row
operations carry U and the column operations carry V.

smith_invariants_batch finds the same invariants for a stack of matrices
at once, by ranks over F_q instead of pivots over O_alpha.  The stack is a
numpy integer array of shape (batch, n, m, alpha): entry [b, i, j, s] is
the field code of the t^s coefficient of M_b[i, j].  M acts F_q-linearly
on O_alpha^m; in the bases t^s e_j of O_alpha^m and t^u e_i of O_alpha^n
its matrix T has entry A[i, j, u - s] in row (u, i) and column (s, j) when
u >= s, and 0 otherwise.  The columns with s >= alpha - k span
t^(alpha-k) M(O_alpha^m), which is the sum of the t^(alpha-k+gamma_i)
O_alpha after a change of basis of O_alpha^n, so their rank is
rank T_k = sum_i max(0, k - gamma_i).  Hence c_k = rank T_k - rank T_(k-1)
counts the gammas below k, and the i-th smallest gamma is #{k : c_k <= i}.
One Gaussian elimination that takes the columns by falling s finds every
rank T_k.  M and its transpose have the same invariants, so the kernel
works on whichever has fewer columns.  Rows (u, i) with u < s are zero in
column (s, j) and in every column before it, so no row operation has
touched them yet: column group s eliminates in the row blocks u >= s only.
Field operations are gathers from the flat F_q tables (at most 49^2
entries), so every supported (q, alpha) works without O_alpha-sized
tables.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import UnsupportedParameter

# fixed irreducible quadratics x^2 + c1 x + c0 over F_p, stored as (c1, c0):
# x^2+x+1 over F_2, x^2+1 over F_3 and F_7, x^2+2 over F_5
_QUADRATIC_MODULI = {2: (1, 1), 3: (0, 1), 5: (0, 2), 7: (0, 1)}

_SMALL_PRIMES = (2, 3, 5, 7)


def _factor_prime_power(q: int):
    if q < 2:
        raise UnsupportedParameter(f"field size must be >= 2, got {q}")
    for p in _SMALL_PRIMES:
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m == 1 and k in (1, 2):
                return p, k
    raise UnsupportedParameter(f"unsupported field size {q}: need p^k, p in {_SMALL_PRIMES}, k <= 2")


class Fq:
    """The finite field with q = p^k elements (q <= 49)."""

    _cache: dict = {}

    def __new__(cls, q: int):
        return cls._cache.get(q) or super().__new__(cls)

    def __init__(self, q: int):
        if hasattr(self, "q"):
            return
        p, k = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.k = k
        if k == 2:
            c1, c0 = _QUADRATIC_MODULI[p]
            self.modulus = (c0, c1)  # x^2 = -(c1 x + c0)
        else:
            self.modulus = None
        self._build_tables()
        Fq._cache[q] = self  # only once valid: a rejected q leaves no instance behind

    def _build_tables(self):
        q, p, k = self.q, self.p, self.k
        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            a0, a1 = a % p, a // p
            for b in range(q):
                b0, b1 = b % p, b // p
                add[a][b] = (a0 + b0) % p + p * ((a1 + b1) % p)
                if k == 1:
                    mul[a][b] = (a * b) % p
                else:
                    c0m, c1m = self.modulus
                    # (a0 + a1 x)(b0 + b1 x) with x^2 = -c1 x - c0
                    r0 = (a0 * b0 - a1 * b1 * c0m) % p
                    r1 = (a0 * b1 + a1 * b0 - a1 * b1 * c1m) % p
                    mul[a][b] = r0 + p * r1
        self.add_table = add
        self.mul_table = mul
        self.neg_table = [((-a % p) + p * (-(a // p) % p)) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        self.inv_table = inv
        # the same tables as flat arrays for the batched kernel: a + b is
        # add_flat[a * q + b], which numpy gathers faster than add[a, b];
        # int16 holds every code and every flat index (below 49^2)
        self.arrays = tuple(np.array(t, dtype=np.int16).ravel()
                            for t in (add, mul, self.neg_table, inv))

    def add(self, a, b):
        return self.add_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self.inv_table[a]

    def from_int(self, n: int) -> int:
        """Image of the rational integer n under Z -> F_q."""
        return n % self.p

    def elements(self):
        return range(self.q)

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        n, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n

    def __repr__(self):
        return f"Fq({self.q})"


class _Table(dict):
    """Values of fn by key, each computed on first use and then stored.

    A hit is one dict lookup.  When fn raises, nothing is stored, so a
    failing key fails again on every lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class ORing:
    """O_alpha = F_q[t]/(t^alpha); elements are coefficient tuples.

    add, sub and mul read per-ring tables keyed by the pair of operands,
    and inv and val tables keyed by the element; each entry is computed
    coefficient by coefficient on first use.  The tables belong to the
    instance, since the same tuples have different products in rings of
    different q, and a table holds at most (q^alpha)^2 entries.  Elements
    stay plain tuples: the tables only replace the per-call arithmetic.
    """

    _cache: dict = {}

    def __new__(cls, q: int, alpha: int):
        return cls._cache.get((q, alpha)) or super().__new__(cls)

    def __init__(self, q: int, alpha: int):
        if hasattr(self, "alpha"):
            return
        if alpha < 1:
            raise UnsupportedParameter(f"alpha must be >= 1, got {alpha}")
        self.field = Fq(q)
        self.q = q
        self.alpha = alpha
        self.zero = (0,) * alpha
        self.one = (1,) + (0,) * (alpha - 1)
        self.t = tuple(1 if i == 1 else 0 for i in range(alpha)) if alpha > 1 else (0,)
        self.add_table = _Table(self._sum)
        self.sub_table = _Table(self._difference)
        self.mul_table = _Table(self._product)
        self.inv_table = _Table(self._inverse)
        self.val_table = _Table(self._valuation)
        ORing._cache[q, alpha] = self  # only once valid, as in Fq

    def size(self) -> int:
        return self.q ** self.alpha

    def from_coeffs(self, coeffs):
        c = list(coeffs)[: self.alpha]
        c += [0] * (self.alpha - len(c))
        return tuple(c)

    def from_int(self, n: int):
        return (self.field.from_int(n),) + (0,) * (self.alpha - 1)

    def t_power(self, k: int):
        """t^k, which is zero from k = alpha on."""
        if k >= self.alpha:
            return self.zero
        return tuple(1 if i == k else 0 for i in range(self.alpha))

    def add(self, a, b):
        return self.add_table[a, b]

    def neg(self, a):
        neg = self.field.neg_table
        return tuple(neg[x] for x in a)

    def sub(self, a, b):
        return self.sub_table[a, b]

    def mul(self, a, b):
        return self.mul_table[a, b]

    def _sum(self, pair):
        add = self.field.add_table
        return tuple(add[x][y] for x, y in zip(*pair))

    def _difference(self, pair):
        add, neg = self.field.add_table, self.field.neg_table
        return tuple(add[x][neg[y]] for x, y in zip(*pair))

    def _product(self, pair):
        a, b = pair
        alpha = self.alpha
        add, mul = self.field.add_table, self.field.mul_table
        out = [0] * alpha
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            row = mul[ai]
            for j in range(alpha - i):
                bj = b[j]
                if bj:
                    out[i + j] = add[out[i + j]][row[bj]]
        return tuple(out)

    def scalar_mul(self, c: int, a):
        row = self.field.mul_table[c]
        return tuple(row[x] for x in a)

    def val(self, a) -> int:
        return self.val_table[a]

    def _valuation(self, a) -> int:
        for i, x in enumerate(a):
            if x:
                return i
        return self.alpha

    def inv(self, a):
        """Inverse of a unit; a non-unit raises ZeroDivisionError."""
        return self.inv_table[a]

    def _inverse(self, a):
        """Inverse of a unit, coefficient by coefficient."""
        if a[0] == 0:
            raise ZeroDivisionError("inverse of a non-unit in O_alpha")
        f = self.field
        inv0 = f.inv(a[0])
        out = [inv0] + [0] * (self.alpha - 1)
        for n in range(1, self.alpha):
            # coefficient n of a * out must vanish
            s = 0
            for i in range(1, n + 1):
                s = f.add(s, f.mul(a[i], out[n - i]))
            out[n] = f.neg(f.mul(inv0, s))
        return tuple(out)

    def elements(self):
        return product(self.field.elements(), repeat=self.alpha)

    def units(self):
        for a in self.elements():
            if a[0] != 0:
                yield a

    def __repr__(self):
        return f"ORing(q={self.q}, alpha={self.alpha})"


class OMatrix:
    """Immutable matrix over O_alpha."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: ORing, entries, shape=None):
        self.ring = ring
        self.entries = tuple(tuple(row) for row in entries)
        if self.entries:
            self.rows = len(self.entries)
            self.cols = len(self.entries[0])
        else:
            self.rows, self.cols = shape if shape else (0, 0)

    @staticmethod
    def zero(ring: ORing, rows: int, cols: int) -> "OMatrix":
        return OMatrix(ring, [[ring.zero] * cols for _ in range(rows)])

    def __eq__(self, other):
        if not isinstance(other, OMatrix):
            return NotImplemented
        return self.ring is other.ring and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"OMatrix({self.entries!r})"

    def __add__(self, other):
        r = self.ring
        return OMatrix(r, [[r.add(a, b) for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)],
                       shape=(self.rows, self.cols))

    def __sub__(self, other):
        r = self.ring
        return OMatrix(r, [[r.sub(a, b) for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.entries, other.entries)],
                       shape=(self.rows, self.cols))

    def __neg__(self):
        r = self.ring
        return OMatrix(r, [[r.neg(a) for a in row] for row in self.entries],
                       shape=(self.rows, self.cols))

    def __mul__(self, other):
        r = self.ring
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        if self.rows == 0 or other.cols == 0:
            return OMatrix(r, [], shape=(self.rows, other.cols))
        ot = list(zip(*other.entries)) if other.entries else [()] * other.cols
        add, mul = r.add_table, r.mul_table
        out = []
        for row in self.entries:
            out_row = []
            for col in ot:
                acc = r.zero
                for a, b in zip(row, col):
                    acc = add[acc, mul[a, b]]
                out_row.append(acc)
            out.append(out_row)
        return OMatrix(r, out, shape=(self.rows, other.cols))

    def apply(self, vec):
        """Matrix times column vector (tuple of O-elements)."""
        r = self.ring
        add, mul = r.add_table, r.mul_table
        out = []
        for row in self.entries:
            acc = r.zero
            for a, b in zip(row, vec):
                acc = add[acc, mul[a, b]]
            out.append(acc)
        return tuple(out)

    def reduction_mod_t(self):
        """Entries modulo t, as a list of lists of field elements."""
        return [[e[0] for e in row] for row in self.entries]

    def is_invertible(self) -> bool:
        """Invertible over O_alpha iff invertible modulo t."""
        if self.rows != self.cols:
            return False
        f = self.ring.field
        m = self.reduction_mod_t()
        n = self.rows
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col] != 0), None)
            if piv is None:
                return False
            m[col], m[piv] = m[piv], m[col]
            inv = f.inv(m[col][col])
            m[col] = [f.mul(inv, x) for x in m[col]]
            for r2 in range(n):
                if r2 != col and m[r2][col] != 0:
                    c = m[r2][col]
                    m[r2] = [f.sub(x, f.mul(c, y)) for x, y in zip(m[r2], m[col])]
        return True

    def inverse(self) -> "OMatrix":
        """Inverse of an invertible square matrix, via the Smith factors."""
        gammas, U, V = smith_normal_form(self)
        if any(g != 0 for g in gammas) or self.rows != self.cols:
            raise ZeroDivisionError("matrix is not invertible over O_alpha")
        return V * U


def _eliminate(ring: ORing, A, n: int, m: int):
    """Diagonalize the leading n x m block of the row list A in place.

    Pivots take the entry of smallest valuation in the remaining block,
    ties broken row-major, which makes the elimination deterministic; each
    pivot row is scaled so the pivot becomes exactly t^gamma, and an entry
    x of its column or row is then cleared by the multiple x / t^gamma, a
    shift of coefficients.  Row operations act on whole rows and column
    operations on every row, so columns right of the block and rows below
    it ride along.  Element arithmetic reads the ring's tables, bound to
    locals.  Returns the gammas, of length min(n, m), with zero invariants
    as alpha.
    """
    alpha, zero = ring.alpha, ring.zero
    sub, mul, inv, val = ring.sub_table, ring.mul_table, ring.inv_table, ring.val_table
    gammas = []
    limit = min(n, m)
    k = 0
    while k < limit:
        best = None
        best_val = alpha
        for i in range(k, n):
            Ai = A[i]
            for j in range(k, m):
                v = val[Ai[j]]
                if v < best_val:
                    best, best_val = (i, j), v
                    if v == 0:
                        break
            if best_val == 0:
                break
        if best is None:
            break
        i0, j0 = best
        if i0 != k:
            A[k], A[i0] = A[i0], A[k]
        if j0 != k:
            for row in A:
                row[k], row[j0] = row[j0], row[k]
        g = best_val
        pad = (0,) * g
        unit_inv = inv[A[k][k][g:] + pad]
        A[k] = Ak = [mul[unit_inv, x] for x in A[k]]
        # rows and columns before k are already clear in column and row k
        for i in range(k + 1, n):
            x = A[i][k]
            if x == zero:
                continue
            c = x[g:] + pad
            A[i] = [sub[a, mul[c, b]] for a, b in zip(A[i], Ak)]
        for j in range(k + 1, m):
            x = Ak[j]
            if x == zero:
                continue
            c = x[g:] + pad
            for row in A:
                row[j] = sub[row[j], mul[c, row[k]]]
        gammas.append(g)
        k += 1
    while len(gammas) < limit:
        gammas.append(alpha)
    return gammas


def smith_normal_form(M: OMatrix):
    """Return (gammas, U, V) with U M V = diag(t^g) and U, V invertible.

    The elimination runs on [M | I_n] with I_m stacked below: row
    operations build U in the right-hand columns and column operations
    build V in the bottom rows.  gammas has length min(rows, cols); zero
    invariants appear as alpha.
    """
    ring = M.ring
    n, m = M.rows, M.cols
    A = [list(row) + [ring.one if j == i else ring.zero for j in range(n)]
         for i, row in enumerate(M.entries)]
    A += [[ring.one if j == i else ring.zero for j in range(m)] for i in range(m)]
    gammas = _eliminate(ring, A, n, m)
    return gammas, OMatrix(ring, [row[m:] for row in A[:n]]), OMatrix(ring, A[n:])


def smith_invariants(M: OMatrix):
    """The gammas alone, skipping the U/V bookkeeping (hot-loop variant)."""
    return _eliminate(M.ring, [list(row) for row in M.entries], M.rows, M.cols)


def _mul_batch(q, add, mul, a, b):
    """Truncated products of two broadcastable stacks of coefficient vectors."""
    alpha = a.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int16)
    for i in range(alpha):
        ai = a[..., i] * q
        for j in range(alpha - i):
            out[..., i + j] = add[out[..., i + j] * q + mul[ai + b[..., j]]]
    return out


def smith_invariants_batch(field: Fq, A) -> np.ndarray:
    """Smith invariants of a stack of matrices over O_alpha, alpha = A.shape[-1].

    A has shape (batch, n, m, alpha) and holds field-element codes; the
    result has shape (batch, min(n, m)) and equals smith_invariants on each
    matrix.  The gammas come from rank T_1, ..., rank T_alpha, where T_k
    is the columns s >= alpha - k of the F_q matrix T of a matrix (see the
    module docstring); one elimination over the columns by falling s finds
    them all.  T is held batch last, with the column groups in the order
    s = alpha - 1, ..., 0, so that group k ends at rank T_k.  Each pivot
    row also clears itself, so a spent pivot row is zero and the pivot of
    a column is simply its first nonzero row.
    """
    q = field.q
    add, mul, neg, inv = field.arrays
    A = np.asarray(A)
    batch, n, m, alpha = A.shape
    limit = min(n, m)
    if n < m:
        A = A.transpose(0, 2, 1, 3)
        n, m = m, n
    A = np.moveaxis(A, 0, -1)
    T = np.zeros((alpha, n, alpha, m, batch), dtype=np.int16)
    for u in range(alpha):
        for s in range(u + 1):
            T[u, :, alpha - 1 - s] = A[:, :, u - s]
    T = T.reshape(alpha * n, alpha * m, batch)
    neg_inv = neg.take(inv)
    items = np.arange(batch)
    counts = np.full((alpha, batch), limit, dtype=np.intp)  # c_1, ..., c_alpha
    for k in range(1, alpha + 1):
        rows = T[(alpha - k) * n:]  # the row blocks u >= s = alpha - k
        found = np.zeros(batch, dtype=np.intp)
        for col_index in range((k - 1) * m, k * m):
            col = rows[:, col_index]
            p = (col != 0).argmax(axis=0)
            pivot = col[p, items]
            has = pivot != 0
            if not has.any():
                continue
            found += has
            # row r -= (col[r] / pivot) * pivot row; where an item has no
            # pivot, its col is zero and its rows stay as they are
            scaled = mul.take(rows[p, col_index + 1:, items] * q + neg_inv.take(pivot)[:, None])
            rest = rows[:, col_index + 1:]
            rest[...] = add.take(rest * q + mul.take(col[:, None] * q + scaled.T[None]))
        counts[k - 1] = found
        if (found == limit).all():
            break  # every later c_k is limit too
    return (counts.T[:, None, :] <= np.arange(limit)[None, :, None]).sum(axis=2)


def kernel_size_exponent(M: OMatrix) -> int:
    """e with |Ker M| = q^e for M acting on O_alpha^cols.

    A diagonal entry t^g contributes g; each of the cols - r zero columns
    contributes a full alpha.
    """
    alpha = M.ring.alpha
    gammas = [g for g in smith_invariants(M) if g < alpha]
    return alpha * (M.cols - len(gammas)) + sum(gammas)


def gl_order(q: int, alpha: int, r: int) -> int:
    """|GL_r(O_alpha)| = q^((alpha-1) r^2) * prod_{i<r} (q^r - q^i)."""
    if r == 0:
        return 1
    order = q ** ((alpha - 1) * r * r)
    for i in range(r):
        order *= q ** r - q ** i
    return order
