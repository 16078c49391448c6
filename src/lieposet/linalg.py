"""Exact rational linear algebra, plus a sparse rank over GF(p).

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator). An integer row is a dict ``{col: int}`` of its
nonzeros. One fraction-free (Bareiss 1968) elimination on such rows bounds
coefficient growth and serves rank, determinant, kernels and solves. One
integer back-substitution gives every kernel vector, and a solve is one
of them: A x = b holds exactly when (x, -1) lies in the kernel of
[A | b], whose b column is never a pivot. ``int_null_space`` and
``int_solve_scaled`` return integer vectors X over one scale D, the last
pivot (nonzero, of either sign); the Fraction front ends ``kernel_basis``
and ``solve`` build each entry once, as X / D. Callers that hold integer
rows use the ``int_*`` entry points; the ``RatMatrix`` functions clear
denominators row by row into such rows. ``rank_mod_p`` ranks
skew-symmetric rows over GF(2^61 - 1), two indices at a time; the
sampled index reads it as it is, and ``skew_rank`` turns it into the
exact rank over Q that the Frobenius and contact verdicts need, by
Hadamard's bound or else by Bareiss.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

_MODP = (1 << 61) - 1  # Mersenne prime used by the probabilistic rank fast path


class ShapeError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


class RatMatrix:
    """Dense matrix of Fractions, row major."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
        else:
            width = 0
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.rows[i][i] = Fraction(1)
        return m

    def __eq__(self, other):
        return (
            isinstance(other, RatMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"RatMatrix({self.rows!r})"

    def transpose(self):
        return RatMatrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ShapeError("size mismatch in product")
        bt = other.transpose().rows
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.rows]
        )


def clear_denominators(xs):
    """(d, [d * x]) for the least d > 0 that makes every d * x an int.

    Accepts ints and Fractions alike (an int's denominator is 1).
    """
    d = lcm(1, *(x.denominator for x in xs))
    return d, [x.numerator * (d // x.denominator) for x in xs]


def _nonzeros(xs):
    """An integer row as the dict of its nonzeros."""
    return {j: x for j, x in enumerate(xs) if x}


def _int_rows(m):
    """Clear denominators row by row; returns ``{col: int}`` rows."""
    return [_nonzeros(clear_denominators(row)[1]) for row in m.rows]


def _int_echelon(rows, ncols):
    """Fraction-free (Bareiss) forward elimination on integer rows.

    Returns (rows, pivot_cols, sign): ``{col: int}`` rows, and sign the
    parity of the row swaps. Pivots are only selected among columns
    < ncols; entries at or past it ride along as an augmented block. The
    k-th pivot is the k-th leading minor of the row-permuted input, so a
    square nonsingular input's determinant is sign times its last pivot.

    A Bareiss step scales every row below the pivot by pivot/prev. A
    row with no entry in the pivot column skips that: ``scale`` keeps
    the ``prev`` it was last exact at, and as the skipped factors
    telescope its true entries are ``stored * prev // scale``, exactly.
    The pivot search scales only a row's pivot-column entry, to compare
    it; the chosen pivot row is materialised, and every other row is
    updated from its stored entries, dividing by its own scale s:
    (stored·pivot − stored_c·x)/s equals (true·pivot − true_c·x)/prev, an
    exact integer. Rows left below the last pivot are materialised at
    the end, so pivots, values and sign are those of dense Bareiss.
    """
    rows = [dict(r) for r in rows]
    scale = [1] * len(rows)
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        piv = best = None
        hits = []
        for i in range(r, len(rows)):
            v = rows[i].get(c)
            if v:
                s = scale[i]
                if s != prev:
                    v = v * prev // s
                hits.append(i)
                # the least |value|, the first row on ties
                if best is None or abs(v) < best:
                    piv, best = i, abs(v)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            scale[r], scale[piv] = scale[piv], scale[r]
            sign = -sign
        if (s := scale[r]) != prev:
            rows[r] = {j: x * prev // s for j, x in rows[r].items()}
        prc = rows[r][c]
        tail = [(j, x) for j, x in rows[r].items() if j != c]
        # every other row with an entry in column c, after the swap
        for i in (piv if i == r else i for i in hits if i != piv):
            ri = rows[i]
            ric = ri.pop(c)
            s = scale[i]
            new = {}
            for j, x in tail:
                if y := ri.pop(j, 0) * prc - ric * x:
                    new[j] = y // s
            new.update({j: x * prc // s for j, x in ri.items()})
            rows[i], scale[i] = new, prc
        prev = prc
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if scale[i] != prev:
            rows[i] = {j: x * prev // scale[i] for j, x in rows[i].items()}
    return rows, pivots, sign


def _back_substitute(ech, pivots, ncols, d, free):
    """The kernel vector of the echelon system that is D at column ``free``
    and 0 at every other free column, last pivot first, in integers.

    Columns at or past ``ncols`` are not read. D is the last Bareiss
    pivot, the r x r minor on the pivot rows and columns: by Cramer's
    rule every unknown is an integer, so each division by a pivot is
    exact.
    """
    scaled = [0] * ncols
    scaled[free] = d
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        row = ech[k]
        if terms := [v * scaled[j] for j, v in row.items() if c < j < ncols and scaled[j]]:
            scaled[c] = -sum(terms) // row[c]
    return scaled


def _null_space(ech, pivots, ncols):
    """``(gens, D)``: each free column's kernel generator, in column order,
    over the last pivot D."""
    d = ech[len(pivots) - 1][pivots[-1]] if pivots else 1
    pivot_set = set(pivots)
    return [_back_substitute(ech, pivots, ncols, d, f) for f in range(ncols) if f not in pivot_set], d


def int_rank(rows, ncols):
    """Exact rank of integer rows, by fraction-free elimination."""
    return len(_int_echelon(rows, ncols)[1])


def int_null_space(rows, ncols):
    """Right null space of integer rows as ``(gens, D)``: one integer X per
    free column, in column order, D at that column; the vectors are X / D."""
    return _null_space(*_int_echelon(rows, ncols)[:2], ncols)


def int_solve_scaled(aug_rows, ncols):
    """Solve integer rows ``[A | b]`` with ``ncols`` unknowns, in one elimination.

    Returns ``(x, gens, D)``: x / D is one exact solution (free unknowns
    0), or x is None when the system is inconsistent, and gens / D span
    the right null space of A. Pivots never enter column ``ncols``, so
    gens and D are those ``int_null_space`` gives for A, and x is the
    negated kernel vector of [A | b] that is D at b's column.
    """
    ech, pivots, _ = _int_echelon(aug_rows, ncols)
    gens, d = _null_space(ech, pivots, ncols)
    # inconsistent iff some residual row is 0 ... 0 | nonzero
    if any(row.get(ncols) for row in ech[len(pivots):]):
        return None, gens, d
    return [-v for v in _back_substitute(ech, pivots, ncols + 1, d, ncols)[:ncols]], gens, d


def rank(m):
    """Exact rank via fraction-free elimination."""
    return int_rank(_int_rows(m), m.ncols)


def rank_mod_p(int_rows, ncols, p=_MODP):
    """Rank over GF(p) of a square skew-symmetric integer matrix.

    Reads only the entries above the diagonal. A live index i of least
    degree and its neighbour j of least degree form a 2 x 2 pivot (Bunch
    1982): the rank-2 Schur update a_kl += (a_jk a_il - a_ik a_jl) / a_ij
    keeps the rest skew, touches only the neighbours of i and j and adds
    2 to the rank; indices left isolated drop out. Only the neighbours of
    i and j change degree, so only their entries in the degree list are
    recounted after a step. The rank over GF(p) is a lower bound for the
    rank over Q and does not depend on the pivots.
    """
    if len(int_rows) != ncols:
        raise ShapeError(f"skew rank needs a square matrix, got {len(int_rows)} x {ncols}")
    adj = [{} for _ in range(ncols)]
    for i, r in enumerate(int_rows):
        for j, x in r.items():
            if j > i and (v := x % p):
                adj[i][j] = v
                adj[j][i] = p - v
    live = {i for i in range(ncols) if adj[i]}
    deg = [len(a) for a in adj]
    rk = 0
    while live:
        i = min(live, key=deg.__getitem__)
        ai = adj[i]
        j = min(ai, key=deg.__getitem__)
        aj = adj[j]
        aij = ai.pop(j)
        del aj[i]
        for k in ai:
            del adj[k][i]
        for k in aj:
            del adj[k][j]
        if ai and aj:
            inv = pow(aij, -1, p)
            u = [(l, x * inv % p) for l, x in ai.items()]
            for k, wk in aj.items():
                ak = adj[k]
                for l, ul in u:
                    if l != k:
                        if x := (ak.get(l, 0) + wk * ul) % p:
                            ak[l] = x
                            adj[l][k] = p - x
                        else:
                            del ak[l]
                            del adj[l][k]
        live -= {i, j}
        for k in ai.keys() | aj.keys():
            if not (d := len(adj[k])):
                live.discard(k)
            deg[k] = d
        rk += 2
    return rk


def skew_rank(int_rows, ncols):
    """Exact rank over Q of a square skew-symmetric integer matrix.

    ``rank_mod_p`` never exceeds the rank over Q, so it is exact when it
    is full, or when the product of sum(x^2) over the rows is below p^2:
    by Hadamard's inequality every minor is then below p in absolute
    value and cannot vanish mod p unless it vanishes. Only a deficit
    without that bound falls back to fraction-free elimination.
    """
    rk = rank_mod_p(int_rows, ncols)
    if rk == ncols:
        return rk
    bound = 1
    for r in int_rows:
        bound *= sum(x * x for x in r.values()) or 1
        if bound >= _MODP * _MODP:
            return int_rank(int_rows, ncols)
    return rk


def kernel_basis(m):
    """Basis of the right null space, one vector per free column.

    Each vector is a list of Fractions of length ``m.ncols``; the basis
    has dimension ``ncols - rank``.
    """
    gens, d = int_null_space(_int_rows(m), m.ncols)
    return [[Fraction(x, d) for x in g] for g in gens]


def determinant(m):
    if m.nrows != m.ncols:
        raise ShapeError("determinant requires a square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    scale = 1
    rows = []
    for row in m.rows:
        d, ints = clear_denominators(row)
        scale *= d
        rows.append(_nonzeros(ints))
    ech, pivots, sign = _int_echelon(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * ech[n - 1][n - 1], scale)


def solve(m, b):
    """One exact solution of ``m x = b``, or None when inconsistent."""
    if len(b) != m.nrows:
        raise ShapeError("right-hand side length mismatch")
    aug = [_nonzeros(clear_denominators(row + [Fraction(bi)])[1]) for row, bi in zip(m.rows, b)]
    x, _, d = int_solve_scaled(aug, m.ncols)
    return None if x is None else [Fraction(v, d) for v in x]


def _charpoly_faddeev_int(rows):
    n = len(rows)
    coeffs = [1]
    mk = [r[:] for r in rows]
    for k in range(1, n + 1):
        tr = sum(mk[i][i] for i in range(n))
        ck = -(tr // k)
        if -ck * k != tr:
            raise ArithmeticError("trace not divisible in Faddeev-LeVerrier step")
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            mk[i][i] += ck
        nxt = []
        for i in range(n):
            arow = rows[i]
            idx = [t for t in range(n) if arow[t]]
            nxt.append([sum(arow[t] * mk[t][j] for t in idx) for j in range(n)])
        mk = nxt
    return coeffs


def char_poly(m):
    """Monic characteristic polynomial det(xI - M), by Faddeev-LeVerrier.

    Returned as descending coefficients ``[1, c_1, ..., c_n]`` of length
    side + 1. The reference oracle for ``forms.ad_char_poly``, which reads
    the eigenvalues of ad off the poset instead.
    """
    if m.nrows != m.ncols:
        raise ShapeError("characteristic polynomial requires a square matrix")
    n = m.nrows
    if n == 0:
        return [Fraction(1)]
    d, flat = clear_denominators([x for row in m.rows for x in row])
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    scaled = _charpoly_faddeev_int(rows)
    # char_{dM}(x) = d^n char_M(x/d): coefficient i of M is scaled[i] / d^i
    return [Fraction(scaled[i], d**i) for i in range(n + 1)]
