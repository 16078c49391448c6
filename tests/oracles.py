"""Fraction reference helpers that only the tests read: a matrix times a
vector, skewness, a polynomial at a matrix, exact square roots, the
restriction of an algebra element to a sub-poset's algebra, the ad
matrix, kernel membership through ``dphi_matrix``, and the structure
table of a poset algebra built label by label."""

from fractions import Fraction
from math import isqrt

from lieposet.algebras import AlgebraElement, LieAlgebra
from lieposet.forms import dphi_matrix
from lieposet.linalg import RatMatrix, ShapeError


def mul_vector(m, vec):
    if len(vec) != m.ncols:
        raise ShapeError("vector length mismatch")
    return [sum(a * Fraction(x) for a, x in zip(row, vec)) for row in m.rows]


def is_skew_symmetric(m):
    return m.nrows == m.ncols and all(
        m.rows[i][j] == -m.rows[j][i] for i in range(m.nrows) for j in range(i, m.ncols)
    )


def poly_eval_matrix(coeffs, m):
    """Evaluate a polynomial (descending coefficients) at a square matrix."""
    n = m.nrows
    acc = RatMatrix.zeros(n, n)
    for c in coeffs:
        acc = acc @ m
        for i in range(n):
            acc.rows[i][i] += Fraction(c)
    return acc


def integer_sqrt_exact(q):
    """Exact square root of a nonnegative rational, or None."""
    q = Fraction(q)
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def restrict_element(elem, label_map, target_algebra):
    """Restriction of an element to a sub-poset's full algebra g.

    ``label_map`` sends the target poset's labels to the host labels;
    matrix coordinates at pairs inside the image are kept.
    """
    inv = {v: k for k, v in label_map.items()}
    out = {(inv[p], inv[q]): c for (p, q), c in elem.matrix_coords.items() if p in inv and q in inv}
    if target_algebra.kind == "g":
        return target_algebra.element_from_coords(out)
    raise ShapeError("restriction targets the full incidence algebra")


def unit(dim, j):
    vec = [Fraction(0)] * dim
    vec[j] = Fraction(1)
    return vec


def ad_matrix(algebra, elem):
    """Matrix of [a, -]; column j holds the coordinates of [a, b_j]."""
    vec = elem.vec if isinstance(elem, AlgebraElement) else elem
    m = RatMatrix.zeros(algebra.dim, algebra.dim)
    for j in range(algebra.dim):
        col = algebra.bracket_vec(vec, unit(algebra.dim, j))
        for k, c in enumerate(col):
            if c:
                m.rows[k][j] = c
    return m


def in_kernel(algebra, form_or_values, elem):
    """Membership test: dφ x = 0, read off the Fraction reference ``dphi_matrix``
    rather than ``_dphi_rows``, so tests check kernels against another assembly."""
    vec = elem.vec if isinstance(elem, AlgebraElement) else elem
    rows = dphi_matrix(algebra, form_or_values).rows
    return not any(sum(c * x for c, x in zip(row, vec) if x) for row in rows)


def poset_algebra(poset, kind):
    """g or g_A as a ``LieAlgebra`` on a table built by testing every pair of a
    diagonal label and a strict relation, with its labels as ``build_g`` and
    ``build_gA`` lay them out; its ``dphi_terms`` are the table's compile.

    A diagonal label acts on e_pq by x_p - x_q for its matrix diagonal
    {r: x_r}; strict brackets are [e_pq, e_qs] = e_ps, read off the up-sets.
    """
    if kind == "g":
        diagonal = {("d", p): {p: 1} for p in poset.elements}
    else:
        diagonal = {("h", i): {i: 1, i + 1: -1} for i in range(1, poset.n)}
    strict = sorted(poset.relations)
    labels = list(diagonal) + [("e", pq) for pq in strict]
    index = {lab: i for i, lab in enumerate(labels)}
    table = {}

    def add(i, j, k, c):
        if i > j:
            i, j, c = j, i, -c
        table[(i, j)] = {k: c}  # every basis pair brackets to one basis vector

    for lab, x in diagonal.items():
        for p, q in strict:
            c = x.get(p, 0) - x.get(q, 0)
            if c:
                e = index[("e", (p, q))]
                add(index[lab], e, e, c)
    for p, q in strict:
        for s in poset.up_sets[q]:
            add(index[("e", (p, q))], index[("e", (q, s))], index[("e", (p, s))], 1)
    return LieAlgebra(labels, table)
