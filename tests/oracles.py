"""Fraction reference helpers that only the tests read: a matrix times a
vector, skewness, a polynomial at a matrix, exact square roots, and the
restriction of an algebra element to a sub-poset's algebra."""

from fractions import Fraction
from math import isqrt

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
