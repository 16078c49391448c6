"""Lie algebras given by structure constants.

Two poset specializations: the incidence algebra under the commutator
(basis E_pp and E_pq for p < q in the order) and its trace-zero part
(diagonal differences E_ii - E_{i+1,i+1} plus the strict pairs).
Elements of either carry a matrix-coordinate view k_{p,q}, whose
diagonal only ``PosetLieAlgebra.diagonal`` reads off the basis; an
integer vector X over a scale D becomes an element (``element``) or
matrix coordinates (``to_matrix_coords``) by one rule each. Both are
built as integer dφ terms and read their structure table off them; a
custom algebra's given table compiles to terms instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from math import lcm

from .linalg import ShapeError


class JacobiError(ValueError):
    """A custom bracket table fails the Jacobi identity."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


class LieAlgebra:
    """Basis-indexed antisymmetric structure constants.

    ``table[(i, j)]`` for i < j maps output index -> coefficient; other
    orderings follow by antisymmetry. A custom algebra stores its table
    as given, nonzero coefficients only, each an int when integral, else
    a Fraction, and compiles it into ``dphi_terms`` on first use. Poset
    algebras are built the other way round (``PosetLieAlgebra``).
    """

    def __init__(self, labels, table):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.table = table

    @cached_property
    def dphi_terms(self):
        """``(t, terms)``: t > 0 the lcm denominator of the table (1 for poset algebras),
        an int term (i, j, k, c = -t·[b_i, b_j]_k) per coefficient: t·dφ_ij = Σ c·φ(b_k)."""
        t = lcm(1, *{c.denominator for entry in self.table.values() for c in entry.values()})
        return t, tuple((i, j, k, (-t * c).numerator)
                        for (i, j), entry in self.table.items() for k, c in entry.items())

    def bracket_basis(self, i, j):
        """[b_i, b_j] as a sparse dict index -> coefficient."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket_vec(self, u, v):
        out = {}
        nz_u = [(i, c) for i, c in enumerate(u) if c]
        nz_v = [(j, c) for j, c in enumerate(v) if c]
        for i, cu in nz_u:
            for j, cv in nz_v:
                if i == j:
                    continue
                f = cu * cv
                for k, c in self.bracket_basis(i, j).items():
                    out[k] = out.get(k, Fraction(0)) + f * c
        vec = [Fraction(0)] * self.dim
        for k, c in out.items():
            vec[k] = c
        return vec

    def element(self, vec, d=1):
        """The element vec / d: ints over a nonzero int d, or Fractions over 1."""
        return AlgebraElement(self, tuple(Fraction(x, d) for x in vec))

    def to_matrix_coords(self, vec, d=1):
        raise ShapeError("matrix coordinates exist only for poset algebras")

    def basis_element(self, i):
        vec = [0] * self.dim
        vec[i] = 1
        return self.element(vec)

    def is_abelian(self):
        return not self.dphi_terms[1]

    def jacobi_defect(self, i, j, k):
        """[[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j] as a dict."""
        total = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            inner = self.bracket_basis(a, b)
            for m, cm in inner.items():
                for out, co in self.bracket_basis(m, c).items():
                    total[out] = total.get(out, Fraction(0)) + cm * co
        return {k2: v for k2, v in total.items() if v}

    def check_jacobi(self):
        """First basis triple i < j < k failing Jacobi, or None; exhaustive."""
        return next((t for t in combinations(range(self.dim), 3) if self.jacobi_defect(*t)), None)


@dataclass(frozen=True)
class AlgebraElement:
    algebra: LieAlgebra
    vec: tuple

    def __add__(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __rmul__(self, scalar):
        c = Fraction(scalar)
        return AlgebraElement(self.algebra, tuple(c * a for a in self.vec))

    def is_zero(self):
        return all(x == 0 for x in self.vec)

    def _same(self, other):
        if other.algebra is not self.algebra and other.algebra.labels != self.algebra.labels:
            raise ShapeError("elements live in different algebras")

    def bracket(self, other):
        self._same(other)
        return AlgebraElement(self.algebra, tuple(self.algebra.bracket_vec(self.vec, other.vec)))

    @property
    def matrix_coords(self):
        return self.algebra.to_matrix_coords(self.vec)

    def trace(self):
        return sum(
            (c for (p, q), c in self.matrix_coords.items() if p == q), Fraction(0)
        )


class PosetLieAlgebra(LieAlgebra):
    """Either the full incidence commutator algebra or its trace-zero part."""

    def __init__(self, poset, kind, labels, strict, terms):
        self.labels, self.dim = tuple(labels), len(labels)
        self.poset = poset
        self.kind = kind  # "g" or "gA"
        self.strict_pairs = strict
        self.dphi_terms = 1, terms

    @cached_property
    def table(self):
        """The table read off the terms (one per basis pair), for the Fraction oracles."""
        return {(i, j): {k: -c} for i, j, k, c in self.dphi_terms[1]}

    def diagonal(self, vec):
        """The matrix diagonal k_1..k_n of a basis vector (ints or Fractions):
        d_p on g, a_p - a_{p-1} on g_A with a_0 = a_n = 0."""
        n = self.poset.n
        if self.kind == "g":
            return list(vec[:n])
        a = [0, *vec[: n - 1], 0]
        return [a[p] - a[p - 1] for p in range(1, n + 1)]

    def to_matrix_coords(self, vec, d=1):
        """The nonzero matrix coordinates of vec / d, one ``Fraction(k, d)`` each;
        ints over a nonzero int d keep the diagonal in ints."""
        coords = {(p, p): Fraction(k, d) for p, k in enumerate(self.diagonal(vec), 1) if k}
        strict = zip(self.strict_pairs, vec[self.dim - len(self.strict_pairs) :])
        return coords | {pq: Fraction(x, d) for pq, x in strict if x}

    def from_matrix_coords(self, coords):
        coords = {tuple(k): Fraction(v) for k, v in coords.items() if v}
        for (p, q) in coords:
            if p != q and (p, q) not in self.poset.relations:
                raise ShapeError(f"pair ({p},{q}) is not a relation of the host poset")
        diag = [coords.get((p, p), Fraction(0)) for p in self.poset.elements]
        if self.kind == "gA":
            *diag, trace = accumulate(diag)  # a_i = k_11 + ... + k_ii; a_n is the trace
            if trace:
                raise ShapeError("matrix coordinates have nonzero trace in the trace-zero algebra")
        return diag + [coords.get(pq, Fraction(0)) for pq in self.strict_pairs]

    def element_from_coords(self, coords):
        return self.element(self.from_matrix_coords(coords))

    def identity_element(self):
        """The identity matrix as an element (full algebra only)."""
        if self.kind != "g":
            raise ShapeError("the identity matrix is not trace-zero")
        return self.element_from_coords({(p, p): 1 for p in self.poset.elements})


def _poset_algebra(poset, kind):
    """g (d_1..d_n) or g_A (h_i = E_ii - E_{i+1,i+1}, i < n), then e_pq per sorted
    relation, with ``dphi_terms`` (t = 1) off the poset: [x, e_pq] = (x_p - x_q) e_pq
    for a diagonal x, so e_pq meets only d_p, d_q on g and h_{p-1}, h_p, h_{q-1}, h_q
    on g_A; [e_pq, e_qs] = e_ps comes off the up-sets."""
    n = poset.n
    strict = sorted(poset.relations)
    labels = [("d", p) for p in poset.elements] if kind == "g" else [("h", i) for i in range(1, n)]
    index = {pq: len(labels) + m for m, pq in enumerate(strict)}
    terms = []
    for (p, q), e in index.items():
        # a term (i, e, e, -w) for the diagonal label x at i with [x, e_pq] = w·e_pq
        if kind == "g":
            terms += ((p - 1, e, e, -1), (q - 1, e, e, 1))
            continue
        if p > 1:
            terms.append((p - 2, e, e, 1))  # h_{p-1}
        if q == p + 1:
            terms.append((p - 1, e, e, -2))  # h_p = h_{q-1}
        else:
            terms += ((p - 1, e, e, -1), (q - 2, e, e, -1))  # h_p, h_{q-1}
        if q < n:
            terms.append((q - 1, e, e, 1))  # h_q
    for p, q in strict:
        a = index[(p, q)]
        for s in poset.up_sets[q]:
            b, k = index[(q, s)], index[(p, s)]
            terms.append((a, b, k, -1) if a < b else (b, a, k, 1))
    labels += [("e", pq) for pq in strict]
    return PosetLieAlgebra(poset, kind, labels, strict, tuple(terms))


def build_g(poset):
    """Incidence algebra of the poset under the commutator bracket."""
    return _poset_algebra(poset, "g")


def build_gA(poset):
    """Trace-zero part: diagonal differences plus strict pairs."""
    return _poset_algebra(poset, "gA")


def build_custom(dim, brackets):
    """Algebra from a 1-based bracket table {(i, j): {k: coeff}}.

    The Jacobi identity is verified eagerly; a failure reports the
    offending basis triple.
    """
    labels = [("x", i) for i in range(1, dim + 1)]
    table = {}
    for (i, j), entry in brackets.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ShapeError(f"bracket key ({i},{j}) out of range")
        if i == j:
            if any(Fraction(c) for c in entry.values()):
                raise JacobiError((i, i, i))
            continue
        a, b = i - 1, j - 1
        sign = 1
        if a > b:
            a, b, sign = b, a, -1
        tgt = table.setdefault((a, b), {})
        for k, c in entry.items():
            if not (1 <= k <= dim):
                raise ShapeError(f"bracket output index {k} out of range")
            c = sign * Fraction(c)
            prev = tgt.get(k - 1)
            if prev is not None and prev != c:
                raise ShapeError(f"inconsistent duplicate bracket for ({i},{j})")
            tgt[k - 1] = c
    table = {
        key: {k: c.numerator if c.denominator == 1 else c for k, c in entry.items() if c}
        for key, entry in table.items()
        if any(entry.values())
    }
    alg = LieAlgebra(labels, table)
    bad = alg.check_jacobi()
    if bad is not None:
        raise JacobiError(tuple(k + 1 for k in bad))
    return alg


def footnote_algebra():
    """Three-dimensional solvable algebra with [e1,e2]=e2 and [e1,e3]=e3."""
    return build_custom(3, {(1, 2): {2: 1}, (1, 3): {3: 1}})


def sl2():
    return build_custom(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})
