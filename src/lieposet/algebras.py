"""Lie algebras given by structure constants.

Two poset specializations: the incidence algebra under the commutator
(basis E_pp and E_pq for p < q in the order) and its trace-zero part
(diagonal differences E_ii - E_{i+1,i+1} plus the strict pairs).
Elements of either carry a matrix-coordinate view k_{p,q}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import RatMatrix, ShapeError

JACOBI_EXHAUSTIVE_LIMIT = 40
JACOBI_SAMPLES = 400
JACOBI_SEED = 0


class JacobiError(ValueError):
    """A custom bracket table fails the Jacobi identity."""

    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


class LieAlgebra:
    """Basis-indexed antisymmetric structure constants.

    ``table[(i, j)]`` for i < j maps output index -> coefficient; other
    orderings follow by antisymmetry. The table is stored as given, and
    its builders hand in nonzero coefficients only, each an int when
    integral, else a Fraction, so integer work on the table (dφ
    assembly) stays in integers.
    """

    def __init__(self, labels, table):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.table = table

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

    def element(self, vec):
        return AlgebraElement(self, tuple(Fraction(x) for x in vec))

    def basis_element(self, i):
        vec = [Fraction(0)] * self.dim
        vec[i] = Fraction(1)
        return self.element(vec)

    def ad_matrix(self, elem):
        """Matrix of [a, -]; column j holds the coordinates of [a, b_j]."""
        vec = elem.vec if isinstance(elem, AlgebraElement) else elem
        m = RatMatrix.zeros(self.dim, self.dim)
        for j in range(self.dim):
            col = self.bracket_vec(vec, self._unit(j))
            for k, c in enumerate(col):
                if c:
                    m.rows[k][j] = c
        return m

    def _unit(self, j):
        vec = [Fraction(0)] * self.dim
        vec[j] = Fraction(1)
        return vec

    def is_abelian(self):
        return not self.table

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
        """First basis triple failing Jacobi, or None; exhaustive up to the
        limit, seeded random samples above it."""
        n = self.dim
        if n <= JACOBI_EXHAUSTIVE_LIMIT:
            triples = (
                (i, j, k)
                for i in range(n)
                for j in range(i + 1, n)
                for k in range(j + 1, n)
            )
        else:
            rng = random.Random(JACOBI_SEED)
            triples = (
                tuple(sorted(rng.sample(range(n), 3))) for _ in range(JACOBI_SAMPLES)
            )
        for t in triples:
            if self.jacobi_defect(*t):
                return t
        return None


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
        alg = self.algebra
        if not isinstance(alg, PosetLieAlgebra):
            raise ShapeError("matrix coordinates exist only for poset algebras")
        return alg.to_matrix_coords(self.vec)

    def trace(self):
        return sum(
            (c for (p, q), c in self.matrix_coords.items() if p == q), Fraction(0)
        )


def bracket(a, b):
    return a.bracket(b)


class PosetLieAlgebra(LieAlgebra):
    """Either the full incidence commutator algebra or its trace-zero part."""

    def __init__(self, poset, kind, labels, table):
        super().__init__(labels, table)
        self.poset = poset
        self.kind = kind  # "g" or "gA"

    @property
    def strict_pairs(self):
        return [lab[1] for lab in self.labels if lab[0] == "e"]

    def to_matrix_coords(self, vec):
        coords = {}
        n = self.poset.n
        if self.kind == "g":
            for i, lab in enumerate(self.labels):
                if not vec[i]:
                    continue
                if lab[0] == "d":
                    coords[(lab[1], lab[1])] = Fraction(vec[i])
                else:
                    coords[lab[1]] = Fraction(vec[i])
        else:
            for p in range(1, n + 1):
                # k_pp = a_p - a_{p-1} with a_0 = a_n = 0
                a_p = Fraction(vec[p - 1]) if p <= n - 1 else Fraction(0)
                a_prev = Fraction(vec[p - 2]) if 2 <= p <= n else Fraction(0)
                val = a_p - a_prev
                if val:
                    coords[(p, p)] = val
            for i, lab in enumerate(self.labels):
                if lab[0] == "e" and vec[i]:
                    coords[lab[1]] = Fraction(vec[i])
        return {k: v for k, v in coords.items() if v}

    def from_matrix_coords(self, coords):
        coords = {tuple(k): Fraction(v) for k, v in coords.items() if v}
        n = self.poset.n
        for (p, q) in coords:
            if p != q and (p, q) not in self.poset.relations:
                raise ShapeError(f"pair ({p},{q}) is not a relation of the host poset")
        vec = [Fraction(0)] * self.dim
        if self.kind == "g":
            for i, lab in enumerate(self.labels):
                key = (lab[1], lab[1]) if lab[0] == "d" else lab[1]
                vec[i] = coords.get(key, Fraction(0))
            return vec
        trace = sum(coords.get((p, p), Fraction(0)) for p in range(1, n + 1))
        if trace:
            raise ShapeError("matrix coordinates have nonzero trace in the trace-zero algebra")
        running = Fraction(0)
        for i in range(1, n):
            running += coords.get((i, i), Fraction(0))
            vec[i - 1] = running
        for i, lab in enumerate(self.labels):
            if lab[0] == "e":
                vec[i] = coords.get(lab[1], Fraction(0))
        return vec

    def element_from_coords(self, coords):
        return self.element(self.from_matrix_coords(coords))

    def identity_element(self):
        """The identity matrix as an element (full algebra only)."""
        if self.kind != "g":
            raise ShapeError("the identity matrix is not trace-zero")
        return self.element_from_coords({(p, p): 1 for p in self.poset.elements})


def _poset_algebra(poset, kind, diagonal):
    """Algebra on ``diagonal`` labels plus one e_pq per strict relation.

    ``diagonal`` maps each diagonal label to its matrix diagonal {r: x_r};
    such an x acts by [x, e_pq] = (x_p - x_q) e_pq. Strict brackets are
    [e_pq, e_qs] = e_ps, read off the up-sets; no other pair of strict
    basis vectors composes.
    """
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
    return PosetLieAlgebra(poset, kind, labels, table)


def build_g(poset):
    """Incidence algebra of the poset under the commutator bracket."""
    return _poset_algebra(poset, "g", {("d", p): {p: 1} for p in poset.elements})


def build_gA(poset):
    """Trace-zero part: diagonal differences plus strict pairs."""
    diagonal = {("h", i): {i: 1, i + 1: -1} for i in range(1, poset.n)}
    return _poset_algebra(poset, "gA", diagonal)


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
