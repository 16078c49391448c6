"""One-forms on (type-A) Lie poset algebras and their dφ analysis.

The skew form dφ(x, y) = -φ([x, y]) drives everything here: kernels in
the full and trace-zero algebras, the sampled index, Frobenius and
contact decisions, principal elements and spectra, and the
support-graph combinatorics (small forms, sink/source partition).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import linalg
from .algebras import AlgebraElement, LieAlgebra, PosetLieAlgebra
from .linalg import RatMatrix, ShapeError
from .posets import is_forest

INDEX_TRIALS = 5
INDEX_COEFF_BOUND = 1 << 20


class FormError(ValueError):
    """Invalid one-form input."""


class NotFrobeniusError(ValueError):
    """A principal element was requested for a non-Frobenius form."""


class OneForm:
    """Rational functional with poset support; pairs may be diagonal."""

    def __init__(self, poset, coeffs):
        self.poset = poset
        clean = {}
        for pair, c in coeffs.items():
            p, q = int(pair[0]), int(pair[1])
            c = Fraction(c)
            if not c:
                continue
            if p == q:
                if not 1 <= p <= poset.n:
                    raise FormError(f"diagonal pair ({p},{p}) out of range")
            elif (p, q) not in poset.relations:
                raise FormError(f"support pair ({p},{q}) is not a relation of the host poset")
            clean[(p, q)] = c
        self.coeffs = clean

    @classmethod
    def from_support(cls, poset, pairs, coeffs=None):
        table = {}
        for pair in pairs:
            key = (int(pair[0]), int(pair[1]))
            c = Fraction(1) if coeffs is None else Fraction(coeffs.get(key, coeffs.get(pair, 1)))
            table[key] = table.get(key, Fraction(0)) + c
        return cls(poset, table)

    @property
    def support(self):
        return frozenset(self.coeffs)

    @property
    def strict_support(self):
        return frozenset(pq for pq in self.coeffs if pq[0] != pq[1])

    @property
    def diagonal_support(self):
        return frozenset(pq for pq in self.coeffs if pq[0] == pq[1])

    def coefficient(self, p, q):
        return self.coeffs.get((p, q), Fraction(0))

    def __add__(self, other):
        self._compatible(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return OneForm(self.poset, out)

    def subtract_pair(self, p, q, amount=1):
        out = dict(self.coeffs)
        out[(p, q)] = out.get((p, q), Fraction(0)) - Fraction(amount)
        return OneForm(self.poset, out)

    def without_diagonal(self):
        return OneForm(self.poset, {k: c for k, c in self.coeffs.items() if k[0] != k[1]})

    def translate(self, mapping, new_poset):
        out = {}
        for (p, q), c in self.coeffs.items():
            key = (mapping[p], mapping[q])
            if key[0] > key[1]:
                raise FormError(f"translation reverses pair ({p},{q})")
            out[key] = out.get(key, Fraction(0)) + c
        return OneForm(new_poset, out)

    def _compatible(self, other):
        if other.poset != self.poset:
            raise FormError("forms live on different posets")

    def __eq__(self, other):
        return (
            isinstance(other, OneForm)
            and self.poset == other.poset
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        terms = ", ".join(
            f"E*{pq}" if c == 1 else f"{c}*E*{pq}" for pq, c in sorted(self.coeffs.items())
        )
        return f"OneForm({terms or '0'})"

    def evaluate_coords(self, coords):
        return sum(
            (c * coords.get(pq, Fraction(0)) for pq, c in self.coeffs.items()),
            Fraction(0),
        )

    def evaluate(self, elem):
        return self.evaluate_coords(elem.matrix_coords)

    def to_json(self):
        support = sorted(self.coeffs)
        data = {"support": [list(pq) for pq in support]}
        if any(c != 1 for c in self.coeffs.values()):
            data["coeffs"] = {f"{p},{q}": str(self.coeffs[(p, q)]) for p, q in support}
        return data

    @classmethod
    def from_json(cls, poset, data):
        try:
            pairs = [(int(p), int(q)) for p, q in data["support"]]
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormError(f"malformed one-form JSON: {exc}") from exc
        coeffs = None
        if "coeffs" in data:
            coeffs = {}
            try:
                for key, val in data["coeffs"].items():
                    p, q = (int(x) for x in key.split(","))
                    coeffs[(p, q)] = Fraction(val)
            except (AttributeError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise FormError(f"malformed one-form coefficient: {exc}") from exc
        return cls.from_support(poset, pairs, coeffs)


def phi_on_basis(algebra, form):
    """φ on every basis vector, in closed form, as a Fraction list.

    On g, φ(d_p) = φ_pp; on g_A, φ(h_i) = φ_ii - φ_{i+1,i+1}; on both,
    φ(e_pq) = φ_pq.
    """
    if not isinstance(algebra, PosetLieAlgebra):
        raise ShapeError("poset one-forms apply to poset algebras only")
    coeff = form.coefficient
    out = []
    for kind, lab in algebra.labels:
        if kind == "e":
            out.append(coeff(*lab))
        elif kind == "d":
            out.append(coeff(lab, lab))
        else:
            out.append(coeff(lab, lab) - coeff(lab + 1, lab + 1))
    return out


def functional_on_basis(algebra, values):
    """A plain dual vector for custom algebras: values per basis index."""
    if len(values) != algebra.dim:
        raise ShapeError("functional length mismatch")
    return [Fraction(v) for v in values]


def dphi_matrix(algebra, form_or_values):
    """Skew matrix M[i][j] = -φ([b_i, b_j])."""
    values = _as_values(algebra, form_or_values)
    n = algebra.dim
    m = RatMatrix.zeros(n, n)
    for (i, j), entry in algebra.table.items():
        v = -sum((c * values[k] for k, c in entry.items()), Fraction(0))
        if v:
            m.rows[i][j] = v
            m.rows[j][i] = -v
    return m


def _as_values(algebra, form_or_values):
    if isinstance(form_or_values, OneForm):
        return phi_on_basis(algebra, form_or_values)
    return functional_on_basis(algebra, list(form_or_values))


def _dphi_rows(algebra, values):
    """Rows ``{col: int}`` of s·dφ and the vector s·φ(b), for one scale s > 0.

    ``values`` are φ on the basis (ints or Fractions). Entries come from
    the sparse structure table: dφ[i][j] = -φ([b_i, b_j]). Scaling by s
    changes neither rank nor kernel nor the solution of dφ x = φ(b).
    """
    _, phi = linalg.clear_denominators(values)
    keys = []
    entries = []
    for key, entry in algebra.table.items():
        v = sum(c * phi[k] for k, c in entry.items())
        if v:
            keys.append(key)
            entries.append(v)
    s, entries = linalg.clear_denominators(entries)
    n = algebra.dim
    rows = [{} for _ in range(n)]
    for (i, j), v in zip(keys, entries):
        rows[i][j] = -v
        rows[j][i] = v
    return rows, [s * x for x in phi]


def coords_json(coords):
    """Matrix coordinates as a JSON object: "p,q" -> exact value string."""
    return {f"{p},{q}": str(v) for (p, q), v in sorted(coords.items())}


@dataclass
class KernelReport:
    space: str  # "g", "gA", or "custom"
    dimension: int
    vectors: list  # coordinate vectors in the algebra basis
    algebra: LieAlgebra = field(repr=False, compare=False)

    @cached_property
    def coords(self):
        """Matrix-coordinate dicts (poset algebras) or None entries, built on first read."""
        if isinstance(self.algebra, PosetLieAlgebra):
            return [self.algebra.to_matrix_coords(v) for v in self.vectors]
        return [None] * self.dimension

    def generator_coords(self):
        if self.dimension != 1:
            raise ValueError("kernel is not one-dimensional")
        return self.coords[0]

    def to_json(self):
        return {
            "space": self.space,
            "dimension": self.dimension,
            "generators": [None if c is None else coords_json(c) for c in self.coords],
        }


def kernel(algebra, form_or_values):
    """Exact kernel of dφ."""
    rows, _ = _dphi_rows(algebra, _as_values(algebra, form_or_values))
    basis = linalg.int_kernel_basis(rows, algebra.dim)
    space = algebra.kind if isinstance(algebra, PosetLieAlgebra) else "custom"
    return KernelReport(space, len(basis), basis, algebra)


def in_kernel(algebra, form_or_values, elem):
    """Membership test: φ([b_j, x]) = 0 for every basis vector b_j."""
    values = _as_values(algebra, form_or_values)
    vec = elem.vec if isinstance(elem, AlgebraElement) else elem
    for j in range(algebra.dim):
        total = Fraction(0)
        for i, c in enumerate(vec):
            if c:
                for k, ck in algebra.bracket_basis(j, i).items():
                    total += c * ck * values[k]
        if total:
            return False
    return True


def index(algebra, trials=INDEX_TRIALS, seed=0):
    """Sampled index: the least corank of dφ over random integer forms.

    Each trial is a Schwartz-Zippel trial: φ takes coefficients uniform
    in [1, INDEX_COEFF_BOUND] on the basis, and dφ's rank is computed over
    GF(2^61 - 1) by the sparse elimination of ``linalg.rank_mod_p``,
    which suits dφ's few nonzeros. Over Q the rank mod p is at most the
    exact rank, so a trial's corank is at least the exact corank of its
    φ, which is at least the true index: the result is never below the
    true index, and it equals it unless every trial fails, which for the
    default five trials has probability far below 1e-4. Coranks have the
    parity of dim, so a trial reaching that floor ends the search early.
    Kernels, solves, determinants and characteristic polynomials stay
    exact.
    """
    if trials < 1:
        raise ValueError(f"index needs at least one trial, got {trials}")
    n = algebra.dim
    if n == 0:
        return 0
    if algebra.is_abelian():
        return n
    rng = random.Random(seed)
    parity_floor = n % 2
    best = n
    for _ in range(trials):
        values = [rng.randint(1, INDEX_COEFF_BOUND) for _ in range(n)]
        rows, _ = _dphi_rows(algebra, values)
        best = min(best, n - linalg.rank_mod_p(rows, n))
        if best == parity_floor:
            break
    return best


@dataclass
class ContactResult:
    is_contact: bool
    reason: str
    reeb: AlgebraElement | None = None
    kernel: KernelReport | None = None

    def __bool__(self):
        return self.is_contact

    def reeb_json(self):
        return None if self.reeb is None else coords_json(self.reeb.matrix_coords)


def is_contact_form(algebra, form_or_values, trials=INDEX_TRIALS, seed=0):
    """Kernel-generator contact test; returns the Reeb vector when true.

    Exact: in odd dimension a one-dimensional kernel bounds the index by
    1 and parity bounds it below by 1, so no sampled ``index`` is needed.
    ``trials`` and ``seed`` are not read; they stay only because
    ``bench/run.py`` and the acceptance suite pass ``seed=``.
    """
    n = algebra.dim
    if n % 2 == 0:
        return ContactResult(False, "even dimension")
    report = kernel(algebra, form_or_values)
    if report.dimension != 1:
        return ContactResult(False, f"kernel dimension {report.dimension} != 1", kernel=report)
    gen = algebra.element(report.vectors[0])
    values = _as_values(algebra, form_or_values)
    phi_b = sum((c * values[i] for i, c in enumerate(gen.vec)), Fraction(0))
    if phi_b == 0:
        return ContactResult(False, "form vanishes on the kernel generator", kernel=report)
    reeb = (Fraction(1) / abs(phi_b)) * gen
    return ContactResult(True, "contact", reeb=reeb, kernel=report)


def is_contact_form_volume(algebra, form_or_values):
    """Independent oracle: the bordered skew determinant is nonzero.

    Builds [[dφ(b_i, b_j), -φ(b_i)], [φ(b_j), 0]] and tests that it is
    nonsingular; this realizes the top volume-form condition directly.
    Full rank over GF(p) already certifies full rank over Q, so only a
    rank deficit mod p falls back to exact elimination.
    """
    n = algebra.dim
    if n % 2 == 0:
        raise ShapeError("volume-form test requires odd dimension")
    rows, phi = _dphi_rows(algebra, _as_values(algebra, form_or_values))
    bordered = [row | {n: -p} if p else row for p, row in zip(phi, rows)]
    bordered.append({j: x for j, x in enumerate(phi) if x})
    if linalg.rank_mod_p(bordered, n + 1) == n + 1:
        return True
    return linalg.int_rank(bordered, n + 1) == n + 1


def principal_element(algebra, form_or_values):
    """The unique x with φ([x, y]) = φ(y) for all y (Frobenius forms only)."""
    rows, phi = _dphi_rows(algebra, _as_values(algebra, form_or_values))
    # φ([x, b_j]) = Σ_i x_i φ([b_i, b_j]) = Σ_i (-M[i][j]) x_i = (M x)_j by skewness
    n = algebra.dim
    sol, rank = linalg.int_solve([row | {n: p} if p else row for row, p in zip(rows, phi)], n)
    if rank < n:
        raise NotFrobeniusError("dφ is singular; the form is not Frobenius")
    return algebra.element(sol)


def ad_weights(algebra, elem):
    """Eigenvalues of ad(x) with multiplicity, read off the poset.

    Every strict bracket [e_rs, e_pq] lands on a pair of larger span
    q - p, so for any x, diagonal or not, ad(x) is triangular in a basis
    ordered by span: it has 0 on each diagonal basis vector and
    x_pp - x_qq on each e_pq, where x_pp are x's diagonal matrix
    coordinates. Spectra exist only for poset algebras: an element of a
    custom algebra has no matrix coordinates and raises ``ShapeError``.
    """
    coords = elem.matrix_coords
    pairs = algebra.strict_pairs
    weights = [Fraction(0)] * (algebra.dim - len(pairs))
    for p, q in pairs:
        weights.append(coords.get((p, p), Fraction(0)) - coords.get((q, q), Fraction(0)))
    return weights


def is_binary_spectrum(algebra, form_or_values):
    """ad(x̂) has eigenvalues 0 and 1, each d/2 times; false for odd d."""
    d = algebra.dim
    if d % 2 == 1:
        return False
    weights = ad_weights(algebra, principal_element(algebra, form_or_values))
    return weights.count(0) == weights.count(1) == d // 2


def spectrum(algebra, form_or_values):
    """Characteristic polynomial of ad(x̂), as descending coefficients.

    The product of (λ - w) over ``ad_weights``; ``linalg.char_poly`` of
    ``ad_matrix`` is the reference it is tested against.
    """
    coeffs = [Fraction(1)]
    for w in ad_weights(algebra, principal_element(algebra, form_or_values)):
        coeffs = [a - w * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def udo_partition(poset, form):
    """(sinks, sources, interior) of the directed strict-support graph.

    Interior elements are neither pure sinks nor pure sources.
    """
    heads = {q for _, q in form.strict_support}
    tails = {p for p, _ in form.strict_support}
    sinks = frozenset(p for p in poset.elements if p in heads and p not in tails)
    sources = frozenset(p for p in poset.elements if p in tails and p not in heads)
    interior = frozenset(p for p in poset.elements if p not in sinks and p not in sources)
    return sinks, sources, interior


def is_small(poset, form):
    """Strict support is a spanning tree of the comparability graph."""
    edges = form.strict_support
    return len(edges) == poset.n - 1 and is_forest(poset.elements, edges)


def restrict_element(elem, label_map, target_algebra):
    """Restriction of an element to a sub-poset's algebra.

    ``label_map`` sends the target poset's labels to the host labels;
    matrix coordinates at pairs inside the image are kept.
    """
    coords = elem.matrix_coords
    inv = {v: k for k, v in label_map.items()}
    out = {}
    for (p, q), c in coords.items():
        if p in inv and q in inv:
            out[(inv[p], inv[q])] = c
    if target_algebra.kind == "g":
        return target_algebra.element_from_coords(out)
    raise ShapeError("restriction targets the full incidence algebra")
