"""One-forms on (type-A) Lie poset algebras and their dφ analysis.

The skew form dφ(x, y) = -φ([x, y]) drives everything here: kernels in
the full and trace-zero algebras, the sampled index, Frobenius and contact decisions,
principal elements and spectra, and the support-graph combinatorics (small forms,
sink/source partition). Eliminations read dφ from ``_dphi_rows``, one integer loop
over ``LieAlgebra.dphi_terms`` with φ in ints: ``_phi_ints`` gives λ·φ(b), λ > 0
one lcm of a form's denominators, and ``_dphi_rows`` carries λ to the Reeb vector;
``phi_on_basis`` and ``dphi_matrix`` are the Fraction views.

Every vector is an integer X over one scale D, as the elimination gives it:
``KernelReport`` keeps the kernel's, ``principal_or_kernel``, the one Frobenius
entry point, gives x̂ as (X, D), whose spectrum ``is_binary_weights`` and
``ad_char_poly`` read off one weight rule, and ``ContactResult`` keeps the Reeb
vector as (X·λ, S). Reports read (X, D) only through
``PosetLieAlgebra.to_matrix_coords``, one Fraction per nonzero entry: kernel
coordinates and JSON, and the Reeb vector's JSON. ``kernel`` also records, as
ints, where each generator's back-substitution sum is empty; the sweep's
witness loop (``sweep._pairing``) reads those sets to reproduce the known float
defect. No float is made in this module.
A form holds its integral coefficients as ints.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from . import linalg
from .algebras import PosetLieAlgebra
from .linalg import RatMatrix, ShapeError
from .posets import is_forest, json_int

INDEX_TRIALS = 2


class FormError(ValueError):
    """Invalid one-form input."""


def _exact(c):
    """A coefficient as an int when integral, else as a Fraction; ints and
    Fractions are never re-wrapped."""
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


class OneForm:
    """Rational functional with poset support; pairs may be diagonal.
    Integral coefficients are held as ints, which compare and print as Fractions do."""

    def __init__(self, poset, coeffs):
        self.poset = poset
        clean = {}
        for pair, c in coeffs.items():
            p, q = int(pair[0]), int(pair[1])
            c = _exact(c)
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
            c = 1 if coeffs is None else _exact(coeffs.get(key, coeffs.get(pair, 1)))
            table[key] = table.get(key, 0) + c
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
        return self.coeffs.get((p, q), 0)

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
        return sum((c * coords.get(pq, 0) for pq, c in self.coeffs.items()), Fraction(0))

    def to_json(self):
        support = sorted(self.coeffs)
        data = {"support": [list(pq) for pq in support]}
        if any(c != 1 for c in self.coeffs.values()):
            data["coeffs"] = {f"{p},{q}": str(self.coeffs[(p, q)]) for p, q in support}
        return data

    @classmethod
    def from_json(cls, poset, data):
        """Read ``to_json`` output; unlike ``from_support``, a repeated pair
        or a coefficient off the support is an error."""
        try:
            pairs = [(json_int(p), json_int(q)) for p, q in data["support"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormError(f"malformed one-form JSON: {exc}") from exc
        if len(set(pairs)) < len(pairs):
            raise FormError("a support pair is listed twice")
        coeffs = None
        if "coeffs" in data:
            coeffs = {}
            try:
                for key, val in data["coeffs"].items():
                    p, q = (int(x) for x in key.split(","))
                    if isinstance(val, str):  # an integer or p/q: no decimal, no exponent
                        num, slash, den = val.partition("/")
                        val = Fraction(int(num), int(den) if slash else 1)
                    else:
                        val = json_int(val)
                    coeffs[(p, q)] = _exact(val)
            except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise FormError(f"malformed one-form coefficient: {exc}") from exc
            if len(coeffs) < len(data["coeffs"]) or not coeffs.keys() <= set(pairs):
                raise FormError("each coefficient key must name a support pair, and only once")
        return cls.from_support(poset, pairs, coeffs)


def _phi_ints(algebra, form_or_values):
    """``(λ, λ·φ(b))`` in ints, λ > 0: for a form, λ is the lcm of its denominators
    and φ(d_p) = φ_pp, φ(h_i) = φ_ii - φ_{i+1,i+1}, φ(e_pq) = φ_pq; a value
    list is cleared of its denominators (λ = 1 for ints)."""
    if not isinstance(form_or_values, OneForm):
        return linalg.clear_denominators(functional_on_basis(algebra, list(form_or_values)))
    if not isinstance(algebra, PosetLieAlgebra):
        raise ShapeError("poset one-forms apply to poset algebras only")
    coeffs = form_or_values.coeffs
    lam = lcm(1, *(c.denominator for c in coeffs.values()))
    get = {pq: c.numerator * (lam // c.denominator) for pq, c in coeffs.items()}.get
    diag = [get((p, p), 0) for p in range(1, algebra.poset.n + 1)]
    if algebra.kind == "gA":
        diag = [a - b for a, b in zip(diag, diag[1:])]
    return lam, diag + [get(pq, 0) for pq in algebra.strict_pairs]


def phi_on_basis(algebra, form):
    """φ on every basis vector as a Fraction list: ``_phi_ints`` over its λ."""
    lam, phi = _phi_ints(algebra, form)
    return [Fraction(x, lam) for x in phi]


def functional_on_basis(algebra, values):
    """A plain dual vector for custom algebras: values per basis index.

    Ints and Fractions are kept as they are; anything else becomes a
    Fraction.
    """
    if len(values) != algebra.dim:
        raise ShapeError("functional length mismatch")
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]


def dphi_matrix(algebra, form_or_values):
    """Skew matrix M[i][j] = -φ([b_i, b_j])."""
    if isinstance(form_or_values, OneForm):
        values = phi_on_basis(algebra, form_or_values)
    else:
        values = functional_on_basis(algebra, list(form_or_values))
    n = algebra.dim
    m = RatMatrix.zeros(n, n)
    for (i, j), entry in algebra.table.items():
        v = -sum((c * values[k] for k, c in entry.items()), Fraction(0))
        if v:
            m.rows[i][j] = v
            m.rows[j][i] = -v
    return m


def _dphi_rows(algebra, form_or_values):
    """``(rows, λ, φ̃)``: rows ``{col: int}`` of λ·dφ and φ̃ = λ·φ(b), λ > 0 the
    ``_phi_ints`` scale times the table's t. One loop over ``algebra.dphi_terms``
    adds c·φ̃(b_k) into rows[i][j] and mirrors it; an entry whose terms cancel
    is not stored. λ changes no rank, kernel or solve; the Reeb vector reads it."""
    t, terms = algebra.dphi_terms
    lam, phi = _phi_ints(algebra, form_or_values)
    rows = [{} for _ in range(algebra.dim)]
    for i, j, k, c in terms:
        v = c * phi[k]
        if v:
            row = rows[i]
            v += row.get(j, 0)
            if v:
                row[j] = v
                rows[j][i] = -v
            else:
                del row[j], rows[j][i]
    if t != 1:
        lam, phi = t * lam, [t * x for x in phi]
    return rows, lam, phi


def coords_json(coords):
    """Matrix coordinates as a JSON object: "p,q" -> exact value string."""
    return {f"{p},{q}": str(v) for (p, q), v in sorted(coords.items())}


class KernelReport:
    def __init__(self, space, generators, scale=1, to_coords=None):
        self.space = space  # "g", "gA", or "custom"
        self.generators = generators  # integer vectors X in the basis; each kernel vector is X / scale
        self.scale = scale  # D, a Bareiss pivot: nonzero, of either sign
        self.to_coords = to_coords  # (X, D) -> coords; not compared or shown

    def _key(self):
        return self.space, self.generators, self.scale

    def __eq__(self, other):
        return type(other) is KernelReport and self._key() == other._key()

    def __repr__(self):
        return "KernelReport(space={!r}, generators={!r}, scale={!r})".format(*self._key())

    @property
    def dimension(self):
        return len(self.generators)

    @cached_property
    def coords(self):
        """Matrix coordinates of each X over D (poset algebras) or None entries, on first read."""
        if self.to_coords is None:
            return [None] * self.dimension
        return [self.to_coords(x, self.scale) for x in self.generators]

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


def _kernel_report(algebra, gens, d):
    d = d if gens else 1  # an empty kernel has no scale; 1 keeps its reports equal
    if isinstance(algebra, PosetLieAlgebra):
        return KernelReport(algebra.kind, gens, d, algebra.to_matrix_coords)
    return KernelReport("custom", gens, d)


def kernel(algebra, form_or_values):
    """Exact kernel of dφ, with ``empty_sums`` for the sweep's known defect.

    ``report.empty_sums`` holds one set per generator: the pivot columns whose
    back-substitution sum is empty (no later nonzero unknown in the echelon
    row). ``sweep._pairing`` turns its pairing float at them, as the legacy
    float zeros there did. ROADMAP item 1 deletes these sets.
    """
    n = algebra.dim
    ech, pivots, _ = linalg._int_echelon(_dphi_rows(algebra, form_or_values)[0], n)
    gens, d = linalg._null_space(ech, pivots, n)
    report = _kernel_report(algebra, gens, d)
    report.empty_sums = [
        {c for row, c in zip(ech, pivots) if not g[c] and not any(g[j] for j in row if c < j < n)}
        for g in gens
    ]
    return report


def index(algebra, trials=INDEX_TRIALS, seed=0):
    """Sampled index: the least corank of dφ over random forms mod p.

    Each trial is a Schwartz-Zippel trial over GF(p), p = 2^61 - 1: φ
    takes every basis coefficient uniform in [0, p), and dφ's rank is
    computed mod p by ``linalg.rank_mod_p``, a sparse skew-symmetric
    elimination with 2 x 2 pivots that reads only dφ's upper triangle.
    The rank mod p is at most the rank over Q, so a trial's corank is at
    least the exact corank of its φ, which is at least the true index:
    the result is never below the true index. dφ's generic rank r has a
    nonzero principal Pfaffian of degree r/2 <= d // 2 in φ, so when that
    Pfaffian is not 0 mod p a trial overshoots with probability at most
    (d // 2)/p, and the result exceeds the true index with probability
    at most ``index_failure_bound`` = ((d // 2)/p)^trials.
    Coranks have the parity of d, so a trial reaching that floor ends the
    search early. Kernels, solves, determinants and characteristic
    polynomials stay exact.
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
        rows = _dphi_rows(algebra, [rng.randrange(linalg._MODP) for _ in range(n)])[0]
        best = min(best, n - linalg.rank_mod_p(rows, n))
        if best == parity_floor:
            break
    return best


def index_failure_bound(algebra, trials=INDEX_TRIALS):
    """((d // 2)/p)^trials, the bound on ``index`` overshooting; 0 where it samples nothing."""
    return Fraction(0 if algebra.is_abelian() else algebra.dim // 2, linalg._MODP) ** trials


class ContactResult(NamedTuple):
    is_contact: bool
    reason: str
    kernel: KernelReport | None = None
    reeb: tuple | None = None  # (X·λ, S) for the kernel generator X: R = X·λ / S

    def __bool__(self):
        return self.is_contact

    def reeb_json(self):
        """R's matrix coordinates as JSON; None unless contact."""
        if self.reeb:
            if self.kernel.to_coords is None:
                raise ShapeError("matrix coordinates exist only for poset algebras")
            return coords_json(self.kernel.to_coords(*self.reeb))


def is_contact_form(algebra, form_or_values, seed=0):
    """Kernel-generator contact test, with the Reeb vector as (X·λ, S).

    Exact: in odd dimension a one-dimensional kernel bounds the index by
    1 and parity bounds it below by 1, so no sampled ``index`` is needed.
    In integers: ``_dphi_rows`` gives φ̃ = λ·φ(b) with its λ > 0, so for the
    kernel X / D, φ(X / D) = S / (λ·D) with S = Σ X_i·φ̃_i, and the Reeb
    vector, the generator over φ(X / D), is X·λ / S, with φ(R) = 1.
    ``seed`` is not read; it stays only because ``bench/run.py`` and the
    acceptance suite pass ``seed=``.
    """
    dphi = _dphi_rows(algebra, form_or_values) if algebra.dim % 2 else None
    return _contact_result(algebra, dphi)


def _contact_result(algebra, dphi, report=None):
    """``is_contact_form`` on dφ as ``_dphi_rows`` built it, ``(rows, λ, φ̃)``,
    or on None in even dimension, where no form is contact. ``report`` is dφ's
    kernel when an elimination already gave it, as ``principal_or_kernel`` does."""
    if dphi is None:
        return ContactResult(False, "even dimension")
    rows, lam, phi = dphi
    report = report or _kernel_report(algebra, *linalg.int_null_space(rows, algebra.dim))
    if report.dimension != 1:
        return ContactResult(False, f"kernel dimension {report.dimension} != 1", report)
    x = report.generators[0]
    pairing = sum(xi * p for xi, p in zip(x, phi) if xi)
    if pairing == 0:
        return ContactResult(False, "form vanishes on the kernel generator", report)
    return ContactResult(True, "contact", report, ([xi * lam for xi in x], pairing))


def is_contact_form_volume(algebra, form_or_values):
    """Independent oracle: the bordered skew determinant is nonzero.

    Builds [[dφ(b_i, b_j), -φ(b_i)], [φ(b_j), 0]] and tests that it is
    nonsingular; this realizes the top volume-form condition
    φ ∧ (dφ)^k ≠ 0 directly. The rank is ``linalg.skew_rank``'s, exact
    over Q.
    """
    if algebra.dim % 2 == 0:
        raise ShapeError("volume-form test requires odd dimension")
    return _bordered_full_rank(_dphi_rows(algebra, form_or_values))


def _bordered_full_rank(dphi):
    """``is_contact_form_volume`` on dφ as ``_dphi_rows`` built it."""
    rows, _, phi = dphi
    n = len(rows)
    bordered = [row | {n: -p} if p else row for p, row in zip(phi, rows)]
    bordered.append({j: x for j, x in enumerate(phi) if x})
    return linalg.skew_rank(bordered, n + 1) == n + 1


def principal_or_kernel(algebra, form_or_values):
    """``((X, D), None)`` for a Frobenius form, x̂ = X / D, else ``(None, kernel report)``.

    On g_A of even dimension it first tries x̂ in the Cartan, the span of the
    n - 1 basis vectors h_i, where small forms put it. The Cartan is abelian,
    so x̂ can lie there only when φ vanishes on every h_i; for such a φ the
    thin system, all rows of dφ on the h-columns augmented with φ, is solved
    exactly, and when it has a solution a and no kernel, and dφ has full rank
    (``linalg.skew_rank``, which a full rank mod p settles), x̂ is unique and
    equals (a, 0). Any other form goes to one exact elimination of
    [dφ | φ(b)], which gives both, over one D: the kernel of dφ, and when it
    is empty, x̂ as the solution of the system.
    """
    rows, _, phi = _dphi_rows(algebra, form_or_values)
    # φ([x, b_j]) = Σ_i x_i φ([b_i, b_j]) = Σ_i (-M[i][j]) x_i = (M x)_j by skewness
    n = algebra.dim
    if n % 2 == 0 and getattr(algebra, "kind", None) == "gA":
        m = algebra.poset.n - 1
        if not any(phi[:m]):
            thin = [{c: v for c, v in row.items() if c < m} | ({m: p} if p else {})
                    for row, p in zip(rows, phi)]
            x, gens, d = linalg.int_solve_scaled(thin, m)
            if x is not None and not gens and linalg.skew_rank(rows, n) == n:
                return (x + [0] * (n - m), d), None
    x, gens, d = linalg.int_solve_scaled([row | {n: p} if p else row for row, p in zip(rows, phi)], n)
    if gens:
        return None, _kernel_report(algebra, gens, d)
    return (x, d), None


def _strict_weights(algebra, vec):
    """k_p - k_q on each e_pq, k = ``algebra.diagonal(vec)``: ad(x) on e_pq."""
    k = algebra.diagonal(vec)
    return [k[p - 1] - k[q - 1] for p, q in algebra.strict_pairs]


def is_binary_weights(algebra, x, d):
    """ad(X / D) on g_A has eigenvalues 0 and 1, each dim/2 times; false for odd dim.

    ``ad_char_poly``'s weights, in integers: 0 on each diagonal basis vector
    and (K_p - K_q) / D on each e_pq, K the diagonal of X."""
    if getattr(algebra, "kind", None) != "gA":
        raise ShapeError("binary spectra are read on g_A only")
    dim, w = algebra.dim, _strict_weights(algebra, x)
    return dim % 2 == 0 and dim - len(w) + w.count(0) == w.count(d) == dim // 2


def ad_char_poly(algebra, x, d):
    """Characteristic polynomial of ad(X / D), as descending coefficients: the
    product of (λ - w / D) over the integer weights, tested against ``char_poly``.

    Every strict bracket [e_rs, e_pq] lands on a pair of larger span
    q - p, so for any x, diagonal or not, ad(x) is triangular in a basis
    ordered by span: it has 0 on each diagonal basis vector and
    k_p - k_q on each e_pq, where k is x's matrix diagonal
    (``PosetLieAlgebra.diagonal``). Spectra exist only for poset
    algebras: a custom algebra raises ``ShapeError``.
    """
    if not isinstance(algebra, PosetLieAlgebra):
        raise ShapeError("spectra exist only for poset algebras")
    coeffs = [Fraction(1)] + [Fraction(0)] * (algebra.dim - len(algebra.strict_pairs))
    for w in _strict_weights(algebra, x):
        w = Fraction(w, d)
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
