"""Fraction reference helpers that only the tests read: sl2 as a custom
algebra, a matrix times a vector, zero and skew matrices, a polynomial at
a matrix, exact square roots, vectors as Fraction lists in the algebra
basis (the bracket of two, a vector read off matrix coordinates, matrix
coordinates restricted to a sub-poset's algebra, the ad matrix, kernel
membership through ``dphi_matrix``), the structure table of a poset
algebra built label by label, a script's built form composed one
``OneForm`` operation at a time, the covers of a closed relation set,
matrix coordinates of a kernel report built from its Fraction vectors
X / D, poset isomorphism as a truth value, the components of the
comparability graph by graph search, the conjecture sweep as a
loop over the listed enumeration, dense Bareiss with its back-substitution,
kernel and solve (the oracles of the sparse elimination, and in legacy mode
of the known defect's float zeros), ``classify_contact`` on that legacy
kernel, the spanning-tree supports and both form searches by exhaustion,
whether the stabilizer of a functional meets the Cartan, the torus
weight excess ex(P) of a poset, and the width of an element's diagonal."""

import random
from fractions import Fraction
from itertools import accumulate, combinations
from math import isqrt

from lieposet.algebras import LieAlgebra, build_custom, build_gA
from lieposet.forms import (
    FormError,
    OneForm,
    _dphi_rows,
    dphi_matrix,
    index,
    is_contact_form,
    kernel,
)
from lieposet.linalg import RatMatrix, ShapeError, int_null_space
from lieposet.posets import canonical_key
from lieposet.sweep import (
    WITNESS_ATTEMPTS,
    classify_contact,
    enumerate_posets,
    reachable_contact_posets,
)
from lieposet.toral.gluing import (
    RULES,
    ScriptError,
    disconnected_contact_check,
    ext_hasse_has_cycle,
    glue,
)


def mul_vector(m, vec):
    if len(vec) != m.ncols:
        raise ShapeError("vector length mismatch")
    return [sum(a * Fraction(x) for a, x in zip(row, vec)) for row in m.rows]


def is_zero(m):
    return all(x == 0 for row in m.rows for x in row)


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


def sl2():
    return build_custom(3, {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}})


def bracket(algebra, u, v):
    """[u, v] as a Fraction list, summed over ``bracket_basis``."""
    out = [Fraction(0)] * algebra.dim
    for i, cu in enumerate(u):
        for j, cv in enumerate(v):
            if cu and cv:
                for k, c in algebra.bracket_basis(i, j).items():
                    out[k] += cu * cv * c
    return out


def vector_from_coords(algebra, coords):
    """The Fraction vector of a poset algebra with these matrix coordinates; a pair
    off the poset, or a nonzero trace on g_A, raises ``ShapeError``."""
    coords = {tuple(k): Fraction(v) for k, v in coords.items() if v}
    for p, q in coords:
        if p != q and (p, q) not in algebra.poset.relations:
            raise ShapeError(f"pair ({p},{q}) is not a relation of the host poset")
    diag = [coords.get((p, p), Fraction(0)) for p in algebra.poset.elements]
    if algebra.kind == "gA":
        *diag, trace = accumulate(diag)  # a_i = k_11 + ... + k_ii; a_n is the trace
        if trace:
            raise ShapeError("matrix coordinates have nonzero trace in the trace-zero algebra")
    return diag + [coords.get(pq, Fraction(0)) for pq in algebra.strict_pairs]


def restrict_element(coords, label_map, target_algebra):
    """Restriction of matrix coordinates to a sub-poset's full algebra g, as a vector.

    ``label_map`` sends the target poset's labels to the host labels;
    matrix coordinates at pairs inside the image are kept.
    """
    inv = {v: k for k, v in label_map.items()}
    out = {(inv[p], inv[q]): c for (p, q), c in coords.items() if p in inv and q in inv}
    if target_algebra.kind == "g":
        return vector_from_coords(target_algebra, out)
    raise ShapeError("restriction targets the full incidence algebra")


def unit(dim, j):
    vec = [Fraction(0)] * dim
    vec[j] = Fraction(1)
    return vec


def ad_matrix(algebra, vec):
    """Matrix of [a, -]; column j holds the coordinates of [a, b_j]."""
    m = RatMatrix.zeros(algebra.dim, algebra.dim)
    for j in range(algebra.dim):
        col = bracket(algebra, vec, unit(algebra.dim, j))
        for k, c in enumerate(col):
            if c:
                m.rows[k][j] = c
    return m


def in_kernel(algebra, form_or_values, vec):
    """Membership test: dφ x = 0, read off the Fraction reference ``dphi_matrix``
    rather than ``_dphi_rows``, so tests check kernels against another assembly."""
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


def translate_form(form, mapping, new_poset):
    """The form with each pair's labels sent through ``mapping``, summing collisions."""
    out = {}
    for (p, q), c in form.coeffs.items():
        key = (mapping[p], mapping[q])
        if key[0] > key[1]:
            raise FormError(f"translation reverses pair ({p},{q})")
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return OneForm(new_poset, out)


def add_forms(a, b):
    if a.poset != b.poset:
        raise FormError("forms live on different posets")
    out = {k: Fraction(c) for k, c in a.coeffs.items()}
    for k, c in b.coeffs.items():
        out[k] = out.get(k, Fraction(0)) + c
    return OneForm(a.poset, out)


def subtract_pair(form, p, q):
    out = {k: Fraction(c) for k, c in form.coeffs.items()}
    out[(p, q)] = out.get((p, q), Fraction(0)) - 1
    return OneForm(form.poset, out)


def replay_form(script):
    """A script's built form, step by step: translate the accumulated form and
    the block's form into the step's labels, add them, and subtract each
    merged extremal edge, one ``OneForm`` per operation.

    Returns one ``(form, added, subtracted)`` per step, pairs in that step's
    labels; a step that leaves a coefficient other than 0 or 1 raises
    ``ScriptError`` with the message ``run_script`` gives.
    """
    first = script.steps[0].block()
    poset, form = first.poset, first.form
    steps = [(form, sorted(form.support), [])]
    for step in script.steps[1:]:
        blk = step.block()
        identify = dict(step.identify)
        result = glue(poset, blk, step.rule, identify)
        block_form = translate_form(blk.form, result.s_map, result.poset)
        form = add_forms(translate_form(form, result.q_map, result.poset), block_form)
        subtracted = []
        for role, wanted in RULES[step.rule].related.items():
            if wanted:
                x, other = result.q_map[identify["c"]], result.q_map[identify[role]]
                pair = (x, other) if blk.role_side("c") == "min" else (other, x)
                form = subtract_pair(form, *pair)
                subtracted.append(pair)
        if any(c not in (0, 1) for c in form.coeffs.values()):
            bad = {k: str(v) for k, v in form.coeffs.items() if v not in (0, 1)}
            raise ScriptError(f"built form left coefficients other than one: {bad}")
        poset = result.poset
        steps.append((form, sorted(block_form.support), subtracted))
    return steps


def transitive_reduction(n, relations):
    """Covering pairs of an arbitrary (closed) strict relation set."""
    rel = set(relations)
    up = {p: {q for (a, q) in rel if a == p} for p in range(1, n + 1)}
    return {
        (p, q)
        for p, q in rel
        if not any(z in up[p] for z in range(1, n + 1) if (z, q) in rel)
    }


def kernel_coords(algebra, report):
    """Matrix coordinates of each kernel vector X / D of a poset-algebra report,
    read label by label in Fractions: d_p is E_pp, h_i is E_ii - E_{i+1,i+1}
    and e_pq is E_pq."""
    out = []
    for x in report.generators:
        coords = {}
        for (kind, at), c in zip(algebra.labels, x):
            v = Fraction(c, report.scale)
            if kind == "h":
                terms = [((at, at), v), ((at + 1, at + 1), -v)]
            else:
                terms = [((at, at) if kind == "d" else at, v)]
            for pq, w in terms:
                coords[pq] = coords.get(pq, Fraction(0)) + w
        out.append({pq: w for pq, w in coords.items() if w})
    return out


def is_isomorphic(a, b):
    """True when some order isomorphism maps poset a onto b."""
    return a.isomorphism_to(b) is not None


def searched_components(poset):
    """Components of the comparability graph by a depth-first search from
    each unvisited label in turn, as frozensets in order of least label."""
    adj = {p: [] for p in poset.elements}
    for p, q in poset.relations:
        adj[p].append(q)
        adj[q].append(p)
    seen = set()
    comps = []
    for start in poset.elements:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def listed_sweep(max_n, seed=0):
    """``conjecture_sweep`` as a loop over the whole listed enumeration: list
    the posets, then the reach keys, then classify and key each poset."""
    posets = enumerate_posets(max_n)
    reachable = reachable_contact_posets(max_n)
    contact = []
    unreachable = []
    for poset in posets:
        verdict, reason, _ = classify_contact(poset, seed=seed)
        if verdict:
            entry = {"poset": poset.to_json(), "reason": reason}
            contact.append(entry)
            if canonical_key(poset) not in reachable:
                unreachable.append(entry)
    return {
        "max_n": max_n,
        "connected_posets_checked": len(posets),
        "contact_found": len(contact),
        "contact": contact,
        "unreachable_by_scripts": unreachable,
        "note": "empirical sweep; witnesses are randomized, nothing here is a proof",
    }


def dense_rows(rows, ncols):
    """``{col: int}`` rows as dense lists."""
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def dense_int_echelon(rows, ncols, augmented_from=None):
    """Dense Bareiss with the same pivot rule; the oracle for the sparse one."""
    rows = [r[:] for r in rows]
    pivot_limit = ncols if augmented_from is None else augmented_from
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(pivot_limit):
        if r == len(rows):
            break
        piv = None
        best = None
        for i in range(r, len(rows)):
            v = rows[i][c]
            if v:
                if best is None or abs(v) < best:
                    piv, best = i, abs(v)
                    if best == 1:
                        break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        prc = rows[r][c]
        for i in range(r + 1, len(rows)):
            ric = rows[i][c]
            ri, rr = rows[i], rows[r]
            if ric:
                for j in range(c + 1, ncols):
                    ri[j] = (ri[j] * prc - ric * rr[j]) // prev
                ri[c] = 0
            elif prc != prev:
                for j in range(c + 1, ncols):
                    ri[j] = (ri[j] * prc) // prev
        prev = prc
        pivots.append(c)
        r += 1
    return rows, pivots, sign


def dense_back_substitute(ech, pivots, x, ncols, rhs=False, legacy=False):
    # legacy: an empty sum stays the int 0, so 0 / pivot is the float 0.0
    # or -0.0 of the known defect, which the sweep's pairing still reproduces
    zero = 0 if legacy else Fraction(0)
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        row = ech[k]
        s = sum(row[j] * x[j] for j in range(c + 1, ncols) if row[j] and x[j])
        x[c] = ((Fraction(row[ncols]) if rhs else zero) - s) / row[c]
    return x


def dense_kernel_basis(rows, ncols, legacy=False):
    ech, pivots, _ = dense_int_echelon(rows, ncols)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            basis.append(dense_back_substitute(ech, pivots, v, ncols, legacy=legacy))
    return basis


def dense_solve(aug_rows, ncols):
    ech, pivots, _ = dense_int_echelon(aug_rows, ncols + 1, augmented_from=ncols)
    if any(row[ncols] for row in ech[len(pivots):]):
        return None, len(pivots)
    x = dense_back_substitute(ech, pivots, [Fraction(0)] * ncols, ncols, rhs=True)
    return x, len(pivots)


def legacy_classify_contact(poset, seed=0):
    """``classify_contact`` with its witness loop as it read the known defect
    before ``sweep._pairing``: each draw's kernel is the dense oracle's legacy
    basis (Fraction entries, with the float 0 / pivot at each empty
    back-substitution sum), and both pairings are Python sums over that
    vector. The gates, draws and attempt order are ``classify_contact``'s."""
    d = poset.n - 1 + len(poset.relations)
    if d == 0:
        return False, "zero-dimensional algebra", None
    if d % 2 == 0:
        return False, "even dimension", None
    if not poset.is_connected():
        res = disconnected_contact_check(poset, seed=seed)
        return res.is_contact, res.reason, None
    if ext_hasse_has_cycle(poset):
        return False, "extremal Hasse diagram contains a cycle", None
    gA = build_gA(poset)
    rng = random.Random(seed)
    strict_idx = [i for i, lab in enumerate(gA.labels) if lab[0] == "e"]
    diag_idx = [i for i, lab in enumerate(gA.labels) if lab[0] == "h"]
    for attempt in range(WITNESS_ATTEMPTS):
        values = [0] * d
        for i in strict_idx:
            values[i] = rng.randint(1, 1 << 16)
        basis = dense_kernel_basis(dense_rows(_dphi_rows(gA, values)[0], d), d, legacy=True)
        if attempt == 0 and len(basis) != 1 and index(gA, seed=seed) != 1:
            return False, "index is not one", None
        if len(basis) != 1:
            continue
        gen = basis[0]
        phi_b = sum(values[i] * gen[i] for i in strict_idx)
        if phi_b != 0:
            return True, "random regular form is contact", values
        for i in diag_idx:
            if gen[i]:
                values[i] = 1
                check = sum(values[k] * gen[k] for k in range(d))
                if check == 0:
                    values[i] = 2
                return True, "regular form completed on the diagonal", values
    return False, "no contact witness found (empirical)", None


def tree_supports(poset):
    """The candidate supports of both form searches, as a scan of
    ``combinations(sorted(relations), n - 1)`` in lexicographic order: each
    spanning tree with no interior vertex, whose sources form an ideal, that
    contains Rel_E."""
    n = poset.n
    rel_e = poset.extremal_data().rel_e
    for support in combinations(sorted(poset.relations), n - 1):
        sources = {p for p, _ in support}
        if sources & {q for _, q in support} or not poset.is_ideal(sources):
            continue
        if not rel_e <= set(support):
            continue
        reached = {1}
        for _ in range(n):
            reached |= {b for pq in support for a, b in (pq, pq[::-1]) if a in reached}
        if len(reached) == n:  # n - 1 edges that connect all n vertices form a tree
            yield support


def exhaustive_tree_form(poset, contact):
    """``search_contact_form`` (``contact``) or ``derive_small_frobenius_form``
    as the first of ``tree_supports`` whose form passes a Bareiss verdict,
    ``is_contact_form`` on E*_{11} + φ_S or an empty ``kernel`` of dφ_S.
    Returns the form or None."""
    gA = build_gA(poset)
    for support in tree_supports(poset):
        if contact:
            form = OneForm.from_support(poset, [*support, (1, 1)])
            if is_contact_form(gA, form).is_contact:
                return form
        else:
            form = OneForm.from_support(poset, support)
            if kernel(gA, form).dimension == 0:
                return form
    return None


def stabilizer_meets_cartan(gA, values):
    """Whether the stabilizer of the functional ``values`` on g_A meets the
    Cartan: None unless ker dφ is one-dimensional, else whether its spanning
    vector X has a nonzero h-coordinate."""
    gens, _ = int_null_space(_dphi_rows(gA, values)[0], gA.dim)
    if len(gens) != 1:
        return None
    return any(x for (kind, _), x in zip(gA.labels, gens[0]) if kind == "h")


def weight_excess(poset):
    """ex(P) = Σ_x max(0, net(x)), net(x) = #{q : x < q} − #{p : p < x}.

    wt(e_pq) = ε_p − ε_q and wt(h) = 0, so the weights of g_A's basis sum
    to Σ_x net(x)·ε_x, and ex(P) is half that sum's ℓ1-norm (the nets sum
    to 0)."""
    net = dict.fromkeys(poset.elements, 0)
    for p, q in poset.relations:
        net[p] += 1
        net[q] -= 1
    return sum(max(0, v) for v in net.values())


def diagonal_width(gA, x, d):
    """max − min of the matrix diagonal k of x / d, read by ``gA.diagonal``,
    as an exact ``Fraction`` (the scale d has either sign).

    For x̂ of a Frobenius form, tr ad x̂ = Σ_Rel (k_p − k_q) = ⟨k, net⟩ is
    half of dim g_A, so a diagonal of width 1 bounds that half by ex(P)."""
    k = gA.diagonal(x)
    return Fraction(max(k) - min(k), abs(d))
