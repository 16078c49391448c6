"""Building-block catalog and block-pair verification.

Blocks come in two kinds: Frobenius ("toral") blocks carrying a small
Frobenius one-form, and contact blocks carrying a distinguished contact
one-form with a single diagonal summand at element 1. The catalog is one
table, ``_FAMILIES``: each family is one row holding its id, kind, size
range (None for a fixed block) and a builder ``build(n) -> (poset,
support)``. Every support is data, except that the three contact duals
are derived as the order duals of their bases (``_with_dual``); the
exhaustive lexicographic search over spanning-tree supports is the test
oracle for the toral ones, and every form is validated by the same pair
verifier as everything else.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .. import linalg
from ..algebras import build_gA
from ..forms import (
    KernelReport,
    OneForm,
    _bordered_full_rank,
    _contact_result,
    _dphi_rows,
    is_binary_weights,
    is_contact_form_volume,
    is_small,
    principal_or_kernel,
    udo_partition,
)
from ..posets import Poset, is_forest


class BlockError(ValueError):
    """Unknown block id or parameter outside the supported range."""


class BuildingBlock(NamedTuple):
    id: str
    kind: str  # "toral" or "contact"
    poset: Poset
    form: OneForm
    roles: dict  # {"c": label, "a1": label, "a2": label or absent}
    n: int | None = None

    def role_side(self, role):
        """'min' or 'max' side of the extremal element filling the role."""
        return "min" if self.roles[role] in self.poset.minimal_elements else "max"


class CatalogFamily(NamedTuple):
    id: str
    kind: str  # "toral" or "contact"
    n_range: tuple | None  # inclusive (lo, hi) of documented support; None when fixed
    build: Callable  # n -> (poset, support)

    @property
    def parametric(self):
        return self.n_range is not None


def _roles_for(poset):
    ext = poset.extremal_data()
    mins, maxs = sorted(ext.minimal), sorted(ext.maximal)
    if len(ext.ext) == 2:
        # unique minimal below unique maximal
        return {"c": mins[0], "a1": maxs[0]}
    if len(mins) == 1:
        return {"c": mins[0], "a1": maxs[0], "a2": maxs[1]}
    if len(maxs) == 1:
        return {"c": maxs[0], "a1": mins[0], "a2": mins[1]}
    raise BlockError("block posets need a unique extremal element on one side")


# ----- spanning-tree form search ---------------------------------------------


def _least_tree_form(poset, diagonal, verdict):
    """φ_S + ``diagonal`` for the lexicographically smallest spanning-tree
    support S whose form ``verdict(gA, form)`` accepts, or None.

    A candidate support S orients every edge from an ideal D to the
    filter U = complement. One include-first walk over the sorted
    relations builds S: an edge goes in only while S stays a forest, no
    element is both a tail and a head, and no head lies below a tail, so
    the tails of a spanning tree form the ideal D. Every extremal
    relation must go in. Include-first over sorted edges reaches the
    (n - 1)-edge supports in lexicographic order, so the first one the
    verdict accepts is the least. g_A is built once and every verdict
    reads it.
    """
    need = poset.n - 1
    edges = sorted(poset.relations)
    if len(edges) < need:
        return None
    gA = build_gA(poset)
    rel_e = poset.extremal_data().rel_e
    down = poset.down_sets
    chosen = []

    def walk(i, heads):
        if len(chosen) == need:  # n - 1 edges and no cycle: a spanning tree
            if not rel_e.issubset(chosen):
                return None
            form = OneForm.from_support(poset, chosen + diagonal)
            return form if verdict(gA, form) else None
        if len(chosen) + len(edges) - i < need:
            return None
        p, q = e = edges[i]
        found = None
        # every chosen tail is at most p < q, so q is no tail and lies below none:
        # only p can break the orientation
        if p not in heads and heads.isdisjoint(down[p]):
            chosen.append(e)
            if is_forest(poset.elements, chosen):
                found = walk(i + 1, heads | {q})
            chosen.pop()
        if found is None and e not in rel_e:
            found = walk(i + 1, heads)
        return found

    return walk(0, frozenset())


def derive_small_frobenius_form(poset):
    """Lexicographically smallest spanning-tree form φ_S that is Frobenius
    on g_A, or None.

    S is accepted when dφ_S has full rank (``linalg.skew_rank``, which a
    full rank mod p settles), the rule ``principal_or_kernel`` certifies
    x̂ by; so both acceptance and rejection are exact. With a trivial
    trace-zero kernel the full incidence kernel is spanned by the
    identity matrix, which settles the kernel-shape condition for free.
    """
    if poset.dim_gA % 2 == 1:
        return None
    return _least_tree_form(
        poset, [], lambda gA, form: linalg.skew_rank(_dphi_rows(gA, form)[0], gA.dim) == gA.dim
    )


def search_contact_form(poset):
    """Lexicographically smallest contact form E*_{1,1} + φ_S, or None.

    The same walk as the Frobenius search; S is accepted
    when ``is_contact_form_volume`` accepts E*_{1,1} + φ_S, one exact
    rank of the bordered skew matrix per candidate. Nothing is sampled,
    so the result is exact. The search is exhaustive, with no cap on the
    number of supports tried; callers bound the poset size instead (the
    CLI's ``SEARCH_SIZE_CAP``).
    """
    if poset.dim_gA % 2 == 0 or not poset.is_connected():
        return None
    return _least_tree_form(poset, [(1, 1)], is_contact_form_volume)


# ----- the catalog -------------------------------------------------------------


def _fixed(block_id, kind, size, covers, support):
    """Row of a fixed block: ``covers`` on ``size`` elements, with ``support``."""
    return CatalogFamily(
        block_id, kind, None, lambda _n: (Poset.from_covers(size, covers), support)
    )


def _with_dual(base):
    """``base`` and the row of its order dual: p -> n + 1 - p on the poset and
    (p, q) -> (n + 1 - q, n + 1 - p) on the strict support; a diagonal
    summand, E*_{11} on a contact block, stays where it is."""
    def build(n):
        poset, support = base.build(n)
        m = poset.n + 1
        dual = Poset.from_closed(poset.n, poset.dual().relations)  # labels kept, identity relabeling
        return dual, [(p, q) if p == q else (m - q, m - p) for p, q in support]

    return base, CatalogFamily(base.id + "_dual", base.kind, base.n_range, build)


# The toral parametric supports are the ones the lexicographic search
# finds at every size where it is tractable; the closed forms extend
# them, and every instance is re-checked by the pair verifier.


def _pendant_chain(n):
    h = n // 2
    covers = [(i, i + 1) for i in range(1, n - 1)] + [(h, n)]
    support = [(1, j) for j in range(h + 1, n + 1)]
    support += [(i, n + 1 - i) for i in range(2, h + 1)]
    return Poset.from_covers(n, covers), support


def _pendant_chain_dual(n):
    m = (n - 1) // 2
    labels = list(range(1, m + 1)) + list(range(m + 2, n + 1))
    covers = [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    covers.append((m + 1, m + 2))
    support = [(1, j) for j in range(m + 2, n + 1)]
    support += [(i, n + 1 - i) for i in range(2, m + 1)]
    support.append((m + 1, n))
    return Poset.from_covers(n, covers), support


def _diamond_stack(n):
    covers = [(1, 2), (1, 3)]
    for level in range(1, n):
        lo = (2 * level, 2 * level + 1)
        hi = (2 * level + 2, 2 * level + 3)
        covers.extend((a, b) for a in lo for b in hi)
    h = n // 2
    support = [(1, u) for u in range(2 * h + 2, 2 * n + 2)]
    for k in range(1, h + 1):
        mirror = n + 1 - k
        if mirror == k + 1:
            support += [(2 * k, 2 * mirror), (2 * k + 1, 2 * mirror)]
        else:
            support += [(2 * k, 2 * mirror), (2 * k + 1, 2 * mirror + 1)]
    return Poset.from_covers(2 * n + 1, covers), support


def _diamond_stack_dual(n):
    covers = []
    for level in range(1, n):
        lo = (2 * level - 1, 2 * level)
        hi = (2 * level + 1, 2 * level + 2)
        covers.extend((a, b) for a in lo for b in hi)
    covers.extend(((2 * n - 1, 2 * n + 1), (2 * n, 2 * n + 1)))
    g = (n + 1) // 2
    support = [(1, u) for u in range(2 * g + 1, 2 * n + 2)]
    support.append((2, 2 * n + 1))
    for k in range(2, g + 1):
        mirror = n + 2 - k
        if mirror == k + 1:
            support += [(2 * k - 1, 2 * mirror - 1), (2 * k, 2 * mirror - 1)]
        else:
            support += [(2 * k - 1, 2 * mirror - 1), (2 * k, 2 * mirror)]
    return Poset.from_covers(2 * n + 1, covers), support


def _contact_pendant_high(n):
    covers = [(i, i + 1) for i in range(1, n - 1)] + [(n // 2 + 1, n)]
    support = [(1, 1)]
    support += [(i, n - i) for i in range(1, (n - 1) // 2 + 1)]
    support += [(i, n) for i in range(1, n // 2 + 1)]
    return Poset.from_covers(n, covers), support


def _contact_pendant_low(n):
    covers = [(i, i + 1) for i in range(1, n - 1)] + [(n // 2 - 1, n)]
    support = [(1, 1)]
    support += [(i, n - i) for i in range(1, (n - 1) // 2 + 1)]
    support += [(i, n) for i in range(1, n // 2)]
    support += [(n // 2, n - 1)]
    return Poset.from_covers(n, covers), support


_FAMILIES = {
    fam.id: fam
    for fam in (
        _fixed("chain2", "toral", 2, [(1, 2)], [(1, 2)]),
        CatalogFamily("pendant_chain", "toral", (4, 14), _pendant_chain),
        CatalogFamily("pendant_chain_dual", "toral", (4, 14), _pendant_chain_dual),
        _fixed("tree6", "toral", 6, [(1, 2), (2, 3), (2, 4), (3, 5), (4, 6)],
               [(1, 3), (1, 5), (1, 6), (2, 4), (2, 5)]),
        _fixed("tree6_dual", "toral", 6, [(1, 3), (2, 4), (3, 5), (4, 5), (5, 6)],
               [(1, 5), (1, 6), (2, 6), (3, 5), (4, 5)]),
        CatalogFamily("diamond_stack", "toral", (1, 7), _diamond_stack),
        CatalogFamily("diamond_stack_dual", "toral", (1, 7), _diamond_stack_dual),
        _fixed("six_a", "toral", 6, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6)],
               [(1, 5), (1, 6), (2, 4), (2, 5), (3, 6)]),
        _fixed("six_a_dual", "toral", 6, [(1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)],
               [(1, 6), (2, 6), (1, 4), (3, 4), (2, 5)]),
        _fixed("six_b", "toral", 6, [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (3, 6)],
               [(1, 5), (1, 6), (2, 4), (3, 4), (3, 6)]),
        _fixed("six_b_dual", "toral", 6, [(1, 3), (3, 4), (3, 5), (4, 6), (5, 6), (2, 5)],
               [(1, 6), (2, 6), (2, 5), (3, 4), (3, 5)]),
        _fixed("six_c", "toral", 6, [(1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (2, 6)],
               [(1, 5), (1, 6), (2, 3), (2, 4), (2, 5)]),
        _fixed("six_c_dual", "toral", 6, [(1, 3), (1, 4), (3, 5), (4, 5), (5, 6), (2, 5)],
               [(1, 6), (2, 6), (1, 5), (3, 5), (4, 5)]),
        _fixed("six_d", "toral", 6, [(1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (5, 6), (3, 6)],
               [(1, 4), (1, 6), (2, 4), (2, 5), (3, 6)]),
        _fixed("six_d_dual", "toral", 6, [(1, 2), (1, 5), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6)],
               [(1, 5), (1, 6), (2, 4), (3, 4), (3, 6)]),
        _fixed("contact_chain3", "contact", 3, [(1, 2), (2, 3)], [(1, 1), (1, 3), (2, 3)]),
        _fixed("contact_chain4", "contact", 4, [(1, 2), (2, 3), (3, 4)],
               [(1, 1), (1, 4), (2, 3), (2, 4)]),
        *_with_dual(_fixed("contact_fork", "contact", 5, [(1, 2), (2, 3), (3, 4), (3, 5)],
                           [(1, 1), (1, 4), (1, 5), (2, 3), (2, 5)])),
        *_with_dual(CatalogFamily("contact_pendant_high", "contact", (5, 14), _contact_pendant_high)),
        *_with_dual(CatalogFamily("contact_pendant_low", "contact", (5, 14), _contact_pendant_low)),
    )
}


def catalog():
    """All block families, fixed and parametric."""
    return list(_FAMILIES.values())


def catalog_blocks(n_range=None):
    """Every block instance of the catalog, family by family.

    A fixed family gives its one block; a parametric family gives one
    block per size of its range, cut to ``n_range`` (inclusive
    ``(lo, hi)``) when that is given.
    """
    for fam in _FAMILIES.values():
        if not fam.parametric:
            yield block(fam.id)
            continue
        lo, hi = fam.n_range
        if n_range is not None:
            lo, hi = max(lo, n_range[0]), min(hi, n_range[1])
        for n in range(lo, hi + 1):
            yield block(fam.id, n)


def family(block_id, n=None):
    """The catalog row of a block; parametric families require n in range,
    fixed ones refuse any n."""
    fam = _FAMILIES.get(block_id)
    if fam is None:
        raise BlockError(f"unknown block id {block_id!r}")
    if not fam.parametric:
        if n is not None:
            raise BlockError(f"block {block_id!r} is fixed and takes no size, got n={n}")
        return fam
    if n is None:
        raise BlockError(f"block {block_id!r} requires a size parameter n")
    lo, hi = fam.n_range
    if not lo <= n <= hi:
        raise BlockError(f"block {block_id!r} supports n in [{lo},{hi}], got {n}")
    return fam


def block(block_id, n=None):
    """Instantiate a catalog block; parametric families require n."""
    fam = family(block_id, n)
    poset, support = fam.build(n)
    form = OneForm.from_support(poset, support)
    return BuildingBlock(block_id, fam.kind, poset, form, _roles_for(poset), n)


# ----- pair verification ------------------------------------------------------


class PairReport:
    def __init__(self, kind, conditions, details=None, scaled_principal=None, contact_input=None):
        self.kind = kind
        self.conditions = conditions
        self.details = {} if details is None else details
        self.scaled_principal = scaled_principal  # x̂ as (X, D)
        # (g_A, dφ), then dφ's kernel report if an elimination already gave it
        self.contact_input = contact_input

    @cached_property
    def contact_result(self):
        """``is_contact_form`` on g_A, run on first read over the dφ rows the
        verdict ranked; None on a toral report. ``to_json`` puts its reason,
        kernel and Reeb vector into the details."""
        if self.contact_input:
            return _contact_result(*self.contact_input)

    @property
    def all_pass(self):
        return all(self.conditions.values())

    def failed(self):
        return [name for name, ok in self.conditions.items() if not ok]

    def to_json(self):
        details = dict(self.details)
        if (res := self.contact_result) is not None:
            details["contact"] = res.reason
            if res.kernel is not None:
                details["kernel_trace_zero"] = res.kernel
            if res.reeb is not None:
                details["reeb"] = res.reeb_json()
        return {
            "kind": self.kind,
            "conditions": dict(self.conditions),
            "all_pass": self.all_pass,
            "details": {
                k: (v.to_json() if hasattr(v, "to_json") else v)
                for k, v in details.items()
            },
        }


def _pair_shape(poset, form):
    """The shape conditions both pair verifiers check, in their order: extremal
    count, small support, up/down partition, extremal edges; then the partition.
    All four read the strict support only, so a diagonal summand is ignored."""
    ext = poset.extremal_data()
    u, d, o = udo_partition(poset, form)
    return (
        len(ext.ext) in (2, 3),
        is_small(poset, form),
        not o and poset.is_filter(u) and poset.is_ideal(d),
        ext.rel_e <= form.strict_support,
    ), {"up": sorted(u), "down": sorted(d), "other": sorted(o)}


def verify_toral_pair(poset, form):
    """Itemized check of the Frobenius building-block conditions on g_A, through
    ``principal_or_kernel``: x̂ in the Cartan, certified by a thin solve and a
    full rank of dφ, or else one exact elimination of [dφ | φ]. It gives x̂ in
    integers, kept as ``scaled_principal``, or the trace-zero kernel;
    the kernel on g is read off it as I followed by each trace-zero generator
    lifted into g, and g is not built."""
    (count, small, updown, edges), partition = _pair_shape(poset, form)
    conditions = {
        "p1_extremal_count": count,
        "f1_small": small and not form.diagonal_support,
        "f2_updown_partition": updown,
        "f3_extremal_edges": edges,
    }
    details = {"partition": partition}
    gA = build_gA(poset)
    x_hat, ker_a = principal_or_kernel(gA, form)
    gens, scale = (ker_a.generators, ker_a.scale) if ker_a else ([], 1)
    # g = g_A ⊕ C·I with I central: ker dφ on g is C·I iff φ is Frobenius on g_A
    conditions["f4_kernel_shape"] = x_hat is not None
    n, strict = poset.n, gA.strict_pairs
    full = [[scale] * n + [0] * len(strict)]
    for x in gens:
        # X lifted into g with d_n = 0, over the same D: its diagonal plus
        # x_{h_{n-1}} times I, then the e-coordinates as they are
        full.append([k + x[n - 2] for k in gA.diagonal(x)] + x[n - 1 :])
    # g's basis (as build_g lays it out) is d_1..d_n, then g_A's strict pairs
    labels = [(p, p) for p in poset.elements] + strict
    details["kernel_full"] = KernelReport(
        "g", full, scale, lambda x, d: {pq: Fraction(v, d) for pq, v in zip(labels, x) if v}
    )
    conditions["frobenius"] = x_hat is not None
    details["kernel_trace_zero"] = ker_a or KernelReport("gA", [])
    conditions["p2_binary_spectrum"] = x_hat is not None and is_binary_weights(gA, *x_hat)
    return PairReport("toral", conditions, details, x_hat)


def verify_contact_toral_pair(poset, form):
    """Itemized check of the contact building-block conditions.

    The verdict is ``is_contact_form_volume``'s bordered rank, exact over Q
    and settled by a full rank mod p, so the check runs no kernel
    elimination. ``is_contact_form`` supplies the reason, the trace-zero
    kernel and the Reeb vector, on either verdict only when
    ``contact_result`` is first read, from the dφ rows the rank read.
    """
    (count, small, updown, edges), partition = _pair_shape(poset, form)
    conditions = {
        "cp1_connected": poset.is_connected(),
        "cp2_extremal_count": count,
        "cf1_diagonal_at_one": form.diagonal_support == {(1, 1)} and form.coefficient(1, 1) != 0,
        "cf2_small": small,
        "cf3_updown_partition": updown,
        "cf4_extremal_edges": edges,
    }
    gA = build_gA(poset)
    # the bordered rank exists in odd dimension only; _contact_result names the even one
    dphi = _dphi_rows(gA, form) if gA.dim % 2 else None
    conditions["contact"] = dphi is not None and _bordered_full_rank(dphi)
    return PairReport("contact", conditions, {"partition": partition}, contact_input=(gA, dphi))


def verify_block(blk, seed=0):
    """Pair verification by the block's kind; both verifiers are exact, so
    ``seed`` is not read. It stays only because ``bench/run.py`` passes it."""
    if blk.kind == "toral":
        return verify_toral_pair(blk.poset, blk.form)
    return verify_contact_toral_pair(blk.poset, blk.form)
