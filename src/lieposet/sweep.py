"""Empirical enumeration support for the conjecture sweep.

Enumerates connected posets up to isomorphism by repeatedly attaching a
new maximal element over an order ideal, classifies each as contact or
not by randomized witnesses (never a proof), and compares the contact
ones against everything reachable by contact-sequence gluing.

The enumeration is a stream (``iter_posets``): the sweep classifies each
poset as it is yielded and keeps only its JSON entry, so memory follows
one level's keys and the parents of the next level, not the whole
enumeration.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .algebras import build_gA
from .forms import index, kernel
from .posets import Poset, canonical_key, net_weights, weight_excess
from .toral.blocks import catalog_blocks
from .toral.gluing import (
    CONTACT_RULES,
    RULES,
    _valid_identifications,
    disconnected_contact_check,
    ext_hasse_has_cycle,
    glue,
)

SWEEP_MAX_N = 8
WITNESS_ATTEMPTS = 60


def iter_posets(max_n, connected_only=True):
    """Isomorphism representatives of posets with up to max_n elements, as
    ``(poset, canonical_key(poset))`` pairs, streamed level by level.

    Each child of a parent adds a new maximal element over one of the
    parent's ideals; the first child seen in each isomorphism class is
    kept and yielded at once. An ideal holding a but not b, for twins
    a < b of the parent (equal down-set and up-set), is skipped: swapping
    a and b is an automorphism of the parent, and ``Poset.ideals`` yields
    the swapped ideal first (a is decided before b, "out" before "in"), so
    the child is isomorphic to an earlier one and never a representative.

    A child is connected exactly when its ideal meets every component of
    the parent. With ``connected_only``, a disconnected child at the last
    level is dropped before it is keyed: it is never yielded nor a parent,
    and isomorphism keeps it apart from every connected child.

    Only the level being built keeps its keys, and only levels below
    max_n keep their representatives, as the next level's parents. A
    parent is dropped once its children are listed, and with it its
    cached down-sets and up-sets.
    """
    if max_n > SWEEP_MAX_N:
        raise ValueError(f"enumeration supports at most {SWEEP_MAX_N} elements")
    return _stream_levels(max_n, connected_only)


def _stream_levels(max_n, connected_only):
    level = [Poset.from_covers(1, [])]
    if max_n >= 1:
        yield level[0], canonical_key(level[0])
    for n in range(2, max_n + 1):
        seen = set()
        children = []
        level.reverse()
        while level:
            parent = level.pop()
            twin_pairs = _twin_pairs(parent)
            components = parent.connected_components()
            for ideal in parent.ideals():
                if any(a in ideal and b not in ideal for a, b in twin_pairs):
                    continue
                # n joins the components its ideal meets
                connected = all(not comp.isdisjoint(ideal) for comp in components)
                if connected_only and n == max_n and not connected:
                    continue
                # n lies above a down-closed set, so the union stays closed
                child = Poset.from_closed(n, parent.relations | {(i, n) for i in ideal})
                key = canonical_key(child)
                if key in seen:
                    continue
                seen.add(key)
                if n < max_n:
                    children.append(child)
                if connected or not connected_only:
                    yield child, key
        level = children


def enumerate_posets(max_n, connected_only=True):
    """The posets of ``iter_posets`` as one list, in its order."""
    return [poset for poset, _ in iter_posets(max_n, connected_only)]


def _twin_pairs(poset):
    """Pairs a < b with equal down-set and equal up-set."""
    classes = {}
    for p in poset.elements:
        twin_key = (frozenset(poset.down_sets[p]), frozenset(poset.up_sets[p]))
        classes.setdefault(twin_key, []).append(p)
    return [pair for twins in classes.values() for pair in combinations(twins, 2)]


def classify_contact(poset, seed=0):
    """(verdict, reason, witness-or-None); empirical, never a proof. A
    witness is φ on g_A's basis as a list of ints.

    The index check comes after the first witness kernel: in odd
    dimension a one-dimensional exact kernel of dφ bounds the index by 1
    and parity bounds it below by 1, so it certifies index 1. The sampled
    ``index`` (``forms.INDEX_TRIALS`` draws from ``seed``) decides only
    the posets whose first kernel has dimension other than 1.

    Torus weights (proofs in README, "Guarantees and limits") settle two
    cases as the loop would. If 2·ex − d ≥ 3, ind ≥ 3 (Theorem A). If
    2·ex − d = 1, a one-dimensional ker dφ is spanned by X_b = ±Pf(dφ
    without b), where X_h ≡ 0 and X_pq ≢ 0 only if net(p) ≥ 2, net(q) ≤ −2
    (at net(p) = 1 no φ_rs in X_pq touches p; with those zero, E_pp − I/n
    has a zero row of dφ, so X_pq ≡ 0). The h-rows of dφ·X = 0 make
    φ_pq·X_pq a circulation, so the terms of each tail p sum to 0. They
    are adjacent in ``_pairing``'s sorted order, and two cancel in floats
    too: fl(−t/D) = −fl(t/D). So where no tail has more than two terms,
    every draw pairs to 0 with no diagonal entry, and one draw decides.

    Known defect, kept so that the sweep's totals stay as they were: the
    pairing of φ with the kernel generator is ``_pairing``'s float sum, whose
    round-off reads as nonzero on some non-contact posets. ROADMAP item 1
    removes it.
    """
    d = poset.dim_gA
    if d == 0:
        return False, "zero-dimensional algebra", None
    if d % 2 == 0:
        return False, "even dimension", None
    if not poset.is_connected():
        res = disconnected_contact_check(poset, seed=seed)
        return res.is_contact, res.reason, None
    if ext_hasse_has_cycle(poset):
        return False, "extremal Hasse diagram contains a cycle", None
    excess = 2 * weight_excess(poset) - d
    if excess >= 3:
        return False, "index is not one", None
    net = net_weights(poset)
    tails = [p for p, q in poset.relations if net[p] >= 2 and net[q] <= -2]
    one_draw = excess == 1 and all(tails.count(p) <= 2 for p in tails)
    gA = build_gA(poset)
    rng = random.Random(seed)
    strict_idx = [i for i, lab in enumerate(gA.labels) if lab[0] == "e"]
    diag_idx = [i for i, lab in enumerate(gA.labels) if lab[0] == "h"]
    for attempt in range(1 if one_draw else WITNESS_ATTEMPTS):
        values = [0] * d
        for i in strict_idx:
            values[i] = rng.randint(1, 1 << 16)
        rep = kernel(gA, values)
        if attempt == 0 and rep.dimension != 1 and index(gA, seed=seed) != 1:
            return False, "index is not one", None
        if rep.dimension != 1:
            continue
        x, scale, empty = rep.generators[0], rep.scale, rep.empty_sums[0]
        if _pairing(values, x, scale, empty, strict_idx) != 0:
            return True, "random regular form is contact", values
        # the kernel generator's diagonal freedom can fix a vanishing pairing
        for i in diag_idx:
            if x[i]:
                values[i] = 1
                if _pairing(values, x, scale, empty, range(d)) == 0:
                    values[i] = 2
                return True, "regular form completed on the diagonal", values
    return False, "no contact witness found (empirical)", None


def _pairing(values, x, scale, empty, indices):
    """Python's ``sum(values[i] * v[i] for i in indices)`` over the legacy
    kernel vector v of the known defect, bit for bit, from the integer
    generator X over its scale D: v[i] is X[i] / D, but a float zero (the
    empty sum over its pivot, 0.0 or -0.0) at each index of ``empty``, the
    generator's empty back-substitution sums (``forms.kernel``).

    That sum is the exact Fraction num / D, num = Σ values[i]·X[i], up to the
    first index in ``empty``. There it becomes the float ``num / D`` (0.0
    when num is 0, as ``float(Fraction(0))`` is), and each later nonzero term
    adds ``values[i] * X[i] / D``, the correctly rounded int true division
    that ``float(Fraction)`` makes. Zero terms change nothing: the float sum
    starts other than -0.0 (short of underflow, far past any 1 / D here),
    and an exact cancellation rounds to 0.0.
    """
    num = 0
    for k, i in enumerate(indices):
        if i in empty:
            total = num / scale if num else 0.0
            for j in indices[k + 1:]:
                if term := values[j] * x[j]:
                    total += term / scale
            return total
        num += values[i] * x[i]
    return Fraction(num, scale)


def reachable_contact_posets(max_n):
    """Canonical keys of contact-sequence outputs with at most max_n elements.

    A gluing step's size is known from the rule alone, so steps that
    would exceed max_n are skipped before any identification is listed.
    """
    contact_start = []
    toral_blocks = []
    for blk in catalog_blocks():
        if blk.poset.n <= max_n:
            (contact_start if blk.kind == "contact" else toral_blocks).append(blk)
    frontier = []
    seen = {}
    # labelled posets already canonicalised: distinct glue steps often
    # build the same one
    canonicalised = set()

    def visit(poset):
        if poset not in canonicalised:
            canonicalised.add(poset)
            key = canonical_key(poset)
            if key not in seen:
                seen[key] = poset
                frontier.append(poset)

    for blk in contact_start:
        visit(blk.poset)
    rules = sorted(CONTACT_RULES)
    while frontier:
        poset = frontier.pop()
        for blk in toral_blocks:
            for rule in rules:
                if poset.n + blk.poset.n - len(RULES[rule].identified) > max_n:
                    continue
                for identify in _valid_identifications(poset, blk, rule):
                    visit(glue(poset, blk, rule, identify).poset)
    return seen


def conjecture_sweep(max_n, seed=0):
    """Flag contact posets up to max_n and check script reachability.

    ``seed`` seeds every poset's witness draws and its sampled ``index``.
    """
    reachable = set(reachable_contact_posets(max_n))  # the keys, not their posets
    checked = 0
    contact = []
    unreachable = []
    for poset, key in iter_posets(max_n):
        checked += 1
        verdict, reason, witness = classify_contact(poset, seed=seed)
        if not verdict:
            continue
        entry = {
            "poset": poset.to_json(),
            "reason": reason,
        }
        contact.append(entry)
        if key not in reachable:
            unreachable.append(entry)
    return {
        "max_n": max_n,
        "connected_posets_checked": checked,
        "contact_found": len(contact),
        "contact": contact,
        "unreachable_by_scripts": unreachable,
        "note": "empirical sweep; witnesses are randomized, nothing here is a proof",
    }
