import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieposet.posets import (
    JSON_SIZE_LIMIT,
    CycleError,
    Poset,
    PosetError,
    UnsupportedSizeError,
)
from lieposet.sweep import enumerate_posets
from lieposet.toral import block, catalog
from oracles import is_isomorphic, searched_components, transitive_reduction

GATE = Poset.from_covers(4, [(1, 2), (2, 3), (2, 4)])  # 1 < 2 < {3,4}


def closure_oracle(n, covers):
    """Independent transitive closure by fixpoint iteration."""
    rel = set(covers)
    changed = True
    while changed:
        changed = False
        for (p, q) in list(rel):
            for (r, s) in list(rel):
                if q == r and (p, s) not in rel:
                    rel.add((p, s))
                    changed = True
    return rel


def random_covers(rng, n, density=0.3):
    covers = []
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            if rng.random() < density:
                covers.append((p, q))
    return covers


def test_gate_relations():
    assert GATE.relations == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}


def test_singleton_and_chain():
    assert Poset.from_covers(1, []).relations == frozenset()
    assert Poset.from_covers(3, [(1, 2), (2, 3)]).relations == {(1, 2), (2, 3), (1, 3)}


def test_rejects_cycles_and_bad_labels():
    with pytest.raises(CycleError):
        Poset.from_covers(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(PosetError):
        Poset.from_covers(2, [(1, 5)])
    # a negative "n" used to reach Kahn's algorithm and be reported as a cycle
    for n in (0, -3):
        with pytest.raises(PosetError, match="at least one element"):
            Poset.from_covers(n, [])
        with pytest.raises(PosetError, match="at least one element"):
            Poset.from_json({"n": n, "covers": []})


def test_relabeling_recorded_when_convention_violated():
    # covers 3 -> 1 -> 2 as raw labels; a linear extension must reorder
    p = Poset.from_covers(3, [(3, 1), (1, 2)])
    assert p.relations == {(1, 2), (2, 3), (1, 3)}
    assert p.relabeling == {3: 1, 1: 2, 2: 3}
    p.relabeling[3] = 3  # each read is a fresh dict
    assert p.relabeling == {3: 1, 1: 2, 2: 3}


def test_kept_labels_store_no_relabeling():
    # a poset that keeps its labels stores its size and relations only
    # and reads the identity
    p = Poset.from_closed(3, {(1, 2), (1, 3)})
    assert set(vars(p)) == {"n", "relations"}
    assert p.relabeling == {1: 1, 2: 2, 3: 3}
    p.relabeling[1] = 2
    assert p.relabeling == {1: 1, 2: 2, 3: 3}


def test_extremal_data_gate():
    ext = GATE.extremal_data()
    assert ext.ext == {1, 3, 4}
    assert ext.rel_e == {(1, 3), (1, 4)}


def test_extremal_singleton_and_antichain():
    single = Poset.from_covers(1, [])
    assert single.extremal_data().ext == {1}
    anti = Poset.antichain(3)
    ext = anti.extremal_data()
    assert ext.minimal == ext.maximal == {1, 2, 3}
    assert ext.rel_e == frozenset()


def test_covering_relations():
    assert GATE.covers == {(1, 2), (2, 3), (2, 4)}
    assert Poset.chain(3).covers == {(1, 2), (2, 3)}


def test_covers_of_contact_pendant_high_8():
    # relation lists: chain 1..7 plus 5 below 8; reduce independently
    rels = {(i, j) for i in range(1, 8) for j in range(i + 1, 8)}
    rels |= {(i, 8) for i in range(1, 6)}
    expected = transitive_reduction(8, rels)
    assert expected == {(i, i + 1) for i in range(1, 7)} | {(5, 8)}
    p = Poset(8, rels)
    assert p.covers == expected


def test_filters_and_ideals():
    assert GATE.is_filter({3, 4})
    assert not GATE.is_ideal({3, 4})
    assert GATE.is_ideal({1, 2})
    assert not GATE.is_filter({1, 2})
    assert GATE.is_filter(set()) and GATE.is_ideal(set())


def test_connectivity_height_misc():
    assert GATE.is_connected()
    assert GATE.height == 2
    anti2 = Poset.antichain(2)
    assert not anti2.is_connected()
    assert anti2.height == 0


def test_disjoint_sum():
    s = Poset.chain(2).disjoint_sum(Poset.chain(2))
    assert s.relations == {(1, 2), (3, 4)}


def test_induced_subposet():
    sub = GATE.induced_subposet({2, 3, 4})
    assert sub.n == 3
    assert sub.relations == {(1, 2), (1, 3)}


def test_betti_gate_contractible():
    assert GATE.betti_numbers(2) == [1, 0, 0]


def test_betti_antichain():
    assert Poset.antichain(3).betti_numbers(1) == [3, 0]


def betti_oracle(poset, max_dim):
    """Independent homology ranks via plain Fraction elimination."""
    from fractions import Fraction

    chains = {1: [(p,) for p in poset.elements]}
    size = 1
    while size <= max_dim + 2:
        nxt = []
        for ch in chains.get(size, []):
            for q in poset.elements:
                if all((c, q) in poset.relations for c in ch):
                    nxt.append(ch + (q,))
        size += 1
        if nxt:
            chains[size] = sorted(nxt)
        else:
            break

    def rref_rank(rows):
        if not rows or not rows[0]:
            return 0
        m = [row[:] for row in rows]
        nr, nc = len(m), len(m[0])
        r = 0
        for c in range(nc):
            piv = next((i for i in range(r, nr) if m[i][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = Fraction(1) / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            r += 1
        return r

    ranks = {}
    for k in range(2, max_dim + 3):
        if k not in chains:
            ranks[k] = 0
            continue
        idx = {f: i for i, f in enumerate(chains[k - 1])}
        rows = [[Fraction(0)] * len(chains[k]) for _ in chains[k - 1]]
        for j, face in enumerate(chains[k]):
            for drop in range(k):
                sub = face[:drop] + face[drop + 1 :]
                rows[idx[sub]][j] = Fraction((-1) ** drop)
        ranks[k] = rref_rank(rows)
    out = []
    for dim in range(max_dim + 1):
        k = dim + 1
        out.append(len(chains.get(k, [])) - ranks.get(k, 0) - ranks.get(k + 1, 0))
    return out


def test_betti_matches_oracle_randomized():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 6)
        p = Poset.from_covers(n, random_covers(rng, n))
        assert p.betti_numbers(2) == betti_oracle(p, 2)


def test_betti_two_component_poset():
    # figure-style two-component shape: each component contributes its b0
    p = Poset.chain(3).disjoint_sum(GATE)
    b = p.betti_numbers(2)
    assert b[0] == 2


def test_betti_negative_max_dim_is_empty():
    assert Poset.chain(3).betti_numbers(-1) == []
    assert GATE.betti_numbers(-2) == []


def test_betti_core_matches_oracle_through_n6():
    posets = list(enumerate_posets(6, connected_only=False))
    assert len(posets) == 405
    for p in posets:
        assert p.betti_numbers(2) == betti_oracle(p, 2), p


def test_betti_core_matches_chain_complex_through_n7():
    posets = list(enumerate_posets(7, connected_only=False))
    assert len(posets) == 2450
    for p in posets:
        assert p.betti_numbers(2) == p._chain_complex_betti(2), p


def _ordinal_sum(lower, upper):
    shift = lower.n
    rels = set(lower.relations) | {(p + shift, q + shift) for p, q in upper.relations}
    rels |= {(p, q + shift) for p in lower.elements for q in upper.elements}
    return Poset.from_closed(lower.n + upper.n, rels)


def test_betti_on_cores_that_are_not_a_point():
    crown = Poset.from_covers(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    assert crown._beat_core() == {1, 2, 3, 4}  # no element is removed
    assert crown.betti_numbers(2) == [1, 1, 0]
    pair = Poset.antichain(2)
    sphere = _ordinal_sum(_ordinal_sum(pair, pair), pair)
    assert len(sphere._beat_core()) == 6
    assert sphere.betti_numbers(2) == [1, 0, 1]
    mixed = Poset.chain(3).disjoint_sum(crown)
    assert len(mixed._beat_core()) == 5  # the chain shrinks to one point
    assert mixed.betti_numbers(2) == [2, 1, 0]


def test_betti_point_core_needs_no_elimination(monkeypatch):
    import lieposet.posets as posets_mod

    def refuse(rows, ncols):
        raise AssertionError("the order complex was eliminated")

    monkeypatch.setattr(posets_mod, "int_rank", refuse)
    assert Poset.chain(5).betti_numbers(3) == [1, 0, 0, 0]
    assert GATE.betti_numbers(2) == [1, 0, 0]
    assert Poset.chain(1).betti_numbers(1) == [1, 0]


def test_beta0_equals_component_count_randomized():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 7)
        p = Poset.from_covers(n, random_covers(rng, n, density=0.15))
        assert p.betti_numbers(0)[0] == len(p.connected_components())


def test_components_match_graph_search():
    # the union-find roots give the components of a graph search, order included
    for p in enumerate_posets(6, connected_only=False):
        assert p.connected_components() == searched_components(p), p
    chain, claw = Poset.chain(3), Poset.from_covers(4, [(1, 2), (1, 3), (1, 4)])
    for p in (
        chain.disjoint_sum(claw),
        claw.disjoint_sum(chain).disjoint_sum(Poset.antichain(2)),
        GATE.dual().disjoint_sum(chain.dual()),
        Poset.from_covers(7, [(5, 2), (2, 7), (6, 1), (3, 4)]),
    ):
        assert len(p.connected_components()) > 1
        assert p.connected_components() == searched_components(p), p


def test_isomorphism_chains():
    a = Poset.chain(3)
    b = Poset.from_covers(3, [(1, 3), (3, 2)])  # relabeled chain
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, Poset.antichain(3))


def crown(k):
    """Minima 1..k and maxima k+1..2k; i lies below k+i and k+(i mod k)+1."""
    return Poset.from_covers(
        2 * k, [(i, k + j) for i in range(1, k + 1) for j in (i, i % k + 1)]
    )


def test_isomorphism_witness_is_order_preserving():
    rng = random.Random(17)
    claw = Poset.from_covers(12, [(1, q) for q in range(2, 13)])
    chains = Poset.from_covers(12, [(i, i + 1) for i in range(1, 12, 2)])
    # refinement leaves the minima of both crowns in one class though they lie in two orbits
    crowns = crown(3).disjoint_sum(crown(2))
    cases = [Poset.from_covers(n, random_covers(rng, n)) for n in rng.choices(range(2, 7), k=10)]
    for p in cases + [claw, chains] + [crowns] * 8:
        perm = list(p.elements)
        rng.shuffle(perm)
        relabeled = {(perm[a - 1], perm[b - 1]) for a, b in p.covers}
        q = Poset.from_covers(p.n, relabeled)
        f = p.isomorphism_to(q)
        assert f is not None
        assert sorted(f.values()) == list(q.elements)
        assert {(f[a], f[b]) for a, b in p.relations} == q.relations
    # both are 2-regular on 12 elements, so refinement alone cannot tell them apart
    assert crown(6).isomorphism_to(crown(3).disjoint_sum(crown(3))) is None
    assert Poset.chain(3).isomorphism_to(Poset.chain(4)) is None


def test_fork_and_dual_fork_not_isomorphic():
    # brute-force oracle over all bijections on 5 elements
    fork = Poset.from_covers(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    dual_fork = Poset.from_covers(5, [(1, 3), (2, 3), (3, 4), (4, 5)])
    found = False
    for perm in permutations(range(1, 6)):
        f = {i: perm[i - 1] for i in range(1, 6)}
        image = {(f[a], f[b]) for a, b in fork.relations}
        if image == set(dual_fork.relations):
            found = True
            break
    assert not found
    assert not is_isomorphic(fork, dual_fork)


def test_isomorphism_size_cap():
    big = Poset.antichain(13)
    with pytest.raises(UnsupportedSizeError):
        big.isomorphism_to(Poset.antichain(13))


def test_json_roundtrip_and_dot():
    data = GATE.to_json()
    assert Poset.from_json(data) == GATE
    dot = GATE.to_dot()
    assert '"2" -> "3"' in dot and "rank=same" in dot


def test_json_size_cap():
    # an unbounded "n" used to run the closure over that many elements
    assert 20 <= JSON_SIZE_LIMIT <= 64
    with pytest.raises(UnsupportedSizeError, match="at most"):
        Poset.from_json({"n": JSON_SIZE_LIMIT + 1, "covers": []})
    chain = {"n": JSON_SIZE_LIMIT, "covers": [[i, i + 1] for i in range(1, JSON_SIZE_LIMIT)]}
    assert Poset.from_json(chain) == Poset.chain(JSON_SIZE_LIMIT)
    for fam in catalog():
        sizes = range(fam.n_range[0], fam.n_range[1] + 1) if fam.parametric else [None]
        for n in sizes:
            assert block(fam.id, n).poset.n <= JSON_SIZE_LIMIT


def test_closure_idempotent_randomized():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 7)
        covers = random_covers(rng, n)
        p = Poset.from_covers(n, covers)
        again = Poset.from_covers(n, p.relations)
        assert again.relations == p.relations
        assert p.relations == closure_oracle(n, covers)


def test_covers_roundtrip_randomized():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 7)
        p = Poset.from_covers(n, random_covers(rng, n))
        assert Poset.from_covers(n, p.covers) == p


def test_filter_iff_ideal_of_dual_randomized():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 6)
        p = Poset.from_covers(n, random_covers(rng, n))
        d = p.dual()
        sigma = d.relabeling
        for size in range(n + 1):
            for sub in combinations(range(1, n + 1), size):
                mapped = {sigma[x] for x in sub}
                assert p.is_filter(sub) == d.is_ideal(mapped)


def test_disjoint_sum_associative_up_to_iso():
    a, b, c = Poset.chain(2), GATE, Poset.antichain(2)
    left = a.disjoint_sum(b).disjoint_sum(c)
    right = a.disjoint_sum(b.disjoint_sum(c))
    assert is_isomorphic(left, right)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.data())
def test_dual_is_involution(n, data):
    pairs = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=8))
    p = Poset.from_covers(n, chosen)
    dd = p.dual().dual()
    assert dd.relations == p.relations
