import random
from collections import Counter
from fractions import Fraction

import pytest

from lieposet.algebras import (
    JacobiError,
    build_custom,
    build_g,
    build_gA,
    footnote_algebra,
    sl2,
)
from lieposet.linalg import ShapeError
from lieposet.posets import Poset
from lieposet.sweep import enumerate_posets
from lieposet.toral import catalog_blocks
from oracles import ad_matrix, poset_algebra

GATE = Poset.from_covers(4, [(1, 2), (2, 3), (2, 4)])
CHAIN2 = Poset.chain(2)


def test_g_gate_dimension_and_basis():
    g = build_g(GATE)
    assert g.dim == 9
    diag = [lab for lab in g.labels if lab[0] == "d"]
    strict = [lab[1] for lab in g.labels if lab[0] == "e"]
    assert len(diag) == 4
    assert set(strict) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)}


def test_poset_algebra_terms_and_table_match_the_oracle():
    # the terms read off the poset against the label-by-label table's compile:
    # the same multiset of terms, the same labels, and a derived table equal to it
    posets = enumerate_posets(7, connected_only=False) + [Poset.chain(n) for n in range(2, 17)]
    posets += [blk.poset for blk in catalog_blocks()]
    assert len(posets) == 2450 + 15 + 91
    for poset in posets:
        for alg in (build_g(poset), build_gA(poset)):
            ref = poset_algebra(poset, alg.kind)
            assert alg.labels == ref.labels
            assert alg.dphi_terms[0] == ref.dphi_terms[0] == 1
            terms = Counter(alg.dphi_terms[1])
            assert terms == Counter(ref.dphi_terms[1]), (poset.covers, alg.kind)
            assert alg.table == ref.table
            assert alg.strict_pairs == [lab[1] for lab in alg.labels if lab[0] == "e"]


def test_g_singleton_abelian():
    g = build_g(Poset.from_covers(1, []))
    assert g.dim == 1 and g.is_abelian()


def test_g_chain2_brackets():
    g = build_g(CHAIN2)
    assert g.dim == 3
    e11 = g.element_from_coords({(1, 1): 1})
    e22 = g.element_from_coords({(2, 2): 1})
    e12 = g.element_from_coords({(1, 2): 1})
    assert e11.bracket(e12).matrix_coords == {(1, 2): Fraction(1)}
    assert e22.bracket(e12).matrix_coords == {(1, 2): Fraction(-1)}
    assert e11.bracket(e22).is_zero()


def test_gA_gate_dimension():
    gA = build_gA(GATE)
    assert gA.dim == 8
    assert len([lab for lab in gA.labels if lab[0] == "h"]) == 3


def test_gA_chain2_basis_and_coords():
    gA = build_gA(CHAIN2)
    assert gA.dim == 2
    h = gA.basis_element(0)
    assert h.matrix_coords == {(1, 1): Fraction(1), (2, 2): Fraction(-1)}
    assert h.trace() == 0
    e = gA.element_from_coords({(1, 2): 1})
    assert h.bracket(e).matrix_coords == {(1, 2): Fraction(2)}


def test_gA_chain4_dimension():
    gA = build_gA(Poset.chain(4))
    assert gA.dim == 3 + 6


def test_dim_g_minus_dim_gA_is_one():
    rng = random.Random(0)
    for _ in range(10):
        n = rng.randint(2, 6)
        covers = [
            (p, q)
            for p in range(1, n + 1)
            for q in range(p + 1, n + 1)
            if rng.random() < 0.3
        ]
        p = Poset.from_covers(n, covers)
        assert build_g(p).dim == build_gA(p).dim + 1


def test_identity_is_central():
    g = build_g(GATE)
    ident = g.identity_element()
    assert ad_matrix(g, ident).is_zero()


def test_round_trip_matrix_coords():
    gA = build_gA(GATE)
    coords = {(1, 1): 2, (2, 2): -1, (3, 3): 1, (4, 4): -2, (1, 3): 5, (2, 4): -7}
    vec = gA.from_matrix_coords(coords)
    back = gA.to_matrix_coords(vec)
    assert back == {k: Fraction(v) for k, v in coords.items()}
    # both directions on g and g_A of every poset with n <= 5, and the
    # diagonal is the (p, p) part of the matrix coordinates
    rng = random.Random(23)
    for poset in enumerate_posets(5, connected_only=False):
        for alg in (build_g(poset), build_gA(poset)):
            vec = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim)]
            ints = [rng.randint(-4, 4) for _ in range(alg.dim)]
            coords = alg.to_matrix_coords(vec)
            assert alg.from_matrix_coords(coords) == vec, (poset.covers, alg.kind)
            for v in (vec, ints):
                diag = alg.to_matrix_coords(v)
                assert alg.diagonal(v) == [diag.get((p, p), 0) for p in poset.elements]
            coords = {pq: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for pq in poset.relations}
            ks = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in poset.elements]
            if alg.kind == "gA":
                ks[-1] -= sum(ks)  # trace zero
            coords |= {(p, p): k for p, k in zip(poset.elements, ks)}
            expected = {pq: c for pq, c in coords.items() if c}
            assert alg.to_matrix_coords(alg.from_matrix_coords(coords)) == expected


def test_from_matrix_coords_validates():
    gA = build_gA(GATE)
    with pytest.raises(ShapeError):
        gA.from_matrix_coords({(3, 4): 1})  # not a relation
    with pytest.raises(ShapeError):
        gA.from_matrix_coords({(1, 1): 1})  # nonzero trace


def test_trace_zero_invariant_of_brackets():
    g = build_g(GATE)
    rng = random.Random(1)
    for _ in range(10):
        a = g.element([rng.randint(-3, 3) for _ in range(g.dim)])
        b = g.element([rng.randint(-3, 3) for _ in range(g.dim)])
        assert a.bracket(b).trace() == 0


def test_bracket_alternating():
    g = build_g(GATE)
    rng = random.Random(2)
    a = g.element([rng.randint(-3, 3) for _ in range(g.dim)])
    assert a.bracket(a).is_zero()


def test_jacobi_poset_algebras_exhaustive():
    for poset in (GATE, Poset.chain(4), Poset.from_covers(5, [(1, 2), (2, 3), (3, 4), (3, 5)])):
        for alg in (build_g(poset), build_gA(poset)):
            assert alg.check_jacobi() is None


def test_custom_footnote_algebra():
    alg = footnote_algebra()
    assert alg.dim == 3
    e1, e2, e3 = (alg.basis_element(i) for i in range(3))
    assert e1.bracket(e2).vec == e2.vec
    assert e1.bracket(e3).vec == e3.vec
    assert e2.bracket(e3).is_zero()


def test_custom_abelian_and_sl2():
    abelian = build_custom(2, {})
    assert abelian.is_abelian()
    alg = sl2()
    h, e, f = (alg.basis_element(i) for i in range(3))
    assert e.bracket(f).vec == h.vec
    assert h.bracket(e).vec == (2 * e).vec


def test_custom_rejects_jacobi_failure():
    # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi on (1,2,3)
    with pytest.raises(JacobiError) as err:
        build_custom(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    assert err.value.triple == (1, 2, 3)
    # a nonzero self-bracket fails before any triple is checked
    with pytest.raises(JacobiError) as err:
        build_custom(3, {(2, 2): {1: 1}})
    assert err.value.triple == (2, 2, 2)


def test_custom_rejects_malformed_tables():
    for table in (
        {(1, 4): {1: 1}},  # key out of range
        {(1, 2): {4: 1}},  # output index out of range
        {(1, 2): {3: 1}, (2, 1): {3: 2}},  # [e2, e1] must be -[e1, e2]
    ):
        with pytest.raises(ShapeError):
            build_custom(3, table)


def test_ad_matrix_columns_are_brackets():
    gA = build_gA(GATE)
    rng = random.Random(3)
    a = gA.element([rng.randint(-2, 2) for _ in range(gA.dim)])
    m = ad_matrix(gA, a)
    for j in range(gA.dim):
        col = [m.rows[k][j] for k in range(gA.dim)]
        assert col == list(a.bracket(gA.basis_element(j)).vec)
