"""Transcription-level checks of dφ against hand-derived condition lists.

For a fixed one-form φ, the functional B ↦ φ([E_{p,q}, B]) is a linear
combination of matrix coordinates of B. These tests pin those
combinations coordinate by coordinate for two catalog pairs, which nails
the commutator sign conventions end to end. Every condition is the raw
functional, with no earlier condition substituted into it.
"""

from fractions import Fraction

from lieposet.algebras import build_g
from lieposet.forms import udo_partition
from lieposet.toral import block
from oracles import bracket, unit, vector_from_coords


def bracket_functional(poset, form, p, q):
    """Coefficients of B ↦ φ([E_{p,q}, B]) in matrix coordinates of B."""
    g = build_g(poset)
    x = vector_from_coords(g, {(p, q): 1})
    out = {}
    for j in range(g.dim):
        val = form.evaluate_coords(g.to_matrix_coords(bracket(g, x, unit(g.dim, j))))
        if val:
            lab = g.labels[j]
            key = (lab[1], lab[1]) if lab[0] == "d" else lab[1]
            out[key] = val
    return out


CHAIN4_CONDITIONS = {
    (1, 1): {(1, 4): 1},
    (2, 2): {(2, 3): 1, (2, 4): 1},
    (3, 3): {(2, 3): -1},
    (4, 4): {(1, 4): -1, (2, 4): -1},
    (1, 2): {(2, 4): 1},
    (1, 3): {(3, 4): 1},
    (3, 4): {(1, 3): -1, (2, 3): -1},
    (1, 4): {(4, 4): 1, (1, 1): -1},
    (2, 3): {(3, 3): 1, (2, 2): -1, (3, 4): 1},
    (2, 4): {(1, 2): -1, (4, 4): 1, (2, 2): -1},
}

SIX_A_CONDITIONS = {
    (3, 3): {(3, 6): 1},
    (4, 4): {(2, 4): -1},
    (2, 6): {(1, 2): -1},
    (3, 4): {(4, 6): 1},
    (3, 5): {(1, 3): -1},
    (2, 2): {(2, 4): 1, (2, 5): 1},
    (6, 6): {(1, 6): -1, (3, 6): -1},
    (1, 3): {(3, 5): 1, (3, 6): 1},
    (1, 4): {(4, 5): 1, (4, 6): 1},
    (4, 5): {(1, 4): -1, (2, 4): -1},
    (1, 1): {(1, 5): 1, (1, 6): 1},
    (5, 5): {(1, 5): -1, (2, 5): -1},
    (1, 2): {(2, 5): 1, (2, 6): 1},
    (4, 6): {(1, 4): -1, (3, 4): -1},
    (1, 5): {(5, 5): 1, (1, 1): -1},
    (1, 6): {(6, 6): 1, (1, 1): -1},
    (2, 4): {(4, 4): 1, (2, 2): -1, (4, 5): 1},
    (2, 5): {(5, 5): 1, (2, 2): -1, (1, 2): -1},
    (3, 6): {(6, 6): 1, (3, 3): -1, (1, 3): -1},
}


def test_chain4_condition_groups():
    blk = block("contact_chain4")
    for pair, expected in CHAIN4_CONDITIONS.items():
        got = bracket_functional(blk.poset, blk.form, *pair)
        assert got == {k: Fraction(v) for k, v in expected.items()}, pair


def test_six_a_condition_groups():
    blk = block("six_a")
    for pair, expected in SIX_A_CONDITIONS.items():
        got = bracket_functional(blk.poset, blk.form, *pair)
        assert got == {k: Fraction(v) for k, v in expected.items()}, pair


def test_parametric_partition_sets():
    # sink filter is the upper half, source ideal the lower half
    for fam in ("contact_pendant_high", "contact_pendant_low"):
        for n in (8, 9):
            blk = block(fam, n)
            u, d, o = udo_partition(blk.poset, blk.form)
            assert u == frozenset(range(n // 2 + 1, n + 1)), (fam, n)
            assert d == frozenset(range(1, n // 2 + 1)), (fam, n)
            assert o == frozenset()


def test_parametric_extremal_edges():
    for fam in ("contact_pendant_high", "contact_pendant_low"):
        for n in (8, 9):
            blk = block(fam, n)
            ext = blk.poset.extremal_data()
            assert ext.ext == {1, n - 1, n}
            assert ext.rel_e == {(1, n - 1), (1, n)}
