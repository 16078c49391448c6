import functools
import random
from fractions import Fraction

import pytest

from lieposet import forms
from lieposet.algebras import build_g, build_gA
from lieposet.cli import analyze
from lieposet.forms import OneForm, is_contact_form_volume, kernel
from lieposet.linalg import clear_denominators, int_rank
from lieposet.posets import Poset
from lieposet.toral import (
    BlockError,
    ConstructionScript,
    ScriptStep,
    block,
    catalog,
    catalog_blocks,
    derive_small_frobenius_form,
    family,
    is_contact_sequence,
    verify_contact_toral_pair,
    verify_toral_pair,
)
from lieposet.sweep import enumerate_posets
from lieposet.toral import blocks
from lieposet.toral.blocks import search_contact_form, verify_block
from oracles import in_kernel


def test_catalog_listing():
    fams = catalog()
    ids = {f.id for f in fams}
    assert {"chain2", "six_a", "contact_chain3", "contact_pendant_high"} <= ids
    toral = [f for f in fams if f.kind == "toral"]
    contact = [f for f in fams if f.kind == "contact"]
    assert len(toral) == 15 and len(contact) == 8


def test_contact_duals_are_order_duals_of_their_bases():
    # p -> n + 1 - p on the relations and the strict support, E*_{11} kept at 1
    pendant = range(5, 15)
    for base_id, sizes in (("contact_fork", [None]), ("contact_pendant_high", pendant),
                           ("contact_pendant_low", pendant)):
        assert family(base_id + "_dual", sizes[0]).n_range == family(base_id, sizes[0]).n_range
        for n in sizes:
            base, dual = block(base_id, n), block(base_id + "_dual", n)
            m = base.poset.n + 1
            assert dual.poset.relations == {(m - q, m - p) for p, q in base.poset.relations}
            assert dual.poset.relabeling == {p: p for p in dual.poset.elements}
            assert dual.form.support == {(1, 1)} | {(m - q, m - p) for p, q in base.form.strict_support}
            assert dual.roles["c"] == m - base.roles["c"]
            assert {dual.roles["a1"], dual.roles["a2"]} == {m - base.roles["a1"], m - base.roles["a2"]}
    fork_dual = block("contact_fork_dual")  # the row it replaced, as data
    assert fork_dual.poset == Poset.from_covers(5, [(1, 3), (2, 3), (3, 4), (4, 5)])
    assert fork_dual.form.support == {(1, 1), (1, 4), (1, 5), (2, 5), (3, 4)}


def test_block_parameter_validation():
    bad = [
        ("nope", None),  # unknown id
        ("contact_pendant_high", None),  # missing n
        ("contact_pendant_high", 4),  # below range
        ("pendant_chain", 99),  # above range
        ("chain2", 9),  # size given for a fixed block
    ]
    for block_id, n in bad:
        with pytest.raises(BlockError) as from_family:
            family(block_id, n)
        with pytest.raises(BlockError) as from_block:
            block(block_id, n)
        assert str(from_block.value) == str(from_family.value)
        script = ConstructionScript([
            ScriptStep(block_id="contact_chain3"),
            ScriptStep(block_id=block_id, n=n, rule="A1", identify=(("a1", 3),)),
        ])
        with pytest.raises(BlockError):
            is_contact_sequence(script)


def test_family_rows_give_the_block_kind():
    # one table: the kind read off a row is the kind of the built block
    for fam in catalog():
        assert fam.parametric == (fam.n_range is not None)
        sizes = range(fam.n_range[0], fam.n_range[1] + 1) if fam.parametric else [None]
        for n in sizes:
            assert family(fam.id, n) is fam
            assert family(fam.id, n).kind == block(fam.id, n).kind, (fam.id, n)


def test_contact_chain3_block():
    b = block("contact_chain3")
    assert b.poset.relations == {(1, 2), (2, 3), (1, 3)}
    assert b.form.support == {(1, 1), (1, 3), (2, 3)}
    assert b.roles == {"c": 1, "a1": 3}


def test_six_a_block_pair_data():
    b = block("six_a")
    assert b.poset.covers == {(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 6)}
    assert b.form.support == {(1, 5), (1, 6), (2, 4), (2, 5), (3, 6)}
    assert b.roles == {"c": 1, "a1": 5, "a2": 6}


def test_contact_pendant_high_6_instance():
    b = block("contact_pendant_high", 6)
    assert b.poset.covers == {(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)}
    assert b.form.support == {
        (1, 1),
        (1, 5),
        (2, 4),
        (1, 6),
        (2, 6),
        (3, 6),
    }


def test_contact_pendant_high_8_covers():
    b = block("contact_pendant_high", 8)
    assert b.poset.covers == {(i, i + 1) for i in range(1, 7)} | {(5, 8)}


def test_roles_sides():
    assert block("six_a_dual").roles == {"c": 6, "a1": 1, "a2": 2}
    b = block("contact_fork_dual")
    assert b.roles == {"c": 5, "a1": 1, "a2": 2}
    assert not b.c_is_minimal


def test_all_fixed_blocks_verify():
    for fam in catalog():
        if fam.parametric:
            continue
        rep = verify_block(block(fam.id))
        assert rep.all_pass, (fam.id, rep.failed())


@pytest.mark.parametrize("n", range(5, 15))
def test_contact_parametric_families_verify(n):
    for fam_id in (
        "contact_pendant_high",
        "contact_pendant_high_dual",
        "contact_pendant_low",
        "contact_pendant_low_dual",
    ):
        rep = verify_block(block(fam_id, n))
        assert rep.all_pass, (fam_id, n, rep.failed())


@pytest.mark.parametrize(
    "fam_id,ns",
    [
        ("pendant_chain", range(4, 15)),
        ("pendant_chain_dual", range(4, 15)),
        ("diamond_stack", range(1, 8)),
        ("diamond_stack_dual", range(1, 8)),
    ],
)
def test_toral_parametric_families_verify(fam_id, ns):
    for n in ns:
        rep = verify_block(block(fam_id, n))
        assert rep.all_pass, (fam_id, n, rep.failed())


@pytest.mark.parametrize(
    "fam_id,ns",
    [
        ("pendant_chain", range(4, 9)),
        ("pendant_chain_dual", range(4, 8)),
        ("diamond_stack", range(1, 4)),
        ("diamond_stack_dual", range(1, 4)),
        ("chain2", [None]),
        ("tree6", [None]),
        ("tree6_dual", [None]),
    ],
)
def test_catalog_forms_match_search(fam_id, ns):
    for n in ns:
        poset = block(fam_id, n).poset
        derived = derive_small_frobenius_form(poset)
        assert derived is not None
        assert block(fam_id, n).form.support == derived.support, (fam_id, n)


def test_six_block_kernel_conditions():
    # ker_A trivial and the full kernel has equal diagonal, zero strict coords
    for bid in (
        "six_a",
        "six_a_dual",
        "six_b",
        "six_b_dual",
        "six_c",
        "six_c_dual",
        "six_d",
        "six_d_dual",
    ):
        b = block(bid)
        g = build_g(b.poset)
        gA = build_gA(b.poset)
        assert kernel(gA, b.form).dimension == 0
        full = kernel(g, b.form)
        assert full.dimension == 1
        coords = full.coords[0]
        assert all(p == q for p, q in coords)
        diag = [coords[(p, p)] for p in b.poset.elements]
        assert all(v == diag[0] for v in diag)
        assert in_kernel(g, b.form, g.identity_element())


def test_contact_kernel_generators_have_diagonal_head():
    # any nonzero trace-zero kernel element evaluates the form at (1,1)
    for bid, n in (
        ("contact_chain3", None),
        ("contact_chain4", None),
        ("contact_fork", None),
        ("contact_fork_dual", None),
        ("contact_pendant_high", 7),
        ("contact_pendant_low", 8),
    ):
        b = block(bid, n)
        gA = build_gA(b.poset)
        rep = kernel(gA, b.form)
        assert rep.dimension == 1
        coords = rep.generator_coords()
        assert coords.get((1, 1), Fraction(0)) != 0


def test_diagonal_kill_forces_support_zero():
    # elements killed by all diagonal brackets vanish on the form support
    for bid, n in (("contact_chain4", None), ("contact_pendant_high", 6)):
        b = block(bid, n)
        g = build_g(b.poset)
        rows = []
        from lieposet.forms import dphi_matrix

        m = dphi_matrix(g, b.form)
        diag_idx = [i for i, lab in enumerate(g.labels) if lab[0] == "d"]
        rows = [m.rows[i] for i in diag_idx]
        from lieposet.linalg import RatMatrix, kernel_basis

        for vec in kernel_basis(RatMatrix(rows)):
            coords = g.to_matrix_coords(vec)
            for pq in b.form.strict_support:
                assert coords.get(pq, Fraction(0)) == 0


def test_verify_rejects_bad_pairs():
    chain3 = Poset.chain(3)
    phi = OneForm.from_support(chain3, [(1, 3), (2, 3)])
    rep = verify_toral_pair(chain3, phi)
    assert rep.conditions["f1_small"]
    assert rep.conditions["f2_updown_partition"]
    assert not rep.conditions["frobenius"]  # odd dimension
    anti = Poset.antichain(2)
    rep = verify_toral_pair(anti, OneForm(anti, {}))
    assert rep.conditions["p1_extremal_count"]
    assert not rep.conditions["f1_small"]


def test_verify_contact_rejects_low_height():
    # connected posets of height one admit no contact toral-pair
    v = Poset.from_covers(3, [(1, 2), (1, 3)])
    best = None
    from itertools import combinations

    for support in combinations(sorted(v.relations), 2):
        phi = OneForm.from_support(v, list(support) + [(1, 1)])
        rep = verify_contact_toral_pair(v, phi)
        if rep.all_pass:
            best = support
    assert best is None


def test_verify_contact_flags_missing_diagonal():
    chain3 = Poset.chain(3)
    phi = OneForm.from_support(chain3, [(1, 3), (2, 3)])
    rep = verify_contact_toral_pair(chain3, phi)
    assert not rep.conditions["cf1_diagonal_at_one"]
    phi2 = OneForm.from_support(chain3, [(2, 2), (1, 3), (2, 3)])
    rep2 = verify_contact_toral_pair(chain3, phi2)
    assert not rep2.conditions["cf1_diagonal_at_one"]


def test_derive_form_none_for_odd_dimension():
    assert derive_small_frobenius_form(Poset.chain(3)) is None


def test_tree_form_reduction_matches_generic_kernel():
    # the search's reduced corank equals the kernel dimension computed
    # through the full algebra, on 0/1 spanning-tree forms
    import random

    from lieposet.forms import is_small, udo_partition
    from lieposet.toral.blocks import _tree_form_corank

    rng = random.Random(21)
    checked = 0
    while checked < 30:
        n = rng.randint(3, 6)
        covers = [
            (p, q)
            for p in range(1, n + 1)
            for q in range(p + 1, n + 1)
            if rng.random() < 0.4
        ]
        poset = Poset.from_covers(n, covers)
        rels = sorted(poset.relations)
        if len(rels) < n - 1:
            continue
        support = rng.sample(rels, n - 1)
        phi = OneForm.from_support(poset, support)
        if not is_small(poset, phi):
            continue
        u, d, o = udo_partition(poset, phi)
        if o or not poset.is_filter(u) or not poset.is_ideal(d):
            continue
        reduced = _tree_form_corank(rels, set(support))
        exact = kernel(build_gA(poset), phi).dimension
        assert reduced == exact, (poset.covers, support)
        checked += 1


def test_jacobi_exhaustive_at_dim_98():
    blk = block("pendant_chain", 14)
    gA = build_gA(blk.poset)
    assert gA.dim == 98
    assert gA.check_jacobi() is None


def test_block_order_complexes_are_contractible():
    # blocks have a unique extremal element on one side, so their order
    # complex is a cone
    for fam in catalog():
        blk = block(fam.id, 5 if fam.parametric else None)
        if blk.poset.n > 8:
            continue
        ext = blk.poset.extremal_data()
        assert len(ext.rel_e) - len(ext.ext) + 1 == 0
        assert blk.poset.betti_numbers(2) == [1, 0, 0], fam.id


@functools.lru_cache(maxsize=None)
def _searched_contact_forms_n6():
    """(poset, form) for every connected poset with n <= 6 the exact search finds a form on."""
    found = ((poset, search_contact_form(poset)) for poset in enumerate_posets(6))
    return [(poset, form) for poset, form in found if form is not None]


def test_searched_contact_forms_pass_the_pair_verifier():
    # The search asks nothing of the poset beyond connectedness, so a
    # poset with four or more extremal elements fails only cp2 (a block
    # condition on the poset); every form condition must hold.
    found = _searched_contact_forms_n6()
    for poset, form in found:
        report = verify_contact_toral_pair(poset, form)
        failed = set(report.failed())
        if len(poset.extremal_data().ext) > 3:
            failed.discard("cp2_extremal_count")
        assert not failed, (poset, form, report.failed())
    assert found


def test_searched_contact_forms_pass_the_volume_oracle():
    """The exact search and the bordered-determinant oracle agree up to n = 6.

    Of the 297 connected posets with n <= 6, the search finds a contact
    form on exactly 73, and each passes ``is_contact_form_volume`` too.
    73 is the float-free contact total of ROADMAP item 1: the seed-0
    sweep still reports 82 (``test_sweep_n6_seed0_totals``), 9 of them
    round-off false positives of the float zeros in its kernel vectors.
    """
    found = _searched_contact_forms_n6()
    assert len(found) == 73
    for poset, form in found:
        assert is_contact_form_volume(build_gA(poset), form), (poset.covers, form)


def test_searched_frobenius_forms_have_trivial_exact_kernel():
    """The Frobenius search and the exact kernel agree up to n = 6.

    Of the 297 connected posets with n <= 6, the search finds a form on
    exactly 71, and each has a zero-dimensional exact kernel on g_A.
    """
    found = [(p, derive_small_frobenius_form(p)) for p in enumerate_posets(6)]
    found = [(poset, form) for poset, form in found if form is not None]
    assert len(found) == 71
    for poset, form in found:
        assert kernel(build_gA(poset), form).dimension == 0, (poset.covers, form)


def test_contact_form_search_samples_nothing(monkeypatch):
    # the acceptor is exact, so the search needs no sampled index gate
    def sampled(*args, **kwargs):
        raise AssertionError("search_contact_form called the sampled index")

    monkeypatch.setattr(blocks, "index", sampled, raising=False)
    monkeypatch.setattr(forms, "index", sampled)
    checked = 0
    for blk in catalog_blocks((1, 8)):
        if blk.kind == "contact" and blk.poset.n <= 8:
            assert search_contact_form(blk.poset) is not None, (blk.id, blk.n)
            checked += 1
    assert checked == 20


def _pair_report_matches_separate_calls(poset, form):
    """The folded toral pair report against the three separate calls."""
    gA = build_gA(poset)
    rep = verify_toral_pair(poset, form)
    assert repr(rep.details["kernel_trace_zero"]) == repr(kernel(gA, form))
    try:
        binary = forms.is_binary_spectrum(gA, form)
        expected = [str(c) for c in forms.spectrum(gA, form)]
    except forms.NotFrobeniusError:
        binary, expected = False, None
    assert rep.conditions["p2_binary_spectrum"] == binary
    assert analyze(poset, form).get("spectrum") == expected
    return rep.conditions["frobenius"]


def test_folded_pair_report_matches_kernel_and_spectrum():
    # one principal_or_kernel stands in for kernel, is_binary_spectrum and
    # spectrum on every toral catalog block and on seeded random forms
    for blk in catalog_blocks():
        if blk.kind == "toral":
            assert _pair_report_matches_separate_calls(blk.poset, blk.form), (blk.id, blk.n)
    rng = random.Random(3)
    singular = 0
    for poset in enumerate_posets(5):
        pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
        support = [pq for pq in pairs if rng.random() < 0.4]
        form = OneForm(poset, {pq: rng.randint(-3, 3) for pq in support})
        singular += not _pair_report_matches_separate_calls(poset, form)
    assert singular == 57  # and 2 Frobenius forms


def test_contact_pair_report_builds_kernel_and_reeb_on_read(monkeypatch):
    # the bordered rank decides; is_contact_form's kernel and Reeb vector are
    # built on first read and must equal an eager is_contact_form's
    from lieposet import linalg

    echelon = linalg._int_echelon
    runs = []

    def counted(*args, **kwargs):
        runs.append(args[1])
        return echelon(*args, **kwargs)

    monkeypatch.setattr(linalg, "_int_echelon", counted)
    cases = []
    for blk in catalog_blocks((1, 14)):
        if blk.kind == "contact":
            runs.clear()
            rep = verify_block(blk)
            assert rep.all_pass and runs == [], blk.id
            rep.to_json()
            rep.to_json()
            assert len(runs) == 1, blk.id
            cases.append((blk.poset, blk.form))
    rng = random.Random(41)
    for poset in enumerate_posets(6):
        pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
        for _ in range(2):
            cases.append((poset, OneForm(poset, {pq: rng.randint(-2, 2) for pq in pairs})))
    reasons = {}
    for poset, form in cases:
        rep = verify_contact_toral_pair(poset, form)
        res = forms.is_contact_form(build_gA(poset), form)
        assert rep.conditions["contact"] == res.is_contact, (poset.covers, form)
        expected = {"partition": rep.details["partition"], "contact": res.reason}
        if res.kernel is not None:
            expected["kernel_trace_zero"] = res.kernel.to_json()
        if res.reeb is not None:
            expected["reeb"] = res.reeb_json()
        assert rep.to_json()["details"] == expected
        assert rep.contact_result.reeb_json() == expected.get("reeb")
        reason = "kernel dimension > 1" if res.reason.startswith("kernel") else res.reason
        reasons[reason] = reasons.get(reason, 0) + 1
    assert reasons == {  # 44 catalog blocks and 73 random forms are contact
        "contact": 117,
        "even dimension": 312,
        "form vanishes on the kernel generator": 60,
        "kernel dimension > 1": 149,
    }


def test_contact_pair_report_builds_dphi_once(monkeypatch):
    # the bordered rank and the report read on to_json share one dφ assembly,
    # on either verdict; even dimension builds none
    dphi_rows = forms._dphi_rows
    builds = []

    def counted(*args):
        builds.append(args)
        return dphi_rows(*args)

    monkeypatch.setattr(forms, "_dphi_rows", counted)
    monkeypatch.setattr(blocks, "_dphi_rows", counted)
    cases = [(b.poset, b.form) for b in catalog_blocks((1, 14)) if b.kind == "contact"]
    rng = random.Random(43)
    for poset in enumerate_posets(6):
        pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
        cases.append((poset, OneForm(poset, {pq: rng.randint(-2, 2) for pq in pairs})))
    verdicts = {}
    for poset, form in cases:
        builds.clear()
        rep = verify_contact_toral_pair(poset, form)
        rep.to_json()
        rep.to_json()
        odd = build_gA(poset).dim % 2
        assert len(builds) == odd, poset.covers
        key = (odd, rep.conditions["contact"])
        verdicts[key] = verdicts.get(key, 0) + 1
    # (odd dimension, contact): 44 catalog blocks and 30 random forms are contact
    assert verdicts == {(0, False): 156, (1, False): 111, (1, True): 74}


def test_kernel_full_read_off_g_A_matches_g_elimination():
    # the pair check reads ker dφ on g, and its coordinates, off its one g_A
    # elimination without building g; an exact kernel on g, checked against
    # the Fraction dφ assembly, is the oracle
    cases = [(b.poset, b.form) for b in catalog_blocks((1, 14)) if b.kind == "toral"]
    rng = random.Random(16)
    for poset in enumerate_posets(6):
        pairs = sorted(poset.relations) + [(p, p) for p in poset.elements]
        for _ in range(2):
            cases.append((poset, OneForm(poset, {pq: rng.randint(-2, 2) for pq in pairs})))
    singular = 0
    for poset, form in cases:
        rep = verify_toral_pair(poset, form)
        full = rep.details["kernel_full"]
        g = build_g(poset)
        dim = kernel(g, form).dimension
        assert full.dimension == len(full.vectors) == dim, (poset.covers, form)
        assert all(in_kernel(g, form, v) for v in full.vectors)
        assert full.coords == [g.to_matrix_coords(v) for v in full.vectors]
        rows = [
            {j: x for j, x in enumerate(clear_denominators([Fraction(x) for x in v])[1]) if x}
            for v in full.vectors
        ]
        assert int_rank(rows, g.dim) == dim
        assert rep.conditions["f4_kernel_shape"] == (dim == 1)
        singular += dim > 1
    assert (len(cases), singular) == (47 + 594, 538)  # 56 random forms are Frobenius
