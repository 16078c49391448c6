import dataclasses
import json
from fractions import Fraction

import pytest

from lieposet.algebras import build_g, build_gA
from lieposet.forms import OneForm, index, is_contact_form, kernel
from lieposet.posets import Poset, canonical_key
from lieposet.sweep import reachable_contact_posets
from lieposet.toral import (
    ConstructionScript,
    GlueError,
    ScriptError,
    ScriptStep,
    block,
    catalog,
    disconnected_contact_check,
    ext_hasse_has_cycle,
    glue,
    index_delta_check,
    index_formula,
    is_contact_sequence,
    random_toral_script,
    run_script,
)
from oracles import in_kernel, replay_form, restrict_element
from lieposet.toral.blocks import catalog_blocks, verify_block
from lieposet.toral.gluing import CONTACT_RULES, _valid_identifications


def script_of(*specs):
    steps = []
    for i, spec in enumerate(specs):
        if i == 0:
            bid, n = spec
            steps.append(ScriptStep(block_id=bid, n=n))
        else:
            bid, n, rule, identify = spec
            steps.append(
                ScriptStep(
                    block_id=bid, n=n, rule=rule, identify=tuple(sorted(identify.items()))
                )
            )
    return ConstructionScript(steps)


def test_glue_a1_reproduces_two_chain_shape():
    chain3 = Poset.chain(3)
    claw = block("pendant_chain", 4)  # 1 < 2 < {3,4}
    result = glue(chain3, claw, "A1", {"a1": 3})
    expected = Poset.from_covers(
        6, [(1, 2), (2, 3), (4, 5), (5, 3), (5, 6)]
    )
    assert result.poset.is_isomorphic_to(expected)
    # the merged vertex keeps its target's identity through q_map
    assert result.q_map[3] == result.s_map[3]


def test_glue_validation_errors():
    chain3 = Poset.chain(3)
    claw = block("pendant_chain", 4)
    with pytest.raises(GlueError):
        glue(chain3, claw, "A1", {"a2": 3})  # wrong role set
    with pytest.raises(GlueError):
        glue(chain3, claw, "A1", {"a1": 1})  # target not maximal
    with pytest.raises(GlueError):
        glue(chain3, claw, "Z9", {"a1": 3})
    with pytest.raises(GlueError):
        glue(chain3, block("chain2"), "A2", {"a2": 3})  # chain2 has no a2
    with pytest.raises(GlueError):
        glue(chain3, claw, "B", {"a1": 3, "a2": 3})  # duplicate targets


def test_glue_d1_requires_related_target():
    claw_poset = block("pendant_chain", 4).poset  # min 1, maxima {3,4}
    chain2 = block("chain2")
    ok = glue(claw_poset, chain2, "D1", {"c": 1, "a1": 3})
    assert ok.poset.n == 4  # nothing fresh
    # unrelated pair demands rule E1, not D1
    two_claws = glue(claw_poset, block("pendant_chain", 4), "A1", {"a1": 3}).poset
    ext = two_claws.extremal_data()
    mins = sorted(ext.minimal)
    maxs = sorted(ext.maximal)
    x = mins[0]
    unrelated = [y for y in maxs if not two_claws.related(x, y)]
    related = [y for y in maxs if two_claws.related(x, y)]
    assert unrelated and related
    with pytest.raises(GlueError):
        glue(two_claws, chain2, "D1", {"c": x, "a1": unrelated[0]})
    with pytest.raises(GlueError):
        glue(two_claws, chain2, "E1", {"c": x, "a1": related[0]})
    assert glue(two_claws, chain2, "E1", {"c": x, "a1": unrelated[0]}).poset.n == two_claws.n


def test_glue_adds_no_cross_relations():
    # relations of the result are exactly the relabeled union: merged
    # vertices stay extremal on both sides so no new compositions appear
    import random

    rng = random.Random(0)
    for _ in range(12):
        script = random_toral_script(
            seed=rng.randint(0, 999), length=2, allow_contact=False, max_dim=45
        )
        q_poset = script.steps[0].block().poset
        blk = script.steps[1].block()
        rule = script.steps[1].rule
        identify = dict(script.steps[1].identify)
        result = glue(q_poset, blk, rule, identify)
        expected = {
            (result.q_map[p], result.q_map[q]) for p, q in q_poset.relations
        } | {(result.s_map[p], result.s_map[q]) for p, q in blk.poset.relations}
        assert result.poset.relations == frozenset(expected)


def test_glue_min_max_side_enforced():
    chain3 = Poset.chain(3)
    cup = block("pendant_chain_dual", 4)  # {1,2} < 3 < 4; c = 4 maximal
    with pytest.raises(GlueError):
        glue(chain3, cup, "C", {"c": 1})  # c maximal in block, 1 minimal in Q
    assert glue(chain3, cup, "C", {"c": 3}).poset.n == 6


def test_run_script_single_block():
    script = script_of(("contact_chain3", None))
    result = run_script(script)
    assert result.poset == Poset.chain(3)
    assert result.form.support == {(1, 1), (1, 3), (2, 3)}
    assert result.audits[0].added == [(1, 1), (1, 3), (2, 3)]


def test_run_script_rejects_late_contact_block():
    script = script_of(
        ("six_a", None),
        ("contact_chain3", None, "C", {"c": 1}),
    )
    with pytest.raises(ScriptError):
        run_script(script)
    # without form building the poset still glues
    assert run_script(script, build_form=False).poset.n == 8


def test_script_json_roundtrip():
    script = script_of(
        ("contact_fork", None),
        ("six_a", None, "A1", {"a1": 5}),
        ("chain2", None, "C", {"c": 1}),
    )
    data = json.loads(json.dumps(script.to_json()))
    back = ConstructionScript.from_json(data)
    assert back == script


def test_script_builds_each_block_once(monkeypatch):
    import lieposet.toral.gluing as gluing_mod

    scripts = [
        random_toral_script(seed=s, length=4, allow_contact=True, rule_pool=CONTACT_RULES)
        for s in range(4)
    ]
    scripts += [random_toral_script(seed=s, length=4) for s in range(4)]
    real_block = gluing_mod.block
    calls = []

    def counted(block_id, n=None):
        calls.append((block_id, n))
        return real_block(block_id, n)

    monkeypatch.setattr(gluing_mod, "block", counted)
    gluing_mod._row_block.cache_clear()
    first_used = []
    for script in scripts:
        contact = is_contact_sequence(script)
        result = run_script(script, build_form=contact)
        index_formula(result.poset, script)
        for step in script.steps:
            if (step.block_id, step.n) not in first_used:
                first_used.append((step.block_id, step.n))
    assert len(first_used) < sum(len(s.steps) for s in scripts)
    assert calls == first_used


def test_replaced_catalog_row_is_built_fresh(monkeypatch):
    import dataclasses

    import lieposet.toral.blocks as blocks_mod

    step = ScriptStep(block_id="six_a")
    cached = step.block()
    assert step.block() is cached
    row = blocks_mod._FAMILIES["six_a"]
    poset, support = row.build(None)
    other = support[:-1] + [(4, 6)]
    monkeypatch.setitem(
        blocks_mod._FAMILIES, "six_a", dataclasses.replace(row, build=lambda n: (poset, other))
    )
    fresh = step.block()
    assert fresh is not cached
    assert fresh.form.support == frozenset(other) != cached.form.support


def test_replay_twice_leaves_cached_block_unchanged():
    script = script_of(
        ("contact_fork", None),
        ("six_a", None, "A1", {"a1": 5}),
        ("chain2", None, "C", {"c": 1}),
    )
    first_blk = script.steps[0].block()
    coeffs_before = dict(first_blk.form.coeffs)
    relations_before = first_blk.poset.relations
    one = run_script(script)
    two = run_script(script)
    assert one.poset == two.poset
    assert one.form == two.form
    assert one.audit_json() == two.audit_json()
    assert script.steps[0].block() is first_blk
    assert first_blk.form.coeffs == coeffs_before
    assert first_blk.poset.relations == relations_before
    # the single-step replay hands back the block's form itself; it is
    # still equal to a fresh build of the row
    assert run_script(script_of(("contact_fork", None))).form == block("contact_fork").form


def test_is_contact_sequence():
    good = script_of(
        ("contact_fork", None),
        ("six_a", None, "A1", {"a1": 5}),
    )
    assert is_contact_sequence(good)
    no_contact = script_of(
        ("six_a", None),
        ("chain2", None, "C", {"c": 1}),
    )
    assert not is_contact_sequence(no_contact)
    bad_rule = script_of(
        ("contact_fork", None),
        ("six_a", None, "B", {"a1": 4, "a2": 5}),
    )
    assert not is_contact_sequence(bad_rule)


def test_d1_subtraction_keeps_unit_coefficients():
    # glue a chain2 across a related min-max pair: its edge summand is
    # already present, so one copy is subtracted
    script = script_of(
        ("contact_chain3", None),
        ("chain2", None, "D1", {"c": 1, "a1": 3}),
    )
    result = run_script(script)
    assert result.poset == Poset.chain(3)
    assert result.form.support == {(1, 1), (1, 3), (2, 3)}
    assert all(c == 1 for c in result.form.coeffs.values())
    assert result.audits[1].subtracted == [(1, 3)]


def test_f_rule_subtracts_both_edges():
    # six_a_dual has two minimal roles; glue onto a poset with two minima
    base = run_script(
        script_of(
            ("contact_fork_dual", None),
        ),
        build_form=False,
    ).poset
    blk = block("six_a_dual")
    ext = base.extremal_data()
    mins = sorted(ext.minimal)
    maxs = sorted(ext.maximal)
    result = glue(base, blk, "F", {"c": maxs[0], "a1": mins[0], "a2": mins[1]})
    assert result.poset.n == base.n + 3


def test_index_formula_frobenius_script():
    script = script_of(
        ("six_a", None),
        ("pendant_chain", 4, "A1", {"a1": 5}),
        ("chain2", None, "C", {"c": 1}),
    )
    result = run_script(script, build_form=False)
    assert index_formula(result.poset, script) == 0
    assert index(build_gA(result.poset), seed=3) == 0


def test_index_formula_contact_script():
    script = script_of(
        ("contact_chain4", None),
        ("six_a", None, "A1", {"a1": 4}),
    )
    result = run_script(script)
    assert index_formula(result.poset, script) == 1
    assert index(build_gA(result.poset), seed=3) == 1


def test_index_delta_rule_b():
    # rule B adds one to the index over a Frobenius block
    q = block("pendant_chain", 4).poset
    blk = block("pendant_chain", 4)
    expected, computed = index_delta_check(q, blk, "B", {"a1": 3, "a2": 4}, seed=5)
    assert expected == 1 and computed == 1


def test_index_delta_rule_e1():
    base = glue(
        block("pendant_chain", 4).poset, block("pendant_chain", 4), "A1", {"a1": 3}
    ).poset
    ext = base.extremal_data()
    x = sorted(ext.minimal)[0]
    z = next(y for y in sorted(ext.maximal) if not base.related(x, y))
    expected, computed = index_delta_check(
        base, block("chain2"), "E1", {"c": x, "a1": z}, seed=5
    )
    assert expected == 1 and computed == 1


def test_ext_hasse_cycle_example():
    poset = Poset.from_covers(
        7, [(1, 3), (1, 4), (3, 6), (4, 6), (4, 7), (2, 4), (2, 5)]
    )
    assert ext_hasse_has_cycle(poset)
    assert not ext_hasse_has_cycle(Poset.chain(4))
    assert not ext_hasse_has_cycle(block("six_a").poset)


def test_disconnected_contact_check():
    frob_a = block("six_a").poset
    frob_b = block("diamond_stack", 3).poset
    two = frob_a.disjoint_sum(frob_b)
    assert disconnected_contact_check(two)
    three = two.disjoint_sum(block("chain2").poset)
    assert not disconnected_contact_check(three)
    with_odd = frob_a.disjoint_sum(Poset.chain(3))
    assert not disconnected_contact_check(with_odd)
    with pytest.raises(ValueError):
        disconnected_contact_check(frob_a)


def test_random_script_reproducible():
    a = random_toral_script(seed=7, length=4, allow_contact=True)
    b = random_toral_script(seed=7, length=4, allow_contact=True)
    assert a == b
    # every generated step must replay cleanly
    assert run_script(a, build_form=False).poset.n >= a.steps[0].block().poset.n


def test_random_script_single_contact_block():
    script = random_toral_script(seed=1, length=1, allow_contact=True)
    assert len(script.steps) == 1
    assert script.contact_block_count() == 1


def test_random_frobenius_scripts_have_index_zero():
    for seed in range(6):
        script = random_toral_script(
            seed=seed, length=4, allow_contact=False, rule_pool=sorted({"A1", "A2", "C", "D1", "D2", "F"}),
            max_dim=50,
        )
        result = run_script(script, build_form=False)
        assert index(build_gA(result.poset), seed=seed) == 0
        assert index_formula(result.poset, script) == 0


def test_random_contact_scripts_build_contact_forms():
    for seed in range(4):
        script = random_toral_script(
            seed=seed,
            length=3,
            allow_contact=True,
            rule_pool=sorted({"A1", "A2", "C", "D1", "D2", "F"}),
            max_dim=50,
        )
        assert is_contact_sequence(script)
        result = run_script(script)
        gA = build_gA(result.poset)
        assert is_contact_form(gA, result.form, seed=seed).is_contact


def test_form_building_under_index_raising_rules():
    # rules outside the index-preserving set still build a sane form:
    # unit coefficients, one subtraction per merged related edge
    script = script_of(
        ("six_a", None),
        ("pendant_chain", 4, "B", {"a1": 5, "a2": 6}),
    )
    result = run_script(script)
    assert all(c == 1 for c in result.form.coeffs.values())
    assert result.audits[1].subtracted == []

    base_script = script_of(
        ("pendant_chain", 4, ),
        ("pendant_chain", 4, "A1", {"a1": 3}),
    )
    base = run_script(base_script)
    x = min(base.poset.minimal_elements)
    rel = [y for y in sorted(base.poset.maximal_elements) if base.poset.related(x, y)]
    unrel = [
        y for y in sorted(base.poset.maximal_elements) if not base.poset.related(x, y)
    ]
    g1 = ConstructionScript(
        list(base_script.steps)
        + [
            ScriptStep(
                block_id="pendant_chain",
                n=4,
                rule="G1",
                identify=tuple(sorted({"c": x, "a1": rel[0], "a2": unrel[0]}.items())),
            )
        ]
    )
    result = run_script(g1)
    assert all(c == 1 for c in result.form.coeffs.values())
    assert len(result.audits[2].subtracted) == 1


def test_restriction_property_of_built_kernels():
    # kernel elements restrict into each prefix and block kernel
    script = script_of(
        ("contact_chain4", None),
        ("six_a", None, "A1", {"a1": 4}),
        ("chain2", None, "C", {"c": 1}),
    )
    result = run_script(script)
    g_final = build_g(result.poset)
    rep = kernel(g_final, result.form)
    for x in rep.generators:
        coords = g_final.to_matrix_coords(x, rep.scale)
        for i, step in enumerate(script.steps):
            blk = step.block()
            g_blk = build_g(blk.poset)
            restricted = restrict_element(coords, result.audits[i].block_map, g_blk)
            assert in_kernel(g_blk, blk.form, restricted), (i, step.block_id)


def test_contact_script_outputs_have_acyclic_ext_hasse():
    for seed in range(8):
        script = random_toral_script(
            seed=seed,
            length=3,
            allow_contact=True,
            rule_pool=("A1", "A2", "C", "D1", "D2", "F"),
            max_dim=50,
        )
        result = run_script(script, build_form=False)
        assert not ext_hasse_has_cycle(result.poset), seed


def test_built_support_is_union_of_block_supports():
    # every added summand stays a summand: subtractions only cancel the
    # duplicate copy created by merging an extremal edge
    for seed in range(8):
        script = random_toral_script(
            seed=seed,
            length=4,
            allow_contact=True,
            rule_pool=("A1", "A2", "C", "D1", "D2", "F"),
            max_dim=50,
        )
        result = run_script(script)
        union = set()
        for audit in result.audits:
            union |= set(audit.added)
        assert result.form.support == frozenset(union), seed
        assert all(c == 1 for c in result.form.coeffs.values())


def test_diagonal_kill_kills_support_on_built_forms():
    # solutions of the diagonal-bracket conditions vanish on every strict
    # summand of the built form
    from fractions import Fraction

    from lieposet.forms import dphi_matrix
    from lieposet.linalg import RatMatrix, kernel_basis

    for seed in (2, 5, 11):
        script = random_toral_script(
            seed=seed,
            length=3,
            allow_contact=True,
            rule_pool=("A1", "A2", "C", "D1", "D2", "F"),
            max_dim=45,
        )
        result = run_script(script)
        g = build_g(result.poset)
        m = dphi_matrix(g, result.form)
        diag_rows = [
            m.rows[i] for i, lab in enumerate(g.labels) if lab[0] == "d"
        ]
        for vec in kernel_basis(RatMatrix(diag_rows)):
            coords = g.to_matrix_coords(vec)
            for pq in result.form.strict_support:
                assert coords.get(pq, Fraction(0)) == 0, (seed, pq)


def test_extremal_diagonal_equality_on_contact_blocks():
    # full-kernel elements match diagonal coordinates across related
    # extremal pairs
    from fractions import Fraction

    for bid, n in (
        ("contact_chain3", None),
        ("contact_fork", None),
        ("contact_fork_dual", None),
        ("contact_pendant_high", 6),
        ("contact_pendant_low", 7),
    ):
        blk = block(bid, n)
        g = build_g(blk.poset)
        rep = kernel(g, blk.form)
        ext = blk.poset.extremal_data()
        for coords in rep.coords:
            for p, q in ext.rel_e:
                assert coords.get((p, p), Fraction(0)) == coords.get(
                    (q, q), Fraction(0)
                ), (bid, (p, q))


def test_prefix_forms_satisfy_contact_conditions():
    # the built form passes the contact verifier at every prefix
    from lieposet.toral import verify_contact_toral_pair

    script = script_of(
        ("contact_fork", None),
        ("six_a", None, "A1", {"a1": 5}),
        ("chain2", None, "C", {"c": 1}),
    )
    for k in range(1, len(script.steps) + 1):
        prefix = run_script(ConstructionScript(script.steps[:k]))
        poset = prefix.poset
        rep = verify_contact_toral_pair(poset, prefix.form)
        for name in (
            "cf1_diagonal_at_one",
            "cf2_small",
            "cf3_updown_partition",
            "cf4_extremal_edges",
            "contact",
        ):
            assert rep.conditions[name], (poset.n, name, rep.failed())


def test_reeb_vector_off_cartan_is_the_contact_blocks_scaled():
    # R's off-Cartan matrix coordinates on a contact sequence are those of
    # its first block B, relabelled into the built poset and multiplied by
    # n / |B|; none of them lies on the built form's support
    def off_cartan(poset, form):
        contact = is_contact_form(build_gA(poset), form)
        coords = contact.kernel.to_coords(*contact.reeb)
        return {pq: c for pq, c in coords.items() if pq[0] != pq[1]}

    entries = {}
    for seed in range(300):
        script = random_toral_script(
            seed, 1 + seed % 7, allow_contact=True, rule_pool=CONTACT_RULES, max_dim=200
        )
        built = run_script(script)
        first = script.steps[0].block()
        to_built = built.audits[0].block_map
        scale = Fraction(built.poset.n, first.poset.n)
        got = off_cartan(built.poset, built.form)
        assert got == {
            (to_built[p], to_built[q]): c * scale
            for (p, q), c in off_cartan(first.poset, first.form).items()
        }, seed
        assert not got.keys() & built.form.support, seed
        entries.setdefault(first.id, set()).add(len(got))
    assert entries == {
        "contact_chain3": {1},
        "contact_chain4": {1},
        "contact_pendant_low": {1},
        "contact_pendant_low_dual": {1},
        "contact_fork": {2},
        "contact_fork_dual": {2},
        "contact_pendant_high": {2, 3},
    }


def test_reachable_glue_results_pass_the_validating_constructor():
    # glue trusts its union to be closed and p<q-labelled; check it here
    for poset in reachable_contact_posets(6).values():
        assert Poset(poset.n, poset.relations) == poset


def _reach_by_gluing_everything(max_n):
    """The reach as it was first written: glue every valid identification
    and drop the results above max_n only afterwards."""
    contact_start, toral_blocks = [], []
    for fam in catalog():
        sizes = range(fam.n_range[0], fam.n_range[1] + 1) if fam.parametric else [None]
        for n in sizes:
            blk = block(fam.id, n)
            if blk.poset.n <= max_n:
                (contact_start if fam.kind == "contact" else toral_blocks).append(blk)
    seen, frontier = {}, []
    for blk in contact_start:
        key = canonical_key(blk.poset)
        if key not in seen:
            seen[key] = blk.poset
            frontier.append(blk.poset)
    while frontier:
        poset = frontier.pop()
        for blk in toral_blocks:
            for rule in sorted(CONTACT_RULES):
                for identify in _valid_identifications(poset, blk, rule):
                    result = glue(poset, blk, rule, identify).poset
                    if result.n > max_n:
                        continue
                    key = canonical_key(result)
                    if key not in seen:
                        seen[key] = result
                        frontier.append(result)
    return seen


def test_reach_size_prune_matches_gluing_everything():
    # the reach skips a (poset, block, rule) triple whose glued size
    # exceeds max_n before listing identifications; keys and the kept
    # representatives must be those of gluing everything
    for max_n in range(1, 7):
        pruned = reachable_contact_posets(max_n)
        oracle = _reach_by_gluing_everything(max_n)
        assert pruned.keys() == oracle.keys(), max_n
        for key, poset in oracle.items():
            assert pruned[key].relations == poset.relations, (max_n, key)


def test_reach_counts():
    counts = [len(reachable_contact_posets(n)) for n in range(1, 8)]
    assert counts == [0, 0, 1, 4, 15, 60, 253]


def test_valid_identifications_match_the_validator():
    # the listing checks only relatedness; every other condition holds by
    # construction, so it must list exactly the assignments glue accepts
    from itertools import product

    from lieposet.toral.gluing import _RANDOM_TORAL_POOL, RULES, _validate_glue

    cases = nonempty = 0
    for poset in reachable_contact_posets(5).values():
        for bid, n in _RANDOM_TORAL_POOL:
            blk = block(bid, n)
            for rule in sorted(RULES):
                roles = sorted(RULES[rule].identified)
                accepted = []
                for targets in product(poset.elements, repeat=len(roles)):
                    identify = dict(zip(roles, targets))
                    try:
                        _validate_glue(poset, blk, rule, identify)
                    except GlueError:
                        continue
                    accepted.append(identify)
                listed = _valid_identifications(poset, blk, rule)
                assert listed == accepted, (poset, bid, n, rule)
                cases += 1
                nonempty += bool(listed)
    assert (cases, nonempty) == (2520, 1387)


def _forward_to_final(audits, i):
    """Step i's labels pushed through every later relabel, one at a time."""
    acc = {p: p for p in audits[i].poset.elements}
    for later in audits[i + 1:]:
        acc = {k: later.relabel[v] for k, v in acc.items()}
    return acc


def test_to_final_is_the_composed_relabeling():
    for seed in range(240):
        contact = seed % 2 == 0
        script = random_toral_script(
            seed=seed,
            length=1 + seed % 6,
            allow_contact=contact,
            rule_pool=CONTACT_RULES if contact else None,
            max_dim=60,
        )
        result = run_script(script, build_form=contact)
        audits = result.audits
        assert audits[-1].to_final == {p: p for p in result.poset.elements}, seed
        for i, audit in enumerate(audits):
            assert audit.to_final == _forward_to_final(audits, i), (seed, i)
            mapped = {(audit.to_final[p], audit.to_final[q]) for p, q in audit.poset.relations}
            assert mapped <= result.poset.relations, (seed, i)


def _seeded_scripts():
    """Seeds 0-199 of ``random_toral_script``, lengths 1-7: even seeds are
    contact sequences over ``CONTACT_RULES``, odd ones toral scripts."""
    for seed in range(200):
        contact = seed % 2 == 0
        yield random_toral_script(
            seed, 1 + seed % 7, allow_contact=contact, rule_pool=CONTACT_RULES if contact else None
        )


def test_built_forms_and_audits_match_the_step_composition_oracle():
    lengths = set()
    for script in _seeded_scripts():
        built = run_script(script)
        steps = replay_form(script)
        lengths.add(len(steps))
        prefix_forms = [
            run_script(ConstructionScript(script.steps[:k])).form for k in range(1, len(steps) + 1)
        ]
        assert prefix_forms == [form for form, _, _ in steps]
        assert repr(built.form) == repr(steps[-1][0])
        for audit, (_, added, subtracted) in zip(built.audits, steps, strict=True):
            final = audit.to_final
            assert audit.added == [(final[p], final[q]) for p, q in added]
            assert audit.subtracted == [(final[p], final[q]) for p, q in subtracted]
    assert lengths == set(range(1, 8))


def test_coefficient_other_than_one_raises_the_oracle_message(monkeypatch):
    from lieposet.toral import gluing

    catalog_block = gluing._catalog_block

    def heavy_chain2(block_id, n):
        blk = catalog_block(block_id, n)
        if block_id != "chain2":
            return blk
        return dataclasses.replace(blk, form=OneForm(blk.poset, {(1, 2): 2, (1, 1): Fraction(1, 2)}))

    monkeypatch.setattr(gluing, "_catalog_block", heavy_chain2)
    # D1 merges the edge (1, 3): 1 + 2 - 1 = 2 there, and 1 + 1/2 at (1, 1)
    script = script_of(("contact_chain3", None), ("chain2", None, "D1", {"c": 1, "a1": 3}))
    with pytest.raises(ScriptError) as built:
        run_script(script)
    with pytest.raises(ScriptError) as oracle:
        replay_form(script)
    assert str(built.value) == str(oracle.value)
    assert str(built.value) == (
        "built form left coefficients other than one: {(1, 1): '3/2', (1, 3): '2'}"
    )


def _fraction_copy(form):
    """The form with every coefficient held as a Fraction."""
    copy = object.__new__(OneForm)
    copy.poset, copy.coeffs = form.poset, {pq: Fraction(c) for pq, c in form.coeffs.items()}
    return copy


def _assert_prints_as_fractions(form):
    copy = _fraction_copy(form)
    text = json.dumps(form.to_json())
    assert repr(form) == repr(copy) and text == json.dumps(copy.to_json())
    back = OneForm.from_json(form.poset, json.loads(text))
    assert back == form == copy and repr(back) == repr(copy)
    assert json.dumps(back.to_json()) == text
    for c in [*form.coeffs.values(), *back.coeffs.values()]:
        assert type(c) is (int if c.denominator == 1 else Fraction), c


def test_forms_hold_integral_coefficients_as_ints():
    pairs = 0
    for blk in catalog_blocks((5, 14)):  # the verify-catalog pairs
        _assert_prints_as_fractions(blk.form)
        copy = dataclasses.replace(blk, form=_fraction_copy(blk.form))
        assert json.dumps(verify_block(blk).to_json()) == json.dumps(verify_block(copy).to_json())
        pairs += 1
    assert pairs == 81
    for script in _seeded_scripts():
        _assert_prints_as_fractions(run_script(script).form)
    chain = Poset.chain(3)
    form = OneForm(chain, {(1, 1): Fraction(1, 2), (1, 2): Fraction(4, 2), (1, 3): "-3", (2, 3): 1.0})
    assert form.coeffs == {(1, 1): Fraction(1, 2), (1, 2): 2, (1, 3): -3, (2, 3): 1}
    assert type(form.coefficient(1, 1)) is Fraction
    _assert_prints_as_fractions(form)
    summed = OneForm.from_support(chain, [(1, 2), (1, 2), (2, 3)], {(2, 3): Fraction(6, 3)})
    assert summed.coeffs == {(1, 2): 2, (2, 3): 2}
    _assert_prints_as_fractions(summed)
