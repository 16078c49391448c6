import gc
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lieposet
from lieposet import linalg, sweep
from lieposet.algebras import build_gA
from lieposet.cli import SEARCH_SIZE_CAP, analyze, main
from lieposet.forms import INDEX_TRIALS, OneForm, index, index_failure_bound, is_contact_form
from lieposet.posets import JSON_SIZE_LIMIT, Poset, _canonical_labelling
from lieposet.sweep import (
    canonical_key,
    classify_contact,
    conjecture_sweep,
    enumerate_posets,
    iter_posets,
)
from lieposet.toral import (
    ConstructionScript,
    block,
    catalog,
    catalog_blocks,
    run_script,
    verify_contact_toral_pair,
)
from lieposet.toral.gluing import RULES
from oracles import legacy_classify_contact, listed_sweep

GATE = {"n": 4, "covers": [[1, 2], [2, 3], [2, 4]]}
CYCLE7 = {
    "n": 7,
    "covers": [[1, 3], [1, 4], [3, 6], [4, 6], [4, 7], [2, 4], [2, 5]],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_gate(tmp_path, capsys):
    path = write(tmp_path, "gate.json", GATE)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["algebra"]["dim_gA"] == 8
    assert report["poset"]["ext"] == [1, 3, 4]
    text = capsys.readouterr().out
    assert "dim gA=8" in text


def test_analyze_cycle_poset_not_contact(tmp_path):
    path = write(tmp_path, "cycle.json", CYCLE7)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["contact"]["verdict"] is False
    assert "cycle" in report["contact"]["certificate"]["reason"]


def test_analyze_singleton(tmp_path):
    path = write(tmp_path, "single.json", {"n": 1, "covers": []})
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["index"]["value"] == 0
    assert report["algebra"]["dim_gA"] == 0
    # g_A = 0 is Frobenius, and the search finds the empty form
    assert report["frobenius_search"] == {"verdict": True, "certificate": {"support": []}}


def test_analyze_index_failure_bound(tmp_path):
    # dim g_A of the 3-chain is 5, so each trial overshoots with probability at most 2/p
    path = write(tmp_path, "chain3.json", {"n": 3, "covers": [[1, 2], [2, 3]]})
    out = tmp_path / "report.json"
    p = (1 << 61) - 1
    assert main(["analyze", path, "--json-out", str(out)]) == 0
    entry = json.loads(out.read_text())["index"]
    assert entry == {"value": 1, "trials": 2, "seed": 0, "failure_bound": f"4/{p * p}"}
    chain3 = Poset.from_covers(3, [(1, 2), (2, 3)])
    assert index_failure_bound(build_gA(chain3), 3) == Fraction(8, p**3)


def test_trial_defaults_are_index_trials():
    # the trial count is a parameter of the sampling pair alone, and
    # defaults there to forms.INDEX_TRIALS
    for fn in (index, index_failure_bound):
        assert inspect.signature(fn).parameters["trials"].default == INDEX_TRIALS, fn
    for module in (lieposet, sweep, lieposet.toral, lieposet.cli):
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn not in (index, index_failure_bound):
                assert "trials" not in inspect.signature(fn).parameters, (module.__name__, name)


def test_analyze_with_form_certificates(tmp_path):
    poset = {"n": 3, "covers": [[1, 2], [2, 3]]}
    form = {"support": [[1, 1], [1, 3], [2, 3]]}
    ppath = write(tmp_path, "p.json", poset)
    fpath = write(tmp_path, "f.json", form)
    out = tmp_path / "report.json"
    assert main(["analyze", ppath, "--form", fpath, "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["contact_form"]["verdict"] is True
    assert report["contact_form"]["certificate"]["reeb"]
    assert report["contact_pair_check"]["all_pass"] is True


def test_analyze_eliminates_dphi_once_per_contact_block(monkeypatch):
    # in odd dimension the toral check's [dφ | φ] elimination gives the kernel
    # the contact report reads, so each contact block runs one elimination
    echelon = linalg._int_echelon
    runs = []

    def counted(*args):
        runs.append(args[1])
        return echelon(*args)

    monkeypatch.setattr(linalg, "_int_echelon", counted)
    blocks = [blk for blk in catalog_blocks((1, 14)) if blk.kind == "contact"]
    assert len(blocks) == 44
    for blk in blocks:
        runs.clear()
        report = analyze(blk.poset, blk.form)
        assert len(runs) == 1, blk.id
        res = is_contact_form(build_gA(blk.poset), blk.form)
        assert report["kernel"] == res.kernel.to_json(), blk.id
        assert report["contact_form"]["certificate"] == {"reason": res.reason, "reeb": res.reeb_json()}
        assert report["contact_pair_check"]["details"]["kernel_trace_zero"] == report["kernel"]


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    missing = write(tmp_path, "badposet.json", {"n": 2, "covers": [[1, 9]]})
    assert main(["analyze", missing]) == 2
    ppath = write(tmp_path, "chain3.json", {"n": 3, "covers": [[1, 2], [2, 3]]})
    for coeffs in ({"1;3": "1"}, {"1,3": "abc"}):
        form = {"support": [[1, 3], [2, 3]], "coeffs": coeffs}
        fpath = write(tmp_path, "form.json", form)
        assert main(["analyze", ppath, "--form", fpath]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line[:6] for line in err.splitlines()[-2:]] == ["error:", "error:"]


def test_verify_catalog_small_range(tmp_path, capsys):
    out = tmp_path / "catalog.json"
    assert main(["verify-catalog", "--n-range", "5", "6", "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["failed"] == 0
    contact_param = [
        r
        for r in report["results"]
        if r["kind"] == "contact" and r["n"] is not None
    ]
    assert len(contact_param) == 8  # 4 families x n in {5,6}
    text = capsys.readouterr().out
    assert "0 failures" in text


def test_build_example_script(tmp_path, capsys):
    script = {
        "steps": [
            {"block": {"id": "contact_chain3"}},
            {"block": {"id": "chain2"}, "rule": "C", "identify": {"c": 1}},
        ]
    }
    spath = write(tmp_path, "script.json", script)
    out = tmp_path / "build.json"
    code = main(["build", spath, "--check-contact", "--audit", "--json-out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["contact_sequence"] is True
    assert payload["contact"]["verdict"] is True
    assert payload["audit"]["steps"][0]["block"]["id"] == "contact_chain3"


def test_build_single_contact_block_echoes_form(tmp_path):
    script = {"steps": [{"block": {"id": "contact_chain4"}}]}
    spath = write(tmp_path, "script.json", script)
    out = tmp_path / "build.json"
    assert main(["build", spath, "--json-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["form"]["support"] == [[1, 1], [1, 4], [2, 3], [2, 4]]


def test_build_non_contact_rule_warns(tmp_path, capsys):
    # rule B script: refused by the contact-sequence check, analyzed anyway
    script = {
        "steps": [
            {"block": {"id": "six_a"}},
            {"block": {"id": "pendant_chain", "n": 4}, "rule": "B", "identify": {"a1": 5, "a2": 6}},
        ]
    }
    spath = write(tmp_path, "script.json", script)
    out = tmp_path / "build.json"
    code = main(["build", spath, "--check-contact", "--json-out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["contact_sequence"] is False
    assert payload["index"] >= 1
    assert "warning" in capsys.readouterr().out


def test_glue_command(tmp_path):
    ppath = write(tmp_path, "chain3.json", {"n": 3, "covers": [[1, 2], [2, 3]]})
    out = tmp_path / "glued.json"
    code = main(
        [
            "glue",
            ppath,
            "--block",
            "pendant_chain",
            "--n",
            "4",
            "--rule",
            "A1",
            "--identify",
            "a1=3",
            "--json-out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["poset"]["n"] == 6


def test_glue_invalid_rule_exit_code(tmp_path, capsys):
    ppath = write(tmp_path, "chain3.json", {"n": 3, "covers": [[1, 2], [2, 3]]})
    assert (
        main(["glue", ppath, "--block", "chain2", "--rule", "D1", "--identify", "c=1,a1=2"])
        == 2
    )
    assert (
        main(["glue", ppath, "--block", "chain2", "--rule", "A1", "--identify", "a1=x"])
        == 2
    )
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error:") for line in err)


def test_glue_repeated_role_exit_code(tmp_path, capsys):
    # a repeated role used to glue silently at its last target
    ppath = write(tmp_path, "chain4.json", {"n": 4, "covers": [[1, 2], [2, 3], [3, 4]]})
    argv = ["glue", ppath, "--block", "pendant_chain", "--n", "4", "--rule", "A1"]
    assert main(argv + ["--identify", "a1=1,a1=4"]) == 2
    assert _single_error_line(capsys)


@pytest.mark.parametrize(
    "block_id,rule,identify,message",
    [
        ("chain2", "Q", "a1=3", "unknown gluing rule 'Q'"),
        ("chain2", "A1", "c=1", "rule A1 identifies roles ['a1'], got ['c']"),
        ("chain2", "A2", "a2=3", "rule A2 needs a block with three extremal elements"),
        ("six_a", "D1", "c=3,a1=3", "identification targets must be distinct"),
        ("six_a", "A1", "a1=9", "target 9 not in the accumulated poset"),
        (
            "six_a",
            "A1",
            "a1=1",
            "rule A1: role a1 is maximal in the block but target 1 is not "
            "maximal in the accumulated poset",
        ),
        (
            "six_a",
            "E1",
            "c=1,a1=3",
            "rule E1: target of a1 must be unrelated to the target of c in the "
            "accumulated poset",
        ),
    ],
)
def test_glue_rejections_print_one_error_line(tmp_path, capsys, block_id, rule, identify, message):
    # every rule-table violation, on the fork 1 < 2 < {3, 4}
    ppath = write(tmp_path, "fork.json", {"n": 4, "covers": [[1, 2], [2, 3], [2, 4]]})
    argv = ["glue", ppath, "--block", block_id, "--rule", rule, "--identify", identify]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_size_for_fixed_block_exit_code(tmp_path, capsys):
    # a size given for a fixed block used to be dropped silently
    ppath = write(tmp_path, "chain3.json", {"n": 3, "covers": [[1, 2], [2, 3]]})
    glue_argv = ["glue", ppath, "--block", "chain2", "--n", "9", "--rule", "A1"]
    assert main(glue_argv + ["--identify", "a1=3"]) == 2
    assert _single_error_line(capsys)
    steps = [
        {"block": {"id": "contact_chain3"}},
        {"block": {"id": "chain2", "n": 9}, "rule": "C", "identify": {"c": 1}},
    ]
    assert main(["build", write(tmp_path, "script.json", {"steps": steps})]) == 2
    assert _single_error_line(capsys)


def test_poset_file_off_the_label_convention_exit_code(tmp_path, capsys):
    # 1 < 3 < 2 used to be relabelled silently, and the file's labels then read
    # as the new ones: this form is E*11 + E*12 in the stored labels, which is
    # not contact, yet analyze printed contact_form: True; and the glue went to
    # the file's element 2, though its 3 is not maximal
    ppath = write(tmp_path, "chain.json", {"n": 3, "covers": [[1, 3], [3, 2]]})
    fpath = write(tmp_path, "form.json", {"support": [[1, 1], [1, 3]]})
    for argv in (
        ["analyze", ppath, "--form", fpath],
        ["glue", ppath, "--block", "chain2", "--rule", "A1", "--identify", "a1=3"],
        ["export-dot", ppath],
    ):
        assert main(argv) == 2, argv
        assert _single_error_line(capsys), argv
    assert main(["analyze", write(tmp_path, "ok.json", {"n": 3, "covers": [[1, 3], [2, 3]]})]) == 0


def test_form_coefficient_grammar(tmp_path, capsys):
    # Fraction's decimal and exponent forms were read: "1e3000000" made a
    # 10-million-bit integer and analyze did not finish
    ppath = write(tmp_path, "chain2.json", {"n": 2, "covers": [[1, 2]]})
    for coeff in ("1e3", "0.5", "1/2.0", "3/", " ", "1e3000000", "9" * 5000):
        fpath = write(tmp_path, "form.json", {"support": [[1, 2]], "coeffs": {"1,2": coeff}})
        assert main(["analyze", ppath, "--form", fpath]) == 2, coeff
        assert _single_error_line(capsys), coeff
    for coeff, value in (("-3/2", Fraction(-3, 2)), ("4/2", 2), ("7", 7)):
        fpath = write(tmp_path, "form.json", {"support": [[1, 2]], "coeffs": {"1,2": coeff}})
        out = tmp_path / "report.json"
        assert main(["analyze", ppath, "--form", fpath, "--json-out", str(out)]) == 0
        assert json.loads(out.read_text())["form"]["coeffs"] == {"1,2": str(value)}


def test_export_dot(tmp_path, capsys):
    ppath = write(tmp_path, "gate.json", GATE)
    assert main(["export-dot", ppath]) == 0
    assert '"2" -> "4"' in capsys.readouterr().out


def test_export_dot_json_mirror(tmp_path, capsys):
    ppath = write(tmp_path, "gate.json", GATE)
    out = tmp_path / "out.json"
    assert main(["export-dot", ppath, "--json-out", str(out)]) == 0
    mirror = json.loads(out.read_text())
    assert Poset.from_json(mirror["poset"]) == Poset.from_json(GATE)
    assert mirror["dot"] == Poset.from_json(GATE).to_dot()
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "out.json")
    assert main(["export-dot", ppath, "--json-out", missing]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_poset_roundtrip_through_cli_files(tmp_path):
    poset = Poset.from_json(GATE)
    again = Poset.from_json(json.loads(json.dumps(poset.to_json())))
    assert again == poset


def test_enumerate_posets_counts():
    # unlabeled posets: 1, 2, 5, 16; connected: 1, 1, 3, 10
    assert len(enumerate_posets(1)) == 1
    assert len(enumerate_posets(2)) == 2  # sizes 1..2
    all4 = enumerate_posets(4, connected_only=False)
    assert len([p for p in all4 if p.n == 3]) == 5
    assert len([p for p in all4 if p.n == 4]) == 16
    conn4 = enumerate_posets(4)
    assert len([p for p in conn4 if p.n == 3]) == 3
    assert len([p for p in conn4 if p.n == 4]) == 10
    # OEIS A000112 (all posets) and A000608 (connected posets) at n = 5, 6, 7
    all7 = enumerate_posets(7, connected_only=False)
    for n, total, connected in ((5, 63, 44), (6, 318, 238), (7, 2045, 1650)):
        assert len([p for p in all7 if p.n == n]) == total
        assert len([p for p in all7 if p.n == n and p.is_connected()]) == connected


def test_analyze_finds_contact_form_at_search_cap(tmp_path):
    # n = 8 is the CLI's search cap; the exhaustive search must still succeed
    poset = block("contact_pendant_high", 8).poset
    ppath = write(tmp_path, "p.json", poset.to_json())
    out = tmp_path / "report.json"
    assert main(["analyze", ppath, "--json-out", str(out)]) == 0
    contact = json.loads(out.read_text())["contact"]
    assert contact["verdict"] is True
    form = OneForm.from_json(poset, contact["certificate"]["form"])
    assert verify_contact_toral_pair(poset, form).all_pass


def _brute_isomorphic(a, b):
    """Oracle: some permutation of the labels maps a's relations onto b's."""
    if a.n != b.n or len(a.relations) != len(b.relations):
        return False
    return any(
        {(perm[p - 1], perm[q - 1]) for p, q in a.relations} == b.relations
        for perm in permutations(range(1, a.n + 1))
    )


def test_canonical_key_iso_invariant():
    a = Poset.from_covers(4, [(1, 2), (2, 3), (2, 4)])
    b = Poset.from_covers(4, [(1, 3), (3, 2), (3, 4)])
    assert canonical_key(a) == canonical_key(b)
    c = Poset.chain(4)
    assert canonical_key(a) != canonical_key(c)
    # every poset up to 5 elements against seeded random relabelings
    rng = random.Random(23)
    posets = enumerate_posets(5, connected_only=False)
    relabeled = []
    for poset in posets:
        perm = list(poset.elements)
        rng.shuffle(perm)
        relabeled.append(
            Poset.from_covers(poset.n, [(perm[p - 1], perm[q - 1]) for p, q in poset.covers])
        )
    for left in posets:
        assert canonical_key(left)[0] == left.n
        assert all(p < q for p, q in _canonical_labelling(left)[0])
        for right in relabeled:
            same_key = canonical_key(left) == canonical_key(right)
            assert same_key == _brute_isomorphic(left, right)


def _unpruned_enumeration(max_n):
    """Oracle: every ideal of every parent, first child seen per class kept."""
    levels = {1: [Poset.from_covers(1, [])]}
    for n in range(2, max_n + 1):
        seen = {}
        for parent in levels[n - 1]:
            for ideal in parent.ideals():
                child = Poset.from_closed(n, parent.relations | {(i, n) for i in ideal})
                seen.setdefault(canonical_key(child), child)
        levels[n] = list(seen.values())
    return [poset for n in range(1, max_n + 1) for poset in levels[n]]


def test_twin_pruned_children_repeat_an_earlier_sibling():
    # an ideal holding a but not b, for twins a < b of the parent, gives a
    # child isomorphic to an earlier child of the same parent
    skipped = 0
    for parent in enumerate_posets(6, connected_only=False):
        twins = sweep._twin_pairs(parent)
        earlier = set()
        n = parent.n + 1
        for ideal in parent.ideals():
            key = canonical_key(Poset.from_closed(n, parent.relations | {(i, n) for i in ideal}))
            if any(a in ideal and b not in ideal for a, b in twins):
                skipped += 1
                assert key in earlier, (parent, ideal)
            earlier.add(key)
    assert skipped > 0


def test_twin_pruned_enumeration_matches_unpruned_loop():
    pruned = enumerate_posets(7, connected_only=False)
    unpruned = _unpruned_enumeration(7)
    assert len(pruned) == len(unpruned) == 2045 + 318 + 63 + 16 + 5 + 2 + 1
    assert [(p.n, p.relations) for p in pruned] == [(p.n, p.relations) for p in unpruned]


def test_iter_posets_pairs_match_the_list_and_its_keys():
    pairs = list(iter_posets(7, connected_only=False))
    listed = enumerate_posets(7, connected_only=False)
    assert [(p.n, p.relations) for p, _ in pairs] == [(p.n, p.relations) for p in listed]
    assert all(key == canonical_key(p) for p, key in pairs)
    with pytest.raises(ValueError):
        iter_posets(sweep.SWEEP_MAX_N + 1)  # refused before the first poset is asked for


def test_iter_posets_drops_parents_two_levels_back():
    # a level-n poset's parents are at level n - 1, so once the first
    # level-n poset is out nothing at level n - 2 or below is still held
    refs = {}
    for poset, _ in iter_posets(6, connected_only=False):
        if poset.n not in refs:
            gc.collect()
            held = [r for m, rs in refs.items() if m <= poset.n - 2 for r in rs if r() is not None]
            assert not held, (poset.n, len(held))
        refs.setdefault(poset.n, []).append(weakref.ref(poset))
    assert sorted(refs) == [1, 2, 3, 4, 5, 6]


def test_iter_posets_frees_a_dropped_last_level_poset_mid_stream():
    stream = iter_posets(5, connected_only=False)
    poset = next(p for p, _ in stream if p.n == 5)
    ref = weakref.ref(poset)
    del poset
    following, _ = next(stream)
    gc.collect()
    assert following.n == 5 and ref() is None


def test_canonical_labelling_attains_the_key_and_reverses_twins():
    # the key packs the relations under the returned labelling into one int;
    # the search individualises the last element of a twin class first, so
    # twins a < b are labelled in reverse (a wrong twin choice keeps valid keys)
    reversed_pairs = 0
    tuples, keys = set(), set()
    for poset in enumerate_posets(7, connected_only=False):
        key, labelling = _canonical_labelling(poset)
        assert sorted(labelling.values()) == list(poset.elements)
        n, packed = canonical_key(poset)
        assert n == poset.n and packed == sum(1 << ((p - 1) * n + q - 1) for p, q in key)
        assert tuple(sorted((labelling[p], labelling[q]) for p, q in poset.relations)) == key
        tuples.add((n, key))
        keys.add((n, packed))
        for a, b in sweep._twin_pairs(poset):
            assert labelling[a] > labelling[b], (poset, a, b)
            reversed_pairs += 1
    assert reversed_pairs > 0
    assert len(keys) == len(tuples) == 2045 + 318 + 63 + 16 + 5 + 2 + 1


def test_classify_contact_rejects_before_building_gA(monkeypatch):
    # dimension, parity, connectivity and the extremal cycle come first,
    # so only posets that reach the witness loop build g_A
    real_build = sweep.build_gA
    calls = []

    def counted_build(poset):
        calls.append(poset)
        return real_build(poset)

    monkeypatch.setattr(sweep, "build_gA", counted_build)
    short = {
        "zero-dimensional algebra": "zero-dimensional",
        "even dimension": "even",
        "random regular form is contact": "contact",
        "regular form completed on the diagonal": "contact",
        "extremal Hasse diagram contains a cycle": "cycle",
        "no contact witness found (empirical)": "no witness",
        "index is not one": "index not one",
    }
    reasons = {}
    for poset in enumerate_posets(6):
        reason = short[classify_contact(poset)[1]]
        reasons[reason] = reasons.get(reason, 0) + 1
    assert len(calls) == 96
    assert reasons == {
        "zero-dimensional": 1,
        "even": 155,
        "contact": 82,
        "cycle": 45,
        "no witness": 6,
        "index not one": 8,
    }


def test_classify_contact_gates_cache_no_down_or_up_sets():
    # the parity gate reads |Rel| and the extremal-cycle gate reads the
    # extremal elements off the relations, so a poset that was never an
    # enumeration parent (n = 6 when enumerating to 6) and that a gate
    # rejects caches neither map
    gated = 0
    for poset in enumerate_posets(6):
        if poset.n == 6:
            reason = classify_contact(poset)[1]
            if reason in ("even dimension", "extremal Hasse diagram contains a cycle"):
                assert not {"down_sets", "up_sets"} & set(vars(poset)), (poset, reason)
                gated += 1
    assert gated == 162


def test_classify_contact_chain3():
    verdict, reason, witness = classify_contact(Poset.chain(3))
    assert verdict and witness is not None


def test_classify_contact_height_one_false():
    verdict, reason, _ = classify_contact(Poset.from_covers(2, [(1, 2)]))
    assert not verdict


def test_classify_contact_index_verdicts_agree_with_sampled_index():
    # a one-dimensional witness kernel stands in for the sampled index;
    # both must agree on every connected poset with at most 6 elements
    seen = {"true": 0, "index": 0}
    for poset in enumerate_posets(6):
        verdict, reason, _ = classify_contact(poset)
        if verdict:
            seen["true"] += 1
            assert index(build_gA(poset)) == 1, poset
        elif reason == "index is not one":
            seen["index"] += 1
            assert index(build_gA(poset)) != 1, poset
    assert seen["true"] and seen["index"]


def test_classify_contact_larger_first_kernel_defers_to_sampled_index(monkeypatch):
    # a non-regular first draw certifies nothing, so the sampled index decides
    real_kernel, real_index = sweep.kernel, sweep.index
    calls = {"kernel": 0, "index": 0}

    def first_kernel_larger(gA, values):
        calls["kernel"] += 1
        return SimpleNamespace(dimension=3) if calls["kernel"] == 1 else real_kernel(gA, values)

    def counted_index(gA, **kwargs):
        calls["index"] += 1
        return real_index(gA, **kwargs)

    monkeypatch.setattr(sweep, "kernel", first_kernel_larger)
    monkeypatch.setattr(sweep, "index", counted_index)
    verdict, _, _ = classify_contact(Poset.chain(3))
    assert verdict and calls["index"] == 1
    calls.update(kernel=0, index=0)
    three_middles = Poset.from_covers(5, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)])
    verdict, reason, _ = classify_contact(three_middles)  # dim 11, index 3
    assert not verdict and reason == "index is not one" and calls["index"] == 1


# 1 < 2 < {3, 4, 5} at seed 0: the exact pairing of attempt 39 (from 0) is
# 0, and the legacy vector's float zeros make it 1.455e-11, a contact verdict
FLOAT_FLIP = Poset.from_covers(5, [(1, 2), (2, 3), (2, 4), (2, 5)])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classify_contact_matches_the_legacy_witness_loop(seed):
    # the integer pairing against the loop that sums over the legacy
    # Fraction/float vectors of the dense oracle: every verdict, reason
    # and witness on the 297 connected posets with n <= 6
    posets = enumerate_posets(6)
    assert len(posets) == 297 and FLOAT_FLIP in posets
    for poset in posets:
        assert classify_contact(poset, seed) == legacy_classify_contact(poset, seed), poset.covers


def test_classify_contact_float_branch_on_1_2_345():
    gA = build_gA(FLOAT_FLIP)
    strict = [i for i, lab in enumerate(gA.labels) if lab[0] == "e"]
    rng = random.Random(0)
    for attempt in range(40):
        values = [0] * gA.dim
        for i in strict:
            values[i] = rng.randint(1, 1 << 16)
        rep = sweep.kernel(gA, values)
        if rep.dimension == 1:
            x = rep.generators[0]
            pairing = sweep._pairing(values, x, rep.scale, rep.empty_sums[0], strict)
            assert not pairing or attempt == 39, attempt
    # attempt 39 has a one-dimensional kernel, and its exact pairing is 0
    assert rep.dimension == 1 and sum(values[i] * x[i] for i in strict) == 0
    assert repr(pairing) == "1.4551915228366852e-11"
    assert classify_contact(FLOAT_FLIP, 0) == (True, "random regular form is contact", values)


def test_verify_catalog_flags_corrupted_entry(tmp_path, monkeypatch):
    # tamper with one block's form and expect a named condition failure
    import lieposet.toral.blocks as blocks_mod

    row = blocks_mod._FAMILIES["six_a"]
    poset, support = row.build(None)
    broken = support[:-1] + [(4, 6)]  # break the split
    tampered = row._replace(build=lambda n: (poset, broken))
    monkeypatch.setitem(blocks_mod._FAMILIES, "six_a", tampered)
    out = tmp_path / "catalog.json"
    assert main(["verify-catalog", "--n-range", "5", "5", "--json-out", str(out)]) == 1
    report = json.loads(out.read_text())
    bad = [r for r in report["results"] if not r["all_pass"]]
    assert bad and bad[0]["block"] == "six_a"
    assert bad[0]["failed"]  # names the violated conditions


def test_build_audit_tracks_relabeling(tmp_path):
    script = {
        "steps": [
            {"block": {"id": "contact_chain3"}},
            {"block": {"id": "pendant_chain", "n": 4}, "rule": "A1", "identify": {"a1": 3}},
        ]
    }
    spath = write(tmp_path, "script.json", script)
    out = tmp_path / "build.json"
    assert main(["build", spath, "--audit", "--json-out", str(out)]) == 0
    audit = json.loads(out.read_text())["audit"]
    assert audit["verdicts"]["coefficients_unit"] is True
    step2 = audit["steps"][1]
    assert step2["poset"]["n"] == 6
    assert set(step2["relabel"]) == {"1", "2", "3"}
    assert set(step2["to_final"].values()) <= set(range(1, 7))


def test_sweep_n1_empty():
    report = conjecture_sweep(1)
    assert report["contact_found"] == 0


def test_verify_catalog_default_group_counts(tmp_path):
    out = tmp_path / "catalog.json"
    assert main(["verify-catalog", "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["failed"] == 0
    six = [r for r in report["results"] if r["block"].startswith("six_")]
    fixed_contact = [
        r for r in report["results"] if r["kind"] == "contact" and r["n"] is None
    ]
    contact_param = [
        r for r in report["results"] if r["kind"] == "contact" and r["n"] is not None
    ]
    assert len(six) == 8
    assert len(fixed_contact) == 4
    assert len(contact_param) == 40  # four families, n in [5, 14]


def test_sweep_small():
    report = conjecture_sweep(3)
    assert report["contact_found"] == 1
    covers = report["contact"][0]["poset"]["covers"]
    assert covers == [[1, 2], [2, 3]]
    assert report["unreachable_by_scripts"] == []


def test_sweep_n4_all_reachable():
    report = conjecture_sweep(4)
    assert report["contact_found"] == 4
    assert report["unreachable_by_scripts"] == []


def test_sweep_n6_seed0_totals():
    # pins every seed-0 verdict through n = 6, so a kernel change that flips
    # one fails here; the totals include the round-off false positives of
    # the float pairing (sweep._pairing at forms.kernel's empty sums), and
    # fixing that defect (ROADMAP item 1) moves them to 73 contact and 13
    # unreachable
    report = conjecture_sweep(6, seed=0)
    totals = (
        report["connected_posets_checked"],
        report["contact_found"],
        len(report["unreachable_by_scripts"]),
    )
    assert totals == (297, 82, 22)


@pytest.mark.parametrize("seed", [0, 1])
def test_streamed_sweep_equals_the_listed_loop(seed):
    # the whole report, contact order included, against the loop that lists
    # every poset before classifying any
    assert conjecture_sweep(6, seed=seed) == listed_sweep(6, seed=seed)


def test_closed_stdout_pipe_exit_code():
    # `lieposet sweep --max-n 6 | head -1` used to end in a BrokenPipeError
    # traceback and exit 1, the code of a verification failure
    src = str(Path(lieposet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lieposet.cli", "sweep", "--max-n", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # long before the sweep prints its first line
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_sweep_cli(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--max-n", "3", "--json-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["contact_found"] == 1
    assert "reachable" in capsys.readouterr().out


def _single_error_line(capsys):
    """Nothing on stdout and one ``error:`` line on stderr."""
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    return not captured.out and len(err) == 1 and err[0].startswith("error:")


def test_trials_below_one_exit_code(tmp_path, capsys):
    # the trial count is fixed at forms.INDEX_TRIALS: no command takes
    # --trials, so argparse refuses it with exit 2 and no traceback
    path = write(tmp_path, "chain3.json", {"n": 3, "covers": [[1, 2], [2, 3]]})
    for argv in (["analyze", path], ["build", path], ["sweep", "--max-n", "3"]):
        with pytest.raises(SystemExit) as refused:
            main(argv + ["--trials", "2"])
        assert refused.value.code == 2, argv
        captured = capsys.readouterr()
        assert not captured.out and "Traceback" not in captured.err, argv
        assert "unrecognized arguments: --trials 2" in captured.err, argv
    # verify-catalog samples nothing, so it has no --trials flag to set
    with pytest.raises(SystemExit) as refused:
        main(["verify-catalog", "--trials", "0"])
    assert refused.value.code == 2


def test_verify_catalog_empty_n_range_exit_code(capsys):
    # --n-range 9 3 used to check only the fixed blocks and exit 0
    assert main(["verify-catalog", "--n-range", "9", "3"]) == 2
    assert _single_error_line(capsys)


def test_sweep_max_n_out_of_range_exit_code(capsys):
    # --max-n 0 and --max-n -3 used to print an empty report and exit 0
    for max_n in ("0", "-3", "9"):
        assert main(["sweep", "--max-n", max_n]) == 2
        assert _single_error_line(capsys)


def test_poset_json_above_size_cap_exit_code(tmp_path, capsys):
    path = write(tmp_path, "big.json", {"n": JSON_SIZE_LIMIT + 1, "covers": []})
    for argv in (["analyze", path], ["export-dot", path]):
        assert main(argv) == 2
        assert _single_error_line(capsys)


def test_malformed_inputs_exit_code(tmp_path, capsys):
    # each of these used to end in a traceback, or, for a float or a bool
    # where an integer belongs, to be truncated without a word
    chain3 = write(tmp_path, "chain3.json", {"n": 3, "covers": [[1, 2], [2, 3]]})
    contact = {"block": {"id": "contact_chain3"}}
    scripts = [
        [contact, {"block": None, "rule": "A1", "identify": None}],
        [{"block": {"id": []}}],
        [contact, {"block": {"id": "chain2"}, "rule": ["C"]}],
        [contact, {"block": {"id": "pendant_chain", "n": "x"}, "rule": "A1"}],
        # this one used to build pendant_chain(4)
        [contact, {"block": {"id": "pendant_chain", "n": 4.5}, "rule": "A1"}],
        [contact, {"block": {"id": "chain2"}, "rule": "A1", "identify": {"a1": 2.0}}],
        # no steps, a rule on the first step, and a later step without one
        [],
        [contact | {"rule": "C"}],
        [contact, {"block": {"id": "chain2"}, "identify": {"c": 1}}],
    ]
    inf_form = {"support": [[1, 2]], "coeffs": {"1,2": float("inf")}}
    posets = [
        {"n": float("inf"), "covers": []},
        {"n": 4.9, "covers": [[1, 2.7], [2, 3], [2, 4]]},
        {"n": 4, "covers": [[1, 2.7], [2, 3], [2, 4]]},
        {"n": True, "covers": []},
    ]
    forms = [
        inf_form,
        {"support": [[1, 2.9]]},
        {"support": [[1, 2]], "coeffs": {"1,2": 0.1}},
        {"support": [[1, 2]], "coeffs": {"1,2": True}},
    ]
    # on 1<2<{3,4} these were read as a form without the (1,3) coefficient
    # and as coefficient 2 at (1,2)
    fork4 = write(tmp_path, "fork4.json", {"n": 4, "covers": [[1, 2], [2, 3], [2, 4]]})
    fork4_forms = [
        {"support": [[1, 1], [1, 4], [2, 3], [2, 4]], "coeffs": {"1,3": "5"}},
        {"support": [[1, 2], [1, 2]]},
        {"support": [[9, 9]]},  # a diagonal pair off the poset
    ]
    cases = [["analyze", write(tmp_path, f"poset{i}.json", p)] for i, p in enumerate(posets)]
    for i, form in enumerate(forms):
        cases.append(["analyze", chain3, "--form", write(tmp_path, f"form{i}.json", form)])
    for i, form in enumerate(fork4_forms):
        cases.append(["analyze", fork4, "--form", write(tmp_path, f"fork4_form{i}.json", form)])
    # a repeated key used to keep its last value: coefficient 4, and n = 3
    dup_form = tmp_path / "dup_form.json"
    dup_form.write_text('{"support": [[1, 2]], "coeffs": {"1,2": "3", "1,2": "4"}}')
    dup_poset = tmp_path / "dup_poset.json"
    dup_poset.write_text('{"n": 4, "n": 3, "covers": [[1, 2], [2, 3]]}')
    # not UTF-8: a UnicodeDecodeError, which is no JSONDecodeError, was a traceback
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe{")
    cases += [
        ["analyze", fork4, "--form", str(dup_form)],
        ["analyze", str(dup_poset)],
        ["analyze", str(not_utf8)],
        ["export-dot", chain3, "--dot-out", str(tmp_path / "missing" / "out.dot")],
        ["analyze", chain3, "--json-out", str(tmp_path / "missing" / "out.json")],
        # a glue target off the poset
        ["glue", fork4, "--block", "pendant_chain", "--n", "4", "--rule", "A1",
         "--identify", "a1=99"],
    ]
    for i, steps in enumerate(scripts):
        cases.append(["build", write(tmp_path, f"script{i}.json", {"steps": steps})])
    # a contact sequence whose contact block comes second: --check-contact
    # used to hand the form it did not build to the contact test
    late = [{"block": {"id": "six_a"}},
            {"block": {"id": "contact_fork"}, "rule": "A1", "identify": {"a1": 5}}]
    cases.append(["build", write(tmp_path, "late.json", {"steps": late}), "--check-contact"])
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), (argv, err)


def test_deeply_nested_json_exit_code(tmp_path):
    # 100,000 nested brackets used to end in a RecursionError traceback and
    # exit 1, the code of a verification failure
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    chain3 = write(tmp_path, "chain3.json", {"n": 3, "covers": [[1, 2], [2, 3]]})
    src = str(Path(lieposet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in (
        ["analyze", str(nested)],
        ["analyze", chain3, "--form", str(nested)],
        ["build", str(nested)],
        ["glue", str(nested), "--block", "chain2", "--rule", "A1"],
        ["export-dot", str(nested)],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "lieposet.cli", *argv], capture_output=True, text=True, env=env
        )
        err = proc.stderr.strip().splitlines()
        assert proc.returncode == 2, (argv, proc.returncode)
        assert "Traceback" not in proc.stderr, argv
        assert len(err) == 1 and err[0].startswith("error:"), (argv, err)

def test_analyze_two_disjoint_chains_is_contact(tmp_path):
    path = write(tmp_path, "two_chains.json", {"n": 4, "covers": [[1, 2], [3, 4]]})
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["index"]["value"] == 1
    assert report["contact"]["verdict"] is True
    criterion = report["contact"]["certificate"]["criterion"]
    assert criterion == "disjoint sum of exactly two Frobenius components"


def test_analyze_above_search_cap_notes_the_skip(tmp_path):
    path = write(tmp_path, "chain9.json", Poset.chain(SEARCH_SIZE_CAP + 1).to_json())
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--json-out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["note"] == f"form search skipped: poset has more than {SEARCH_SIZE_CAP} elements"
    assert "frobenius_search" not in report and "contact" not in report


def test_build_dot_out_writes_the_built_poset(tmp_path, capsys):
    script = {
        "steps": [
            {"block": {"id": "contact_fork"}},
            {"block": {"id": "six_a"}, "rule": "A1", "identify": {"a1": 5}},
        ]
    }
    dot = tmp_path / "built.dot"
    assert main(["build", write(tmp_path, "script.json", script), "--dot-out", str(dot)]) == 0
    built = run_script(ConstructionScript.from_json(script)).poset
    assert dot.read_text() == built.to_dot()
    assert f"built poset with {built.n} elements" in capsys.readouterr().out


def test_sweep_n6_prints_unreachable_count(capsys):
    assert main(["sweep", "--max-n", "6"]) == 0
    assert "unreachable by scripts: 22" in capsys.readouterr().out.splitlines()


_MISSING = object()
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 9),
    st.sampled_from(["", "x", "3", "1,2", "1/0", float("inf"), float("nan"), 2.5]),
    st.lists(st.integers(-1, 6), max_size=3),
    st.just({}),
)
_RAW = st.sampled_from(["", "{", "[1, 2", "null", "not json"])
_SMALL = st.integers(-2, 7).map(str)
_BLOCK_IDS = [fam.id for fam in catalog()]


def _covers(n):
    pairs = st.tuples(st.integers(1, n), st.integers(1, n))
    upward = pairs.filter(lambda pq: pq[0] != pq[1]).map(sorted)
    return st.lists(st.one_of(upward, pairs.map(list)), max_size=6)


def _poset(n):
    return st.fixed_dictionaries({"n": st.just(n), "covers": _covers(n)})


_HUGE = st.sampled_from([JSON_SIZE_LIMIT + 1, 10**9])
_POSETS = st.one_of(
    st.integers(1, 5).flatmap(_poset),
    st.fixed_dictionaries({"n": st.one_of(_JUNK, _HUGE), "covers": _JUNK}),
    st.fixed_dictionaries({"covers": _covers(3)}),
    _JUNK,
    _RAW,
    st.just(_MISSING),
)
_COEFF_KEYS = st.sampled_from(["1,2", "1,1", "2;3", "x", "1,2,3"])
_FORMS = st.one_of(
    st.fixed_dictionaries(
        {"support": st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=2), max_size=5)},
        optional={"coeffs": st.one_of(st.dictionaries(_COEFF_KEYS, _JUNK, max_size=2), _JUNK)},
    ),
    _JUNK,
    _RAW,
    st.just(_MISSING),
)
_RULES = st.sampled_from(sorted(RULES) + ["", "Z"])
_IDENTIFY = st.dictionaries(
    st.sampled_from(["c", "a1", "a2", "x"]), st.one_of(st.integers(0, 8), _JUNK), max_size=3
)
_STEP = st.fixed_dictionaries(
    {
        "block": st.one_of(
            st.fixed_dictionaries(
                {"id": st.one_of(st.sampled_from(_BLOCK_IDS), _JUNK)}, optional={"n": _JUNK}
            ),
            _JUNK,
        )
    },
    optional={"rule": st.one_of(_RULES, _JUNK), "identify": st.one_of(_IDENTIFY, _JUNK)},
)
_SCRIPTS = st.one_of(
    st.fixed_dictionaries({"steps": st.lists(_STEP, max_size=3)}),
    st.fixed_dictionaries({"steps": _JUNK}),
    _JUNK,
    _RAW,
    st.just(_MISSING),
)
_COMMANDS = ["analyze", "verify-catalog", "build", "glue", "sweep", "export-dot", "bogus"]
_IDENTIFY_ARGS = ["a1=3", "c=1,a1=2", "a1=x", "=", "", "a2=1,c=4"]
_BAD_ARGV = [["bogus"], [], ["sweep"], ["analyze", "--trials", "x"]]


def _argv(data, tmp):
    def path_of(strategy, name):
        payload = data.draw(strategy)
        path = os.path.join(tmp, name)
        if payload is not _MISSING:
            with open(path, "w") as fh:
                fh.write(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    command = data.draw(st.sampled_from(_COMMANDS))
    if command == "analyze":
        argv = [command, path_of(_POSETS, "poset.json")]
        if data.draw(st.booleans()):
            argv += ["--form", path_of(_FORMS, "form.json")]
    elif command == "verify-catalog":
        argv = [command, "--n-range", data.draw(_SMALL), data.draw(_SMALL)]
    elif command == "build":
        argv = [command, path_of(_SCRIPTS, "script.json")]
        for flag in ("--check-contact", "--audit"):
            if data.draw(st.booleans()):
                argv.append(flag)
    elif command == "glue":
        argv = [command, path_of(_POSETS, "poset.json"), "--rule", data.draw(_RULES)]
        argv += ["--block", data.draw(st.sampled_from(_BLOCK_IDS + ["nope"]))]
        if data.draw(st.booleans()):
            argv += ["--n", data.draw(_SMALL)]
        if data.draw(st.booleans()):
            argv += ["--identify", data.draw(st.sampled_from(_IDENTIFY_ARGS))]
    elif command == "sweep":
        argv = [command, "--max-n", data.draw(st.integers(-1, 5).map(str))]
    elif command == "export-dot":
        argv = [command, path_of(_POSETS, "poset.json")]
    else:
        return data.draw(st.sampled_from(_BAD_ARGV))
    if command in ("analyze", "build", "sweep") and data.draw(st.booleans()):
        argv += ["--seed", data.draw(_SMALL)]
    if data.draw(st.booleans()):
        out = data.draw(st.sampled_from(["out.json", "missing/out.json"]))
        argv += ["--json-out", os.path.join(tmp, out)]
    return argv


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_fuzz_exit_codes(data):
    # any argv over small inputs, well-formed or not, ends in exit 0, 1
    # or 2 and never in a traceback
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(data, tmp)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv itself
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
