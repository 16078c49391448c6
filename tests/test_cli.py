import inspect
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lieposet
from lieposet import sweep
from lieposet.algebras import build_gA
from lieposet.cli import SEARCH_SIZE_CAP, main
from lieposet.forms import INDEX_TRIALS, OneForm, index, index_failure_bound
from lieposet.posets import JSON_SIZE_LIMIT, Poset, _canonical_labelling
from lieposet.sweep import (
    canonical_key,
    classify_contact,
    conjecture_sweep,
    enumerate_posets,
)
from lieposet.toral import (
    ConstructionScript,
    block,
    catalog,
    run_script,
    verify_contact_toral_pair,
)
from lieposet.toral.gluing import RULES

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
        n, rels = canonical_key(left)
        assert n == left.n and all(p < q for p, q in rels)
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


def test_canonical_labelling_attains_the_key_and_reverses_twins():
    # the key is the relations under the returned labelling; the search
    # individualises the last element of a twin class first, so twins
    # a < b are labelled in reverse (a wrong twin choice keeps valid keys)
    reversed_pairs = 0
    for poset in enumerate_posets(7, connected_only=False):
        key, labelling = _canonical_labelling(poset)
        assert sorted(labelling.values()) == list(poset.elements)
        assert (poset.n, key) == canonical_key(poset)
        assert tuple(sorted((labelling[p], labelling[q]) for p, q in poset.relations)) == key
        for a, b in sweep._twin_pairs(poset):
            assert labelling[a] > labelling[b], (poset, a, b)
            reversed_pairs += 1
    assert reversed_pairs > 0


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


def test_verify_catalog_flags_corrupted_entry(tmp_path, monkeypatch):
    # tamper with one block's form and expect a named condition failure
    import dataclasses

    import lieposet.toral.blocks as blocks_mod

    row = blocks_mod._FAMILIES["six_a"]
    poset, support = row.build(None)
    broken = support[:-1] + [(4, 6)]  # break the split
    tampered = dataclasses.replace(row, build=lambda n: (poset, broken))
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
    # the float zeros in kernel vectors, and fixing that defect (ROADMAP
    # item 1) moves them to 73 contact and 13 unreachable
    report = conjecture_sweep(6, seed=0)
    totals = (
        report["connected_posets_checked"],
        report["contact_found"],
        len(report["unreachable_by_scripts"]),
    )
    assert totals == (297, 82, 22)


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
