"""Command-line workbench: analyze posets and forms, verify the block
catalog, build scripts, glue single steps, sweep small posets, export
Hasse diagrams.

Exit codes: 0 all verdicts as expected, 1 verification failure, 2 input
error, 141 standard output closed early (128 + SIGPIPE). Every
human-readable line has a machine-readable JSON mirror.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebras import build_gA
from .forms import (
    INDEX_TRIALS,
    FormError,
    OneForm,
    ad_char_poly,
    index,
    index_failure_bound,
    is_contact_form,
)
from .posets import Poset, PosetError
from .sweep import SWEEP_MAX_N, conjecture_sweep
from .toral import (
    ConstructionScript,
    GlueError,
    ScriptError,
    block,
    catalog_blocks,
    disconnected_contact_check,
    ext_hasse_has_cycle,
    glue,
    is_contact_sequence,
    run_script,
    verify_contact_toral_pair,
    verify_toral_pair,
)
from .toral.blocks import (
    BlockError,
    derive_small_frobenius_form,
    search_contact_form,
    verify_block,
)

SEARCH_SIZE_CAP = 8


class InputError(ValueError):
    pass


def _unique_keys(pairs):
    """``object_pairs_hook`` that refuses a key repeated in one JSON object."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"key {max(keys, key=keys.count)!r} appears twice in one object")
    return dict(pairs)


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # JSONDecodeError, deep nesting
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _load_poset(path):
    """The poset of a JSON file, refused when a cover breaks p < q: ``from_json``
    would relabel it, and ``--form`` and ``--identify`` read the file's labels."""
    data = _load_json(path, "poset")
    try:
        poset = Poset.from_json(data)
    except PosetError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if bad := [pq for pq in data["covers"] if pq[0] > pq[1]]:
        raise InputError(f"{path}: cover {bad[0]} breaks the p<q label convention")
    return poset


def analyze(poset, form=None, seed=0):
    """Full analysis report as a JSON-ready dict; no bare verdicts."""
    ext = poset.extremal_data()
    gA = build_gA(poset)
    report = {
        "poset": {
            "n": poset.n,
            "height": poset.height,
            "relations": len(poset.relations),
            "covers": [list(c) for c in sorted(poset.covers)],
            "ext": sorted(ext.ext),
            "rel_e": [list(r) for r in sorted(ext.rel_e)],
            "connected": poset.is_connected(),
            "components": len(poset.connected_components()),
        },
        "algebra": {"dim_g": gA.dim + 1, "dim_gA": gA.dim},
        "index": {
            "value": index(gA, seed=seed),
            "trials": INDEX_TRIALS,
            "seed": seed,
            "failure_bound": str(index_failure_bound(gA)),
        },
    }
    ind = report["index"]["value"]
    if not poset.is_connected():
        split = disconnected_contact_check(poset, seed=seed)
        report["contact"] = {
            "verdict": split.is_contact,
            "certificate": {
                "criterion": "disjoint sum of exactly two Frobenius components",
                "components": report["poset"]["components"],
            },
        }
    elif ext_hasse_has_cycle(poset):
        report["contact"] = {
            "verdict": False,
            "certificate": {"reason": "extremal Hasse diagram contains a cycle"},
        }
    if form is not None:
        toral = verify_toral_pair(poset, form)
        contact = verify_contact_toral_pair(poset, form)
        if gA.dim % 2:  # the toral check's [dφ | φ] elimination gave dφ's kernel
            contact.contact_input += (toral.details["kernel_trace_zero"],)
        rep = toral.details["kernel_trace_zero"].to_json()
        report["form"] = form.to_json()
        report["kernel"] = rep
        report["frobenius_form"] = {"verdict": toral.conditions["frobenius"], "certificate": rep}
        report["contact_form"] = {
            "verdict": contact.conditions["contact"],
            "certificate": {
                "reason": contact.contact_result.reason,
                "reeb": contact.contact_result.reeb_json(),
            },
        }
        if toral.conditions["frobenius"]:
            report["spectrum"] = [str(c) for c in ad_char_poly(gA, *toral.scaled_principal)]
        report["toral_pair_check"] = toral.to_json()
        report["contact_pair_check"] = contact.to_json()
    elif poset.n > SEARCH_SIZE_CAP:
        report["note"] = (
            f"form search skipped: poset has more than {SEARCH_SIZE_CAP} elements"
        )
    elif gA.dim % 2 == 0 and ind == 0:
        found = derive_small_frobenius_form(poset)
        report["frobenius_search"] = {
            "verdict": found is not None,
            "certificate": None if found is None else found.to_json(),
        }
    elif gA.dim % 2 == 1 and ind == 1 and "contact" not in report:
        found = search_contact_form(poset)
        report["contact"] = {
            "verdict": found is not None,
            "certificate": {
                "criterion": "spanning-tree contact form search",
                "form": None if found is None else found.to_json(),
            },
        }
    return report


def _print_report(report):
    p = report["poset"]
    print(
        f"poset: n={p['n']} height={p['height']} |Rel|={p['relations']} "
        f"Ext={p['ext']} connected={p['connected']}"
    )
    a = report["algebra"]
    print(f"algebra: dim g={a['dim_g']} dim gA={a['dim_gA']}")
    print(f"index: {report['index']['value']} (sampled)")
    for key in ("frobenius_form", "contact_form", "contact", "frobenius_search"):
        if key in report:
            print(f"{key}: {report[key]['verdict']}")


def cmd_analyze(args):
    poset = _load_poset(args.poset)
    form = None
    if args.form:
        try:
            form = OneForm.from_json(poset, _load_json(args.form, "one-form"))
        except FormError as exc:
            raise InputError(f"{args.form}: {exc}") from exc
    report = analyze(poset, form, seed=args.seed)
    _print_report(report)
    _emit_json(args, report)
    return 0


def cmd_verify_catalog(args):
    lo, hi = args.n_range
    if lo > hi:
        raise InputError(f"--n-range {lo} {hi} is empty; LO must not exceed HI")
    results = []
    failed = []
    for blk in catalog_blocks((lo, hi)):
        rep = verify_block(blk)
        entry = {
            "block": blk.id,
            "n": blk.n,
            "kind": blk.kind,
            "all_pass": rep.all_pass,
            "failed": rep.failed(),
        }
        results.append(entry)
        if not rep.all_pass:
            failed.append(entry)
        tag = "ok" if rep.all_pass else "FAIL " + ",".join(rep.failed())
        label = blk.id if blk.n is None else f"{blk.id}(n={blk.n})"
        print(f"{label}: {tag}")
    summary = {
        "checked": len(results),
        "failed": len(failed),
        "results": results,
    }
    _emit_json(args, summary)
    print(f"catalog: {len(results)} pairs checked, {len(failed)} failures")
    return 0 if not failed else 1


def cmd_build(args):
    script = ConstructionScript.from_json(_load_json(args.script, "script"))
    contact_seq = is_contact_sequence(script)
    # a contact check needs the form; run_script raises ScriptError when it cannot build it
    build_form = args.check_contact and contact_seq or all(s.kind != "contact" for s in script.steps[1:])
    result = run_script(script, build_form=build_form)
    out = {
        "poset": result.poset.to_json(),
        "form": result.form.to_json() if result.form else None,
        "contact_sequence": contact_seq,
    }
    if args.audit:
        out["audit"] = result.audit_json()
    exit_code = 0
    if args.check_contact:
        gA = build_gA(result.poset)
        if not contact_seq:
            print(
                "warning: not a contact sequence; analysis proceeds on the raw output"
            )
            ind = index(gA, seed=args.seed)
            out["index"] = ind
            print(f"index: {ind}")
        else:
            res = is_contact_form(gA, result.form)
            out["contact"] = {
                "verdict": res.is_contact,
                "reason": res.reason,
                "reeb": res.reeb_json(),
            }
            print(f"contact: {res.is_contact} ({res.reason})")
            if res.is_contact:
                print(f"reeb: {out['contact']['reeb']}")
            else:
                exit_code = 1
    print(f"built poset with {result.poset.n} elements")
    if result.form:
        print(f"built form with {len(result.form.support)} summands")
    _emit_json(args, out)
    if args.dot_out:
        _write_text(args.dot_out, result.poset.to_dot())
    return exit_code


def cmd_glue(args):
    poset = _load_poset(args.poset)
    identify = {}
    if args.identify:
        for item in args.identify.split(","):
            role, _, label = item.partition("=")
            role = role.strip()
            if role in identify:
                raise InputError(f"role {role!r} appears twice in --identify")
            try:
                identify[role] = int(label)
            except ValueError:
                raise InputError(f"bad identify entry {item!r}; use role=label") from None
    blk = block(args.block, args.n)
    result = glue(poset, blk, args.rule, identify)
    out = {
        "poset": result.poset.to_json(),
        "q_map": {str(k): v for k, v in sorted(result.q_map.items())},
        "block_map": {str(k): v for k, v in sorted(result.s_map.items())},
    }
    print(f"glued {args.block} via {args.rule}: {result.poset.n} elements")
    _emit_json(args, out)
    return 0


def cmd_sweep(args):
    if not 1 <= args.max_n <= SWEEP_MAX_N:
        raise InputError(f"--max-n must be between 1 and {SWEEP_MAX_N}, got {args.max_n}")
    report = conjecture_sweep(args.max_n, seed=args.seed)
    print(
        f"sweep: {report['connected_posets_checked']} connected posets up to "
        f"n={args.max_n}, {report['contact_found']} contact (empirical)"
    )
    for entry in report["contact"]:
        print(f"  contact: {entry['poset']['covers']} ({entry['reason']})")
    if report["unreachable_by_scripts"]:
        print(f"unreachable by scripts: {len(report['unreachable_by_scripts'])}")
    else:
        print("all contact posets found are reachable by contact sequences")
    _emit_json(args, report)
    return 0


def cmd_export_dot(args):
    poset = _load_poset(args.poset)
    text = poset.to_dot()
    if args.dot_out:
        _write_text(args.dot_out, text)
    else:
        print(text)
    _emit_json(args, {"poset": poset.to_json(), "dot": text})
    return 0


def _emit_json(args, payload):
    if getattr(args, "json_out", None):
        _write_text(args.json_out, json.dumps(payload, indent=2, sort_keys=True))


def _add_common(parser):
    parser.add_argument("--json-out", metavar="PATH", help="write the JSON mirror here")


def _add_sampling(parser):
    """The seed flag of the commands that call the sampled ``index``."""
    parser.add_argument("--seed", type=int, default=0, help="index sampling seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lieposet",
        description="Exact analysis of type-A Lie poset algebras and toral constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a poset (and optional one-form)")
    p.add_argument("poset", help="poset JSON file")
    p.add_argument("--form", help="one-form JSON file")
    _add_sampling(p)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-catalog", help="run every catalog block verifier")
    p.add_argument(
        "--n-range",
        nargs=2,
        type=int,
        default=(5, 14),
        metavar=("LO", "HI"),
        help="size range for parametric families",
    )
    _add_common(p)
    p.set_defaults(func=cmd_verify_catalog)

    p = sub.add_parser("build", help="run a construction script")
    p.add_argument("script", help="script JSON file")
    p.add_argument("--check-contact", action="store_true")
    p.add_argument("--audit", action="store_true", help="include the step audit")
    p.add_argument("--dot-out", metavar="PATH", help="write the Hasse diagram DOT here")
    _add_sampling(p)
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("glue", help="apply one gluing step to a poset")
    p.add_argument("poset", help="accumulated poset JSON file")
    p.add_argument("--block", required=True, help="catalog block id")
    p.add_argument("--n", type=int, help="parametric block size")
    p.add_argument("--rule", required=True, help="gluing rule name")
    p.add_argument("--identify", help="role=label pairs, comma separated")
    _add_common(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("sweep", help="empirical conjecture sweep over small posets")
    p.add_argument("--max-n", type=int, required=True)
    _add_sampling(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export-dot", help="write a Hasse diagram in DOT format")
    p.add_argument("poset", help="poset JSON file")
    p.add_argument("--dot-out", metavar="PATH")
    _add_common(p)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except (InputError, PosetError, FormError, BlockError, GlueError, ScriptError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null device,
        # so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
