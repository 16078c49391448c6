"""Vertex-identification gluing of building blocks and construction scripts.

A glue step merges extremal vertices of a block into extremal vertices
of the accumulated poset (minimal with minimal, maximal with maximal)
under the twelve-rule table. One predicate, ``_violation``, decides
whether a step is admissible: ``glue`` raises its message, and the
listing of a step's candidates, drawn from the minimal or maximal
elements on each role's side, keeps those it passes. Scripts replay
ordered steps, build the inductive one-form (add the block form,
subtract each merged extremal edge once), and keep a full audit in final
labels: each step's spec and poset, its relabeling and its map to the
final labels.

Script steps and random scripts take their blocks from one module-level
cache, keyed on the catalog row object and the size, so a batch of
scripts builds each (id, n) once; a row swapped into the catalog misses
the cache and is built fresh. Blocks are immutable, and a replay builds
new forms and posets rather than changing a block's. The cache lives
here and not in ``blocks.block``: a cache there would keep every
catalog instance alive in processes that visit each one once
(``verify-catalog``, the sweep's reach). Clearing the package's lru
caches empties it.
"""

from __future__ import annotations

import random
from functools import cache
from itertools import product
from typing import NamedTuple

from ..algebras import build_gA
from ..forms import ContactResult, OneForm, index
from ..posets import Poset, is_forest, json_int
from .blocks import block, family


class GlueError(ValueError):
    """A glue step violates the rule table."""


class ScriptError(ValueError):
    """A construction script is structurally invalid."""


class RuleSpec(NamedTuple):
    name: str
    identified: frozenset  # roles merged into existing vertices
    related: dict  # role -> True (must relate to x) / False (must not)
    index_delta: int  # contribution beyond ind(g_A(S)) per the delta table


RULES = {
    "A1": RuleSpec("A1", frozenset({"a1"}), {}, 0),
    "A2": RuleSpec("A2", frozenset({"a2"}), {}, 0),
    "B": RuleSpec("B", frozenset({"a1", "a2"}), {}, 1),
    "C": RuleSpec("C", frozenset({"c"}), {}, 0),
    "D1": RuleSpec("D1", frozenset({"c", "a1"}), {"a1": True}, 0),
    "D2": RuleSpec("D2", frozenset({"c", "a2"}), {"a2": True}, 0),
    "E1": RuleSpec("E1", frozenset({"c", "a1"}), {"a1": False}, 1),
    "E2": RuleSpec("E2", frozenset({"c", "a2"}), {"a2": False}, 1),
    "F": RuleSpec("F", frozenset({"c", "a1", "a2"}), {"a1": True, "a2": True}, 0),
    "G1": RuleSpec("G1", frozenset({"c", "a1", "a2"}), {"a1": True, "a2": False}, 1),
    "G2": RuleSpec("G2", frozenset({"c", "a1", "a2"}), {"a1": False, "a2": True}, 1),
    "H": RuleSpec("H", frozenset({"c", "a1", "a2"}), {"a1": False, "a2": False}, 2),
}

CONTACT_RULES = frozenset(name for name, rule in RULES.items() if rule.index_delta == 0)


class GlueResult(NamedTuple):
    poset: Poset
    q_map: dict  # old accumulated label -> new label
    s_map: dict  # block-intrinsic label -> new label


def _violation(q_poset, blk, rule, identify):
    """The first rule-table condition a glue step breaks, as the message
    ``glue`` raises, or None when ``glue`` accepts the step."""
    if set(identify) != rule.identified:
        return f"rule {rule.name} identifies roles {sorted(rule.identified)}, got {sorted(identify)}"
    if "a2" in rule.identified and "a2" not in blk.roles:
        return f"rule {rule.name} needs a block with three extremal elements"
    if len(set(identify.values())) != len(identify):
        return "identification targets must be distinct"
    for role, target in identify.items():
        if target not in range(1, q_poset.n + 1):
            return f"target {target} not in the accumulated poset"
        side = blk.role_side(role)
        pool = q_poset.minimal_elements if side == "min" else q_poset.maximal_elements
        if target not in pool:
            return (
                f"rule {rule.name}: role {role} is {side}imal in the block but "
                f"target {target} is not {side}imal in the accumulated poset"
            )
    # every rule with a relatedness condition identifies c
    for role, wanted in rule.related.items():
        if q_poset.related(identify["c"], identify[role]) != wanted:
            kind = "related" if wanted else "unrelated"
            return (
                f"rule {rule.name}: target of {role} must be {kind} to the "
                f"target of c in the accumulated poset"
            )
    return None


def glue(q_poset, blk, rule_name, identify):
    """Merge a block into the accumulated poset under a table rule."""
    rule = RULES.get(rule_name)
    if rule is None:
        raise GlueError(f"unknown gluing rule {rule_name!r}")
    identify = dict(identify or {})
    if (message := _violation(q_poset, blk, rule, identify)) is not None:
        raise GlueError(message)
    s_provisional = {}
    nxt = q_poset.n + 1
    inverse_roles = {label: role for role, label in blk.roles.items()}
    for p in blk.poset.elements:
        role = inverse_roles.get(p)
        if role in identify:
            s_provisional[p] = identify[role]
        else:
            s_provisional[p] = nxt
            nxt += 1
    total = nxt - 1
    relations = set(q_poset.relations)
    for (p, q) in blk.poset.relations:
        relations.add((s_provisional[p], s_provisional[q]))
    # merged vertices are extremal on both sides, so the union is closed
    for (p, q) in relations:
        assert p != q, "identification produced a reflexive relation"
    new_poset = Poset.from_closed(total, relations)
    relabel = new_poset.relabeling
    q_map = {p: relabel[p] for p in q_poset.elements}
    s_map = {p: relabel[s_provisional[p]] for p in blk.poset.elements}
    return GlueResult(new_poset, q_map, s_map)


@cache
def _row_block(row, n):
    """The block of one catalog row and size, built on first use."""
    return block(row.id, n)


def _catalog_block(block_id, n):
    """``blocks.block(block_id, n)``, built once per catalog row and size."""
    return _row_block(family(block_id, n), n)


class ScriptStep(NamedTuple):
    block_id: str
    n: int | None = None
    rule: str | None = None
    identify: tuple = ()  # sorted tuple of (role, label)

    def block(self):
        return _catalog_block(self.block_id, self.n)

    @property
    def kind(self):
        """The block's kind, read from its catalog row without building it."""
        return family(self.block_id, self.n).kind

    def to_json(self):
        data = {"block": {"id": self.block_id}}
        if self.n is not None:
            data["block"]["n"] = self.n
        if self.rule is not None:
            data["rule"] = self.rule
            data["identify"] = {role: label for role, label in self.identify}
        return data


class ConstructionScript:
    def __init__(self, steps):
        self.steps = steps
        if not steps:
            raise ScriptError("scripts need at least one step")
        first = self.steps[0]
        if first.rule is not None or first.identify:
            raise ScriptError("the first step must be a bare block")
        for step in self.steps[1:]:
            if step.rule is None:
                raise ScriptError("every step after the first needs a gluing rule")

    def __eq__(self, other):
        return type(other) is ConstructionScript and self.steps == other.steps

    def __repr__(self):
        return f"ConstructionScript(steps={self.steps!r})"

    def to_json(self):
        return {"steps": [s.to_json() for s in self.steps]}

    @classmethod
    def from_json(cls, data):
        try:
            steps = []
            for raw in data["steps"]:
                blk = raw["block"]
                block_id, n, rule = blk["id"], blk.get("n"), raw.get("rule")
                if not isinstance(block_id, str) or not (rule is None or isinstance(rule, str)):
                    raise TypeError("block ids and rule names must be strings")
                labels = raw.get("identify", {}).items()
                identify = tuple(sorted((role, json_int(label)) for role, label in labels))
                steps.append(
                    ScriptStep(
                        block_id=block_id,
                        n=None if n is None else json_int(n),
                        rule=rule,
                        identify=identify,
                    )
                )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ScriptError(f"malformed script JSON: {exc}") from exc
        return cls(steps)

    def contact_block_count(self):
        return sum(1 for s in self.steps if s.kind == "contact")

    def rules_used(self):
        return [s.rule for s in self.steps[1:]]


def is_contact_sequence(script):
    """Exactly one contact block and every rule in the index-preserving set."""
    if script.contact_block_count() != 1:
        return False
    return all(rule in CONTACT_RULES for rule in script.rules_used())


class StepAudit(NamedTuple):
    step: int
    spec: ScriptStep
    poset: Poset  # accumulated poset after this step, own labels
    added: list  # summand pairs, final labels
    subtracted: list
    block_map: dict  # intrinsic -> final labels
    relabel: dict  # previous step labels -> this step
    to_final: dict  # this step's labels -> final labels

    def to_json(self):
        spec = self.spec
        return {
            "step": self.step,
            "block": {"id": spec.block_id, **({"n": spec.n} if spec.n else {})},
            "rule": spec.rule,
            "identify": dict(spec.identify),
            "added_summands": [list(p) for p in sorted(self.added)],
            "subtracted_summands": [list(p) for p in sorted(self.subtracted)],
            "block_to_final": {str(k): v for k, v in sorted(self.block_map.items())},
            "poset_size": self.poset.n,
            "poset": self.poset.to_json(),
            "relabel": {str(k): v for k, v in sorted(self.relabel.items())},
            "to_final": {str(k): v for k, v in sorted(self.to_final.items())},
        }


class ScriptResult(NamedTuple):
    poset: Poset
    form: OneForm | None
    audits: list

    def audit_json(self):
        return {
            "steps": [a.to_json() for a in self.audits],
            "poset": self.poset.to_json(),
            "form": self.form.to_json() if self.form is not None else None,
            "verdicts": {
                "coefficients_unit": self.form is None
                or all(c == 1 for c in self.form.coeffs.values()),
                "connected": self.poset.is_connected(),
            },
        }


def run_script(script, build_form=True):
    """Replay a script: glue step by step and build the inductive form.

    The built form starts from the first block's form; each later step
    adds the block form in current labels and subtracts one copy of every
    merged extremal edge (the related identified sides of the rule),
    keeping all coefficients at one: one dict pass over both forms through
    the step's relabelings, and one validated ``OneForm`` per step.

    Each step keeps its summands and maps in its own labels until one
    backward pass builds its audit in final labels: the last step's labels
    are final, and each earlier step's map to them is its successor's
    relabeling followed by the successor's map.
    """
    steps = script.steps
    first_blk = steps[0].block()
    if build_form and any(step.kind == "contact" for step in steps[1:]):
        raise ScriptError(
            "form building places the contact block first; later steps "
            "must glue Frobenius blocks"
        )
    poset = first_blk.poset
    form = first_blk.form if build_form else None
    # per step: spec, poset after it, added, subtracted, s_map, q_map, in its own labels
    added = sorted(first_blk.form.support) if build_form else []
    trail = [(steps[0], poset, added, [], {p: p for p in poset.elements}, {})]
    for step in steps[1:]:
        blk = step.block()
        identify = dict(step.identify)
        result = glue(poset, blk, step.rule, identify)
        added = []
        subtracted = []
        if build_form:
            coeffs = {}
            for part, label in ((form, result.q_map), (blk.form, result.s_map)):
                for (p, q), c in part.coeffs.items():
                    key = label[p], label[q]
                    coeffs[key] = coeffs.get(key, 0) + c
            # s_map is one-to-one, so the block's pairs stay distinct
            added = sorted((result.s_map[p], result.s_map[q]) for p, q in blk.form.coeffs)
            for role in (r for r, wanted in RULES[step.rule].related.items() if wanted):
                x, other = result.q_map[identify["c"]], result.q_map[identify[role]]
                pair = (x, other) if blk.role_side("c") == "min" else (other, x)
                coeffs[pair] = coeffs.get(pair, 0) - 1
                subtracted.append(pair)
            if bad := {k: str(v) for k, v in coeffs.items() if v not in (0, 1)}:
                raise ScriptError(f"built form left coefficients other than one: {bad}")
            form = OneForm(result.poset, coeffs)
        poset = result.poset
        trail.append((step, poset, added, subtracted, result.s_map, result.q_map))
    audits = []
    to_final = {p: p for p in poset.elements}
    for idx, (spec, after, added, subtracted, s_map, q_map) in reversed([*enumerate(trail, 1)]):
        added = [(to_final[p], to_final[q]) for p, q in added]
        subtracted = [(to_final[p], to_final[q]) for p, q in subtracted]
        block_map = {k: to_final[v] for k, v in s_map.items()}
        audits.append(StepAudit(idx, spec, after, added, subtracted, block_map, q_map, to_final))
        to_final = {p: to_final[q] for p, q in q_map.items()}
    return ScriptResult(poset, form, audits[::-1])


def index_formula(poset, script):
    """Combinatorial index: |Rel_E| - |Ext| + contact blocks + 1."""
    ext = poset.extremal_data()
    return len(ext.rel_e) - len(ext.ext) + script.contact_block_count() + 1


def index_delta_check(q_poset, blk, rule_name, identify, seed=0):
    """(expected, computed) index change for one glue step."""
    result = glue(q_poset, blk, rule_name, identify)
    ind_s = index(build_gA(blk.poset), seed=seed)
    expected = ind_s + RULES[rule_name].index_delta
    before = index(build_gA(q_poset), seed=seed)
    after = index(build_gA(result.poset), seed=seed)
    return expected, after - before


def ext_hasse_has_cycle(poset):
    """Undirected cycle in the Hasse diagram of the extremal subposet.

    No element lies strictly between two extremal ones, so that diagram's
    edges are exactly the extremal relations Rel_E.
    """
    ext = poset.extremal_data()
    return not is_forest(ext.ext, ext.rel_e)


def disconnected_contact_check(poset, seed=0):
    """Disconnected posets are contact iff exactly two Frobenius components.

    Returns a ContactResult, true exactly when the poset is contact. Each
    component's index is the sampled ``index`` at ``forms.INDEX_TRIALS``
    draws from ``seed``.
    """
    comps = poset.connected_components()
    if len(comps) == 1:
        raise ValueError("the poset is connected; use the contact form tests instead")
    if len(comps) != 2:
        return ContactResult(False, f"{len(comps)} components")
    for comp in comps:
        sub = poset.induced_subposet(sorted(comp))
        if index(build_gA(sub), seed=seed) != 0:
            return ContactResult(False, "a component is not Frobenius")
    return ContactResult(True, "disjoint sum of two Frobenius posets")


_RANDOM_TORAL_POOL = (
    ("chain2", None),
    ("pendant_chain", 4),
    ("pendant_chain", 5),
    ("pendant_chain", 6),
    ("pendant_chain_dual", 4),
    ("pendant_chain_dual", 5),
    ("tree6", None),
    ("tree6_dual", None),
    ("diamond_stack", 1),
    ("diamond_stack_dual", 1),
    ("six_a", None),
    ("six_b", None),
    ("six_c", None),
    ("six_c_dual", None),
)

_RANDOM_CONTACT_POOL = (
    ("contact_chain3", None),
    ("contact_chain4", None),
    ("contact_fork", None),
    ("contact_fork_dual", None),
    ("contact_pendant_high", 5),
    ("contact_pendant_high", 6),
    ("contact_pendant_low", 6),
    ("contact_pendant_low_dual", 5),
)


def _valid_identifications(q_poset, blk, rule_name):
    """Every identification ``glue`` accepts under a rule, in lexicographic order.

    Each role draws its candidate targets from the accumulated poset's
    minimal or maximal elements on that role's side (none for a role the
    block lacks), and ``_violation`` keeps the admissible ones.
    """
    rule = RULES[rule_name]
    roles = sorted(rule.identified)
    sides = {"min": sorted(q_poset.minimal_elements), "max": sorted(q_poset.maximal_elements)}
    pools = (sides[blk.role_side(role)] if role in blk.roles else () for role in roles)
    candidates = (dict(zip(roles, targets)) for targets in product(*pools))
    return [c for c in candidates if _violation(q_poset, blk, rule, c) is None]


def random_toral_script(
    seed,
    length,
    allow_contact=False,
    rule_pool=None,
    max_dim=None,
):
    """Reproducible random script; the contact block, if any, comes first."""
    if length < 1:
        raise ScriptError("scripts need at least one step")
    rng = random.Random(seed)
    rules = sorted(rule_pool) if rule_pool else sorted(RULES)
    first_pool = _RANDOM_CONTACT_POOL if allow_contact else _RANDOM_TORAL_POOL
    bid, bn = first_pool[rng.randrange(len(first_pool))]
    steps = [ScriptStep(block_id=bid, n=bn)]
    poset = _catalog_block(bid, bn).poset
    for _ in range(length - 1):
        placed = False
        for _attempt in range(60):
            bid, bn = _RANDOM_TORAL_POOL[rng.randrange(len(_RANDOM_TORAL_POOL))]
            blk = _catalog_block(bid, bn)
            rule_name = rules[rng.randrange(len(rules))]
            options = _valid_identifications(poset, blk, rule_name)
            if not options:
                continue
            identify = options[rng.randrange(len(options))]
            result = glue(poset, blk, rule_name, identify)
            if max_dim is not None and result.poset.dim_gA > max_dim:
                continue
            steps.append(
                ScriptStep(
                    block_id=bid,
                    n=bn,
                    rule=rule_name,
                    identify=tuple(sorted(identify.items())),
                )
            )
            poset = result.poset
            placed = True
            break
        if not placed:
            break
    return ConstructionScript(steps)
