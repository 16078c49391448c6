"""Finite posets on labels 1..n with exact relation bookkeeping.

A poset stores its full set of strict relations (transitively closed)
and derives Hasse structure, extremal data, order-complex topology and
substructure predicates from it. Labels always satisfy the convention
p < q whenever p precedes q; constructors relabel by a linear extension
when the input violates it and record the permutation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .linalg import int_rank

ISO_SIZE_LIMIT = 12
# largest poset read from JSON: every catalog block and the timed chains
# (up to 20 elements) fit, a hostile "n" allocates nothing
JSON_SIZE_LIMIT = 32


def json_int(x):
    """``x`` if it is a JSON integer; TypeError for a float, a bool, a string or
    anything else, so that no JSON reader truncates or coerces a value."""
    if type(x) is not int:  # bool is a subclass of int
        raise TypeError(f"expected an integer, got {x!r}")
    return x


class PosetError(ValueError):
    """Invalid poset input."""


class CycleError(PosetError):
    """The cover digraph contains a directed cycle."""


class UnsupportedSizeError(PosetError):
    """Operation refused above its documented size cap."""


@dataclass(frozen=True)
class ExtremalData:
    minimal: frozenset
    maximal: frozenset
    ext: frozenset
    rel_e: frozenset


def _transitive_closure(n, pairs):
    up = {p: set() for p in range(1, n + 1)}
    for p, q in pairs:
        up[p].add(q)
    order = _linear_extension_order(n, pairs)
    closed = {p: set(up[p]) for p in up}
    for p in reversed(order):
        acc = set(closed[p])
        for q in up[p]:
            acc |= closed[q]
        closed[p] = acc
    return {(p, q) for p in closed for q in closed[p]}


def _linear_extension_order(n, pairs):
    """Kahn's algorithm with a min-heap; raises CycleError on cycles."""
    succ = {p: set() for p in range(1, n + 1)}
    indeg = {p: 0 for p in range(1, n + 1)}
    for p, q in set(pairs):
        if q not in succ[p]:
            succ[p].add(q)
            indeg[q] += 1
    heap = [p for p in range(1, n + 1) if indeg[p] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        p = heapq.heappop(heap)
        order.append(p)
        for q in sorted(succ[p]):
            indeg[q] -= 1
            if indeg[q] == 0:
                heapq.heappush(heap, q)
    if len(order) != n:
        raise CycleError("cover relation digraph contains a cycle")
    return order


class Poset:
    """Immutable finite poset; construct via ``from_covers`` or ``from_closed``."""

    def __init__(self, n, relations, relabeling=None, _validated=False):
        if n < 1:
            raise PosetError("posets must have at least one element")
        # a _validated caller (``from_closed``, the relabellings) passes int pairs
        relations = frozenset(relations if _validated else ((int(p), int(q)) for p, q in relations))
        if not _validated:
            for p, q in relations:
                if not (1 <= p <= n and 1 <= q <= n):
                    raise PosetError(f"relation ({p},{q}) out of range 1..{n}")
                if p >= q:
                    raise PosetError(f"relation ({p},{q}) violates the p<q label convention")
            for p, q in relations:
                for r, s in relations:
                    if q == r and (p, s) not in relations:
                        raise PosetError(f"relations are not transitively closed at ({p},{s})")
        self.n = n
        self.relations = relations
        self.relabeling = dict(relabeling) if relabeling else {p: p for p in range(1, n + 1)}

    @classmethod
    def from_covers(cls, n, covers):
        covers = [(int(p), int(q)) for p, q in covers]
        for p, q in covers:
            if not (1 <= p <= n and 1 <= q <= n):
                raise PosetError(f"cover ({p},{q}) out of range 1..{n}")
            if p == q:
                raise PosetError(f"cover ({p},{p}) is reflexive")
        return cls.from_closed(n, _transitive_closure(n, covers))  # raises CycleError

    @classmethod
    def from_closed(cls, n, relations):
        """Poset on a transitively closed relation set over labels 1..n.

        The labels are kept when p < q already holds; otherwise they are
        relabeled by a linear extension and the permutation is recorded.
        The input is trusted, not re-validated.
        """
        if all(p < q for p, q in relations):
            return cls(n, relations, _validated=True)
        order = _linear_extension_order(n, relations)
        relabel = {old: new for new, old in enumerate(order, start=1)}
        relabeled = {(relabel[p], relabel[q]) for p, q in relations}
        return cls(n, relabeled, relabeling=relabel, _validated=True)

    @classmethod
    def chain(cls, n):
        return cls.from_covers(n, [(i, i + 1) for i in range(1, n)])

    @classmethod
    def antichain(cls, n):
        return cls.from_covers(n, [])

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self.relations == other.relations

    def __hash__(self):
        return hash((self.n, self.relations))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={sorted(self.covers)})"

    def __len__(self):
        return self.n

    @property
    def elements(self):
        return range(1, self.n + 1)

    def related(self, p, q):
        return p == q or (p, q) in self.relations or (q, p) in self.relations

    @cached_property
    def up_sets(self):
        up = {p: set() for p in self.elements}
        for p, q in self.relations:
            up[p].add(q)
        return up

    @cached_property
    def down_sets(self):
        down = {p: set() for p in self.elements}
        for p, q in self.relations:
            down[q].add(p)
        return down

    @cached_property
    def covers(self):
        out = set()
        for p, q in self.relations:
            if not (self.up_sets[p] & self.down_sets[q]):
                out.add((p, q))
        return frozenset(out)

    @cached_property
    def minimal_elements(self):
        return frozenset(p for p in self.elements if not self.down_sets[p])

    @cached_property
    def maximal_elements(self):
        return frozenset(p for p in self.elements if not self.up_sets[p])

    def extremal_data(self):
        ext = self.minimal_elements | self.maximal_elements
        rel_e = frozenset((p, q) for p, q in self.relations if p in ext and q in ext)
        return ExtremalData(self.minimal_elements, self.maximal_elements, frozenset(ext), rel_e)

    def is_filter(self, subset):
        subset = set(subset)
        if not subset <= set(self.elements):
            raise PosetError("subset contains labels outside the poset")
        return all(q in subset for p in subset for q in self.up_sets[p])

    def is_ideal(self, subset):
        subset = set(subset)
        if not subset <= set(self.elements):
            raise PosetError("subset contains labels outside the poset")
        return all(q in subset for p in subset for q in self.down_sets[p])

    def connected_components(self):
        """Components of the comparability graph, in order of least label.

        The adjacency is built per call and not cached: the enumeration
        filters thousands of posets by connectivity."""
        adj = {p: [] for p in self.elements}
        for p, q in self.relations:
            adj[p].append(q)
            adj[q].append(p)
        seen = set()
        comps = []
        for start in self.elements:
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self):
        return len(self.connected_components()) == 1

    @cached_property
    def depth(self):
        """Length of the longest chain ending at each element."""
        depth = {}
        for p in self.elements:  # labels ascend along every relation
            depth[p] = max((depth[q] + 1 for q in self.down_sets[p]), default=0)
        return depth

    @cached_property
    def height(self):
        return max(self.depth.values())

    def ideals(self):
        """All down-closed subsets, as sorted tuples.

        Elements are decided in order of their down-set size, ties by
        label, each first left out and then put in, so the sequence is
        deterministic; ``sweep.enumerate_posets`` relies on this order.
        """
        order = sorted(self.elements, key=lambda p: len(self.down_sets[p]))
        down = self.down_sets
        current = set()

        def walk(i):
            if i == len(order):
                yield tuple(sorted(current))
                return
            e = order[i]
            yield from walk(i + 1)
            if down[e] <= current:
                current.add(e)
                yield from walk(i + 1)
                current.remove(e)

        return walk(0)

    def induced_subposet(self, subset):
        """Subposet on ``subset``, relabeled 1..|subset| in sorted label order."""
        subset = sorted(set(subset))
        if not subset:
            raise PosetError("induced subposet needs at least one element")
        if not set(subset) <= set(self.elements):
            raise PosetError("subset contains labels outside the poset")
        relabel = {old: i for i, old in enumerate(subset, start=1)}
        rels = {
            (relabel[p], relabel[q])
            for p, q in self.relations
            if p in relabel and q in relabel
        }
        return Poset(len(subset), rels, relabeling=relabel, _validated=True)

    def disjoint_sum(self, other):
        covers = list(self.covers) + [(p + self.n, q + self.n) for p, q in other.covers]
        return Poset.from_covers(self.n + other.n, covers)

    def dual(self):
        n = self.n
        rels = {(n + 1 - q, n + 1 - p) for p, q in self.relations}
        return Poset(n, rels, relabeling={p: n + 1 - p for p in self.elements}, _validated=True)

    # ----- order complex -------------------------------------------------

    def chains_by_size(self, max_size):
        """All chains of cardinality 1..max_size, keyed by cardinality."""
        out = {k: [] for k in range(1, max_size + 1)}
        up = self.up_sets

        def extend(chain):
            k = len(chain)
            out[k].append(tuple(chain))
            if k == max_size:
                return
            for q in sorted(up[chain[-1]]):
                chain.append(q)
                extend(chain)
                chain.pop()

        for p in self.elements:
            extend([p])
        for k in out:
            out[k].sort()
        return out

    def betti_numbers(self, max_dim):
        """Betti numbers beta_0..beta_max_dim of the order complex over Q."""
        faces = self.chains_by_size(min(max_dim + 2, self.height + 1))
        index = {
            k: {face: i for i, face in enumerate(faces[k])} for k in faces
        }
        ranks = {}
        for k in range(2, max_dim + 2 + 1):
            if k not in faces or not faces[k]:
                ranks[k] = 0
                continue
            cols = len(faces[k])
            rows = [{} for _ in faces[k - 1]]
            for j, face in enumerate(faces[k]):
                for drop in range(k):
                    sub = face[:drop] + face[drop + 1 :]
                    rows[index[k - 1][sub]][j] = (-1) ** drop
            ranks[k] = int_rank(rows, cols)
        betti = []
        for dim in range(max_dim + 1):
            k = dim + 1
            n_faces = len(faces.get(k, []))
            betti.append(n_faces - ranks.get(k, 0) - ranks.get(k + 1, 0))
        return betti

    # ----- isomorphism ----------------------------------------------------

    def isomorphism_to(self, other):
        """An order isomorphism as a dict, or None. Capped at 12 elements."""
        if self.n != other.n:
            return None
        key, mine = _canonical_labelling(self)
        other_key, theirs = _canonical_labelling(other)
        if key != other_key:
            return None
        back = {label: q for q, label in theirs.items()}
        return {p: back[label] for p, label in mine.items()}

    def is_isomorphic_to(self, other):
        return self.isomorphism_to(other) is not None

    # ----- serialization --------------------------------------------------

    def to_json(self):
        return {"n": self.n, "covers": [list(c) for c in sorted(self.covers)]}

    @classmethod
    def from_json(cls, data):
        try:
            n = json_int(data["n"])
            covers = [(json_int(p), json_int(q)) for p, q in data["covers"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise PosetError(f"malformed poset JSON: {exc}") from exc
        if n > JSON_SIZE_LIMIT:
            raise UnsupportedSizeError(
                f"poset JSON has n={n}; at most {JSON_SIZE_LIMIT} elements are supported"
            )
        return cls.from_covers(n, covers)

    def to_dot(self):
        lines = ["digraph poset {", "  rankdir=BT;"]
        by_rank = {}
        for p, d in self.depth.items():
            by_rank.setdefault(d, []).append(p)
        for d in sorted(by_rank):
            members = " ".join(f'"{p}"' for p in sorted(by_rank[d]))
            lines.append(f"  {{ rank=same; {members} }}")
        for p, q in sorted(self.covers):
            lines.append(f'  "{p}" -> "{q}";')
        lines.append("}")
        return "\n".join(lines)


def canonical_key(poset):
    """``(n, relations)`` under the canonical labelling; two posets get
    the same key exactly when they are isomorphic."""
    return poset.n, _canonical_labelling(poset)[0]


def _canonical_labelling(poset):
    """Least sorted relation tuple over the leaves of an individualise-and-
    refine search, with a labelling that attains it.

    Colours start at depth and are refined by the sorted colours of each
    down-set and up-set, numbered by signature rank, so every class is an
    antichain and classes come in depth order: each leaf labelling is a
    linear extension and keeps the p<q convention. Ties are broken in the
    first tied class, one branch per twin class (equal down- and up-sets),
    since swapping twins is an automorphism; the branch individualises the
    class's last element. The search grows as k! on k identical disjoint
    components, hence the cap. It runs on index lists built per call and
    caches nothing on the poset.
    """
    n = poset.n
    if n > ISO_SIZE_LIMIT:
        raise UnsupportedSizeError(f"isomorphism search is capped at {ISO_SIZE_LIMIT} elements")
    # element p is index p - 1
    rels = [(p - 1, q - 1) for p, q in poset.relations]
    down = [[] for _ in range(n)]
    up = [[] for _ in range(n)]
    for p, q in sorted(rels):
        up[p].append(q)
        down[q].append(p)
    depth = [0] * n
    for q in range(n):  # labels ascend along every relation
        depth[q] = max((depth[p] + 1 for p in down[q]), default=0)
    twin_ids = {}
    twin = [twin_ids.setdefault((tuple(down[p]), tuple(up[p])), p) for p in range(n)]

    def refine(colour):
        classes = len(set(colour))
        while classes < n:
            sig = [
                (
                    c,
                    tuple(sorted([colour[q] for q in down[p]])),
                    tuple(sorted([colour[q] for q in up[p]])),
                )
                for p, c in enumerate(colour)
            ]
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            if len(rank) == classes:
                break
            colour = [rank[s] for s in sig]
            classes = len(rank)
        return colour

    def leaves(colour):
        colour = refine(colour)
        tied = min((c for c in colour if colour.count(c) > 1), default=None)
        if tied is None:
            yield tuple(sorted((colour[p] + 1, colour[q] + 1) for p, q in rels)), colour
            return
        last = {}  # the last element of each twin class, classes in order of first element
        for p, c in enumerate(colour):
            if c == tied:
                last[twin[p]] = p
        for v in last.values():
            # v keeps colour tied, the rest of its class and later classes move up one
            marked = [c + (c > tied or (c == tied and p != v)) for p, c in enumerate(colour)]
            yield from leaves(marked)

    key, colour = min(leaves(depth), key=lambda leaf: leaf[0])
    return key, {p: c + 1 for p, c in enumerate(colour, start=1)}


def is_forest(vertices, edges):
    """True when the undirected graph on ``vertices`` has no cycle."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in edges:
        rp, rq = find(p), find(q)
        if rp == rq:
            return False
        parent[rp] = rq
    return True


def transitive_reduction(n, relations):
    """Covering pairs of an arbitrary (closed) strict relation set."""
    rel = set(relations)
    up = {p: {q for (a, q) in rel if a == p} for p in range(1, n + 1)}
    return {
        (p, q)
        for p, q in rel
        if not any(z in up[p] for z in range(1, n + 1) if (z, q) in rel)
    }


__all__ = [
    "CycleError",
    "ExtremalData",
    "ISO_SIZE_LIMIT",
    "JSON_SIZE_LIMIT",
    "Poset",
    "PosetError",
    "UnsupportedSizeError",
    "canonical_key",
    "is_forest",
    "transitive_reduction",
]
