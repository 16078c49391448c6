"""Finite posets on labels 1..n with exact relation bookkeeping.

A poset stores its full set of strict relations (transitively closed)
and derives Hasse structure, extremal data, order-complex topology and
substructure predicates from it. Labels always satisfy the convention
p < q whenever p precedes q; constructors relabel by a linear extension
when the input violates it and record the permutation.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from typing import NamedTuple

from .linalg import int_rank

# leaves an isomorphism search may visit: 24 is the most measured, on four
# disjoint 2-chains, over all 19,449 posets with n <= 8 and at most 4 on the
# ten contact-sequence replays of 65-76 elements (CI); six identical
# components (6! = 720 leaves) fit, seven do not
LEAF_BUDGET = 1000
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


class ExtremalData(NamedTuple):
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
    """Immutable finite poset; construct via ``from_covers`` or ``from_closed``.

    ``relabeling`` maps each input label to its label here, as a fresh dict on
    every read; it is stored only when the constructor relabelled."""

    _relabeling = None

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
        if relabeling:
            self._relabeling = dict(relabeling)

    @classmethod
    def from_covers(cls, n, covers):
        if n < 1:  # before Kahn's algorithm, which would call it a cycle
            raise PosetError("posets must have at least one element")
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

    @property
    def relabeling(self):
        return dict(self._relabeling or {p: p for p in self.elements})

    @property
    def dim_gA(self):
        """dim g_A = n − 1 + |Rel|, known before g_A is built."""
        return self.n - 1 + len(self.relations)

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
        return frozenset(self.elements) - {q for _, q in self.relations}

    @cached_property
    def maximal_elements(self):
        return frozenset(self.elements) - {p for p, _ in self.relations}

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

        Nothing is cached: the enumeration filters thousands of posets by
        connectivity."""
        find, _ = _union_find(self.elements, self.relations)
        comps = {}
        for p in self.elements:
            comps.setdefault(find(p), set()).add(p)
        return [frozenset(comp) for comp in comps.values()]

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
        deterministic; ``sweep.iter_posets`` relies on this order.
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
        """Betti numbers beta_0..beta_max_dim of the order complex over Q.

        The poset is first cut to its core (``_beat_core``): beat points
        are removed one at a time until none is left. Removing a beat
        point keeps the homotopy type of the order complex (Stong 1966,
        *Trans. AMS* 123; McCord 1966, *Duke Math. J.* 33), so the core
        has the same Betti numbers and the result stays exact. A
        one-point core is contractible and needs no elimination; any
        other core goes through the chain complex of its order complex.
        """
        if max_dim < 0:
            return []
        core = self._beat_core()
        if len(core) == 1:
            return [1] + [0] * max_dim
        return self.induced_subposet(core)._chain_complex_betti(max_dim)

    def _beat_core(self):
        """Elements left after removing beat points until none is left.

        A beat point has exactly one upper cover or exactly one lower
        cover. Removing x keeps every other cover and adds a ⋖ b for a
        lower cover a and an upper cover b of x with nothing else left
        strictly between them; the cover sets are updated that way as
        each point goes. Returns a set of labels; the core is unique up
        to isomorphism, whatever order the points go in.
        """
        up, down = self.up_sets, self.down_sets
        upper = {p: set() for p in self.elements}
        lower = {p: set() for p in self.elements}
        for p, q in self.covers:
            upper[p].add(q)
            lower[q].add(p)
        alive = set(self.elements)
        stack = list(self.elements)
        while stack:
            x = stack.pop()
            if x not in alive or (len(upper[x]) != 1 and len(lower[x]) != 1):
                continue
            alive.remove(x)
            below, above = lower.pop(x), upper.pop(x)
            for a in below:
                upper[a].discard(x)
            for b in above:
                lower[b].discard(x)
            for a in below:
                for b in above:
                    if alive.isdisjoint(up[a] & down[b]):
                        upper[a].add(b)
                        lower[b].add(a)
            stack.extend(below)
            stack.extend(above)
        return alive

    def _chain_complex_betti(self, max_dim):
        """Betti numbers from the ranks of the order complex's boundary maps."""
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
        """An order isomorphism as a dict, or None; ``UnsupportedSizeError`` past
        the search's ``LEAF_BUDGET``."""
        if self.n != other.n:
            return None
        key, mine = _canonical_labelling(self)
        other_key, theirs = _canonical_labelling(other)
        if key != other_key:
            return None
        back = {label: q for q, label in theirs.items()}
        return {p: back[label] for p, label in mine.items()}

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
    """``(n, bits)``: the least leaf of ``_canonical_labelling``'s search, its
    relations packed one-to-one into an int, bit (p - 1)·n + q - 1 per
    relation (p, q); two posets get the same key exactly when they are
    isomorphic."""
    return poset.n, _least_leaf(poset)[0]


def _canonical_labelling(poset):
    """Sorted relation tuple of the least leaf of an individualise-and-refine
    search (McKay & Piperno 2014), with a labelling that attains it.

    Down-sets, up-sets and colour classes are int bitmasks. Colours start
    at the rank of (depth, |down-set|, |up-set|) and are refined by each
    element's count of down-set and up-set members in every class
    (popcounts), numbered by signature rank, so every class is an antichain
    and classes come in depth order: each leaf labelling is a linear
    extension and keeps the p<q convention. Ties are broken in the first
    tied class, one branch per twin class (equal down- and up-sets), since
    swapping twins is an automorphism; the branch individualises the
    class's last element. Leaves compare as their packed relations
    (``canonical_key``). The search grows as k! on k identical disjoint
    components, so it stops past ``LEAF_BUDGET`` leaves. It caches nothing
    on the poset.
    """
    labelling = {p: c + 1 for p, c in enumerate(_least_leaf(poset)[1], start=1)}
    return tuple(sorted((labelling[p], labelling[q]) for p, q in poset.relations)), labelling


def _least_leaf(poset):
    """``(packed, colour)`` of the search's least leaf; element p is index p - 1."""
    n = poset.n
    down, up, depth = [0] * n, [0] * n, [0] * n
    rels = [(p - 1, q - 1) for p, q in sorted(poset.relations)]
    for p, q in rels:  # sorted, so depth[p] is final here
        up[p] |= 1 << q
        down[q] |= 1 << p
        if depth[q] <= depth[p]:
            depth[q] = depth[p] + 1
    start = [(depth[p], down[p].bit_count(), up[p].bit_count()) for p in range(n)]
    rank = {s: i for i, s in enumerate(sorted(set(start)))}
    stack = [([rank[s] for s in start], len(rank))]
    best = None
    leaves = 0
    while stack:
        colour, k = stack.pop()
        while k < n:
            masks = [0] * k
            for p, c in enumerate(colour):
                masks[c] |= 1 << p
            # a down-set meets only earlier classes, an up-set only later ones
            sig = [
                (c, tuple([(down[p] & m).bit_count() for m in masks[:c]]),
                 tuple([(up[p] & m).bit_count() for m in masks[c + 1:]]))
                if masks[c] & (masks[c] - 1) else (c,)
                for p, c in enumerate(colour)
            ]
            rank = {s: i for i, s in enumerate(sorted(set(sig)))}
            if len(rank) == k:
                break
            colour, k = [rank[s] for s in sig], len(rank)
        if k == n:
            leaves += 1
            if leaves > LEAF_BUDGET:
                raise UnsupportedSizeError(f"isomorphism search passed its budget of {LEAF_BUDGET} leaves")
            packed = sum([1 << (colour[p] * n + colour[q]) for p, q in rels])
            if best is None or packed < best[0]:
                best = packed, colour
            continue
        tied = next(c for c, m in enumerate(masks) if m & (m - 1))
        last = {}  # the last element of each twin class, classes in order of first element
        for p, c in enumerate(colour):
            if c == tied:
                last[down[p], up[p]] = p
        for v in last.values():
            # v keeps colour tied, the rest of its class and later classes move up one
            stack.append(([c + (c > tied or (c == tied and p != v)) for p, c in enumerate(colour)], k + 1))
    return best


def _union_find(vertices, edges):
    """``(find, acyclic)``: the root finder of the undirected graph on
    ``vertices`` with every edge joined, and whether each edge joined two
    different trees."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    acyclic = True
    for p, q in edges:
        rp, rq = find(p), find(q)
        acyclic = acyclic and rp != rq
        parent[rp] = rq
    return find, acyclic


def is_forest(vertices, edges):
    """True when the undirected graph on ``vertices`` has no cycle."""
    return _union_find(vertices, edges)[1]


def net_weights(poset):
    """net(x) = #{q : x < q} − #{p : p < x}; g_A's torus weights
    (wt(e_pq) = ε_p − ε_q, wt(h) = 0) sum to Σ_x net(x)·ε_x."""
    net = dict.fromkeys(poset.elements, 0)
    for p, q in poset.relations:
        net[p] += 1
        net[q] -= 1
    return net


def weight_excess(poset):
    """ex(P) = Σ_x max(0, net(x)), half of that sum's ℓ1-norm."""
    return sum(max(0, v) for v in net_weights(poset).values())


__all__ = [
    "CycleError",
    "ExtremalData",
    "JSON_SIZE_LIMIT",
    "LEAF_BUDGET",
    "Poset",
    "PosetError",
    "UnsupportedSizeError",
    "canonical_key",
    "is_forest",
    "net_weights",
    "weight_excess",
]
