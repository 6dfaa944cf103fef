"""Exact sparse tensors and contraction-order planning.

Tensors are dictionaries from integer multi-indices to Fractions; a
*network* is a list of tensors plus a list of edges, each edge tying one
axis of one tensor to one axis of another (or of the same tensor).
Contracting the network sums over all edge indices.

The planner reads only the network's shape: each edge's node pair and
dimension, and each node's free size (the product of its axes in no
edge).  Plans are memoized on that shape, so networks that differ only
in which axes an edge joins share one plan.  A set of nodes is an
integer bitmask; edge b is bit ``1 << b`` and a node's free axes are one
more bit.  Each node holds the XOR of its edges' bits, so the XOR over a
node set holds exactly the edges that cross it, and the size of the
tensor merged from the set is the product over dimensions d of d to the
popcount of its crossing edges of dimension d.  Every network is
planned by one rule.  The greedy minimum-intermediate-size planner plans
it to the end, preferring pairs that share an edge: it scores each such
pair once into a heap and, after a merge, scores only the merged node's
such pairs again, so it pops the pair a full rescan would choose, ties
broken by node ids; pairs that share no edge are scored only once no
pair shares one (a network of several components).  Its state is
kept where w = min(n, ``DP_WIDTH``) groups are left, before the first
merge when the network has at most ``DP_WIDTH`` nodes.  Its cost from
there on is weighed against the (3**w + 1) / 2 - 2**w splits that an
exhaustive subset dynamic program visits over w groups (3,025 for w =
8): when it is larger, that dynamic program plans those groups again,
each group as one node.  The greedy's own tree over them is among those
it searches, so the plan never costs more than the greedy one, and a
cheap greedy plan, not worth the search, is kept: it costs more than
the optimum by at most the search it saves.  The dynamic program visits
the sets in increasing order and walks each set's splits as submasks
of the set without its lowest group, in descending order; the first
cheapest split wins.  The reported cost is the sum of the sizes
(index-space products) of every intermediate tensor, which is also what
the resource guard in the evaluator checks against.  ``network_keys``
gives edge e the label e on both of its axes; the executor traces each
node's self-edges once and then merges tensors pairwise over the labels
they share, so a merged tensor never carries a label twice.

A network goes through three steps, each one function.
``plan_contraction`` plans it from its shape.  ``network_keys`` compiles
the network and its plan into a schedule: each tensor of the planned
network gets a structural key, a node's being its name (the caller's
word for which tensor it is), its shape and its self-edge pattern, and a
merge's being its two operands' keys and the positions of the axes it
sums on each.  ``contract_network`` runs a compiled schedule on the
node tensors, its merges in order, bottom-up, and reads nothing else,
so equal keys give equal tensors.  Networks contracted together, such
as the terms of one vector, often repeat a merge exactly.  A
``SharedMerges`` is built for one evaluation from the keys of all its
networks: it numbers each distinct merge and counts how often each
number occurs.  Given it, ``contract_network`` runs the same bottom-up
order, merges a number only at its first visit, reads it back at the
others and keeps it only until its last; the memo goes with the
evaluation, so nothing is carried from one call to the next.  A lone
network runs without it.  One check, ``_check_network``, validates a
network (every edge end is an axis, no axis is in two edges, an edge's
ends have one dimension), run by ``plan_contraction`` and
``network_keys`` only; ``contract_network`` checks just that its
tensors have the keyed leaves' shapes, with a memo or without.

Values are Fractions at the API and integers inside.  A tensor keeps,
beside its Fraction entries, their numerators over one common
denominator (the lcm of theirs), computed once when it is built; a
tensor is not mutated after that.  The executor multiplies and adds
those integers, a merge's denominator is the product of its operands',
and only the final result is divided back into Fractions.

``_contract_pair`` runs the executor's one merge, ``_merge``, on two
SparseTensors outside any network: ``lie`` checks and derives an
algebra's tensors (Jacobi, metric invariance, representation brackets,
f, raised axes) with it, so the package has one contraction kernel.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import lcm, prod
from operator import itemgetter
from typing import NamedTuple

_ZERO = Fraction(0)


class SparseTensor:
    """An exact tensor: ``shape`` per axis, ``data`` index-tuple -> Fraction,
    with no zero entries.  ``nums`` holds the same entries as integers over
    the common denominator ``den``.  A tensor is not mutated once built."""

    __slots__ = ("shape", "data", "nums", "den")

    def __init__(self, shape, data=None):
        self.shape = tuple(int(s) for s in shape)
        self.data = {}
        if data:
            for k, v in data.items():
                v = Fraction(v)
                if v:
                    self.data[tuple(k)] = v
        self.den = lcm(*(v.denominator for v in self.data.values()))
        self.nums = {k: v.numerator * (self.den // v.denominator)
                     for k, v in self.data.items()}

    def item(self) -> Fraction:
        if self.shape:
            raise ValueError("tensor has free axes; not a scalar")
        return self.data.get((), _ZERO)

    def __eq__(self, other):
        return (isinstance(other, SparseTensor)
                and self.shape == other.shape and self.data == other.data)

    def __repr__(self):
        return f"SparseTensor(shape={self.shape}, nnz={len(self.data)})"


class ContractionPlan(NamedTuple):
    """A pairwise merge order over network node ids plus its cost estimate.

    ``order`` lists (i, j) merges; the merge result keeps id ``i``.  ``cost``
    is the sum of intermediate tensor sizes when executing the order.
    """

    order: tuple
    cost: int


# the exact DP plans at most this many groups: the last ones the greedy
# leaves, when it pays
DP_WIDTH = 8
# _DP_SPLITS[w]: the splits the exact DP visits over w groups, one per
# unordered pair of disjoint nonempty sets: (3**w + 1) / 2 - 2**w
_DP_SPLITS = tuple((3 ** w + 1) // 2 - 2 ** w for w in range(DP_WIDTH + 1))


def plan_contraction(node_axes, edges) -> ContractionPlan:
    """Choose a merge order for a network.

    ``node_axes``: per node, the tuple of axis dimensions.
    ``edges``: ((i, axis_i), (j, axis_j)) pairs, possibly repeating
    between the same nodes, with i == j allowed.  Axes not in any edge
    stay free.

    Greedy minimum-result-size, then, when the greedy's merges after
    w = min(n, ``DP_WIDTH``) groups are left (all of them when n <=
    ``DP_WIDTH``) cost more than the (3**w + 1) / 2 - 2**w splits an
    exhaustive subset dynamic program visits over w groups, those groups
    are planned again by that dynamic program, which never costs more
    than the greedy merges it replaces; cheaper ones are not worth the
    search and stay greedy.  So at every width the plan, and its cost,
    can depend on how the nodes are numbered.  All of it is
    deterministic.  A plan reads only each edge's node pair and
    dimension and each node's free size, so it is memoized on those.
    Raises ValueError when an edge end is not an int node and an int
    axis of that node, counted from 0, an axis is in more than one edge,
    or an edge joins axes of different dimensions (``_check_network``).
    """
    _check_network(node_axes, edges)
    free = [list(shape) for shape in node_axes]  # an edge's axes become 1
    bonds = []
    for (i, ai), (j, aj) in edges:
        bonds.append((min(i, j), max(i, j), node_axes[i][ai]))
        free[i][ai] = free[j][aj] = 1
    return _plan_shape(tuple(sorted(bonds)), tuple(map(prod, free)))


def _check_network(shapes, edges):
    """Raise ValueError unless each edge end (i, a) is an axis: int i and a
    (not bool) with 0 <= i < len(shapes) and 0 <= a < len(shapes[i]) (a
    negative one would alias another axis); no axis is in more than one
    edge; and the two ends of each edge have the same dimension."""
    ends = [end for edge in edges for end in edge]
    for i, a in ends:
        if not (type(i) is int and type(a) is int
                and 0 <= i < len(shapes) and 0 <= a < len(shapes[i])):
            raise ValueError(f"edge end {(i, a)!r} is not an axis of the network")
    if len(set(ends)) < len(ends):
        raise ValueError("an axis is in more than one edge")
    for (i, ai), (j, aj) in edges:
        if shapes[i][ai] != shapes[j][aj]:
            raise ValueError("an edge joins axes of different dimensions")


@lru_cache(maxsize=4096)
def _plan_shape(bonds, free) -> ContractionPlan:
    """The plan of a network of sorted (i, j, dimension) bonds whose node i
    has free axes of total size ``free[i]``."""
    n = len(free)
    if n == 0:
        return ContractionPlan((), 0)
    # Bond b is bit 1 << b, and node i's free axes are one more bond, to an
    # outside node n (left out at size 1).  A node's crossing mask is the XOR
    # of its bonds' bits (a self-edge cancels), so the XOR over a node set
    # holds exactly the bonds with one end in it, and the size of the tensor
    # merged from the set is the product over dimensions d of
    # d ** popcount(mask & bonds of dimension d), read from a list of powers.
    outside = tuple((i, n, d) for i, d in enumerate(free) if d != 1)
    cross = [0] * (n + 1)
    of_dim: dict = {}
    for b, (i, j, d) in enumerate(bonds + outside):
        cross[i] ^= 1 << b
        cross[j] ^= 1 << b
        of_dim[d] = of_dim.get(d, 0) | 1 << b
    dims = tuple((m, [d ** k for k in range(m.bit_count() + 1)])
                 for d, m in of_dim.items())

    def size(mask):
        out = 1
        for m, power in dims:
            out *= power[(mask & m).bit_count()]
        return out

    # greedy: repeatedly merge the pair with the smallest result size,
    # preferring connected pairs (whose crossing masks share a bond);
    # deterministic tie-break by node ids.  cut[i]: the crossing mask of
    # the live group kept as node i, in ascending order of i.  The heap
    # holds every connected pair, scored with the stamps its nodes had
    # then; a merge into i bumps i's stamp, retires j's and scores i's
    # connected pairs again, and a popped pair with a stamp that is no
    # longer its node's is skipped, so the first pair kept is the least
    # connected pair.  When none is left, no merge can make one, so from
    # then on every pair is scored (``apart``).  tail: the groups'
    # crossing masks and ids, the merges and their cost when
    # min(n, DP_WIDTH) groups are left (before the first merge when
    # n <= DP_WIDTH), for the DP to plan the rest again when the greedy's
    # cost from there on exceeds the DP's own work.
    cut = dict(enumerate(cross[:n]))
    tail = cross[:n], range(n), 0, 0
    stamp = [0] * n
    heap = [(size(cut[i] ^ cut[j]), i, j, 0, 0)
            for i in range(n) for j in range(i + 1, n) if cut[i] & cut[j]]
    heapify(heap)
    apart = False
    order = []
    cost = 0
    while len(cut) > 1:
        if not heap:
            apart = True
            heap = [(size(cut[i] ^ cut[j]), i, j, stamp[i], stamp[j])
                    for i in cut for j in cut if i < j]
            heapify(heap)
        s, i, j, si, sj = heappop(heap)
        if stamp[i] != si or stamp[j] != sj:
            continue
        cost += s
        ci = cut[i] ^ cut.pop(j)
        cut[i] = ci
        stamp[i] += 1
        stamp[j] = -1
        order.append((i, j))
        if len(cut) == DP_WIDTH:
            tail = list(cut.values()), list(cut), len(order), cost
        for k, ck in cut.items():
            if k != i and (apart or ci & ck):
                a, b = (i, k) if i < k else (k, i)
                heappush(heap, (size(ci ^ ck), a, b, stamp[a], stamp[b]))
    masks, ids, done, before = tail
    if cost - before > _DP_SPLITS[len(masks)]:
        return _subset_dp(masks, ids, size, order[:done], before)
    return ContractionPlan(tuple(order), cost)


def _subset_dp(cross, ids, size, order, cost) -> ContractionPlan:
    """The exact plan merging len(cross) <= DP_WIDTH groups, group k kept
    as node ``ids[k]`` (ascending) with crossing mask ``cross[k]``, after
    the merges ``order`` of total cost ``cost``: the cheapest tree over
    the groups, the first cheapest split winning, with a merge keeping
    the lower id."""
    # best[s]: cheapest cost of merging s; split[s]: the part of s that
    # holds its lowest group, the first of the cheapest splits as the
    # part's other groups run through the submasks of the rest of s in
    # descending order; cut[s]: the crossing mask of s.  Sets grow, so
    # every part is done first.
    n = len(cross)
    full = (1 << n) - 1
    best = [0] * (full + 1)
    split = [0] * (full + 1)
    cut = [0] * (full + 1)
    for k in range(n):
        cut[1 << k] = cross[k]
    for s in range(1, full + 1):
        low = s & -s
        rest = sub = s ^ low
        if not rest:
            continue
        cut[s] = cut[rest] ^ cut[low]
        top = None
        while sub:
            sub = (sub - 1) & rest
            c = best[low | sub] + best[rest ^ sub]
            if top is None or c < top:
                top, split[s] = c, low | sub
        best[s] = top + size(cut[s])

    def emit(s):
        if not s & (s - 1):
            return ids[s.bit_length() - 1]
        i, j = emit(split[s]), emit(s ^ split[s])
        order.append((i, j))
        return i

    emit(full)
    return ContractionPlan(tuple(order), cost + best[full])


def contract_network(tensors, keys, shared=None) -> SparseTensor:
    """Run the schedule ``keys``, a network's ``network_keys``, on its
    node tensors: the merges in order, bottom-up.

    Each merge puts the kept node's free axes first, then the merged
    node's, so the result's free axes follow the plan, not node order.
    The network and its plan were checked when ``keys`` were compiled;
    here only tensors without the keyed leaves' shapes, count included,
    raise ValueError.  A network of no nodes is the scalar 1.

    ``shared`` is ``(memo, n)`` when ``keys`` are those of network n of
    the ``SharedMerges`` memo: the merges run in the same order, but one
    whose number the memo keeps is read back rather than merged, and each
    read counts down its number's visits.
    """
    tensors = list(tensors)
    leaves, merges = keys
    if [t.shape for t in tensors] != [shape for _, shape, _ in leaves]:
        raise ValueError("the tensors are not the leaves the network was keyed with")
    work = list(map(_trace, leaves, tensors))
    if shared is None:
        for a, b, apos, bpos in merges:
            work.append(_merge(apos, bpos, *work[a], *work[b]))
            work[a] = work[b] = None
    else:
        memo, n = shared
        visits, kept = memo.visits, memo.kept
        for k, (a, b, apos, bpos) in zip(memo.numbers[n], merges):
            t = kept.pop(k, None) or _merge(apos, bpos, *work[a], *work[b])
            visits[k] -= 1
            if visits[k]:
                kept[k] = t
            work.append(t)
            work[a] = work[b] = None
    shape, nums, den = work[-1] if work else ((), {(): 1}, 1)
    return SparseTensor(shape, {k: Fraction(v, den) for k, v in nums.items()})


def network_keys(names, shapes, edges, plan: ContractionPlan):
    """Compile a network and its plan into the structural keys of its
    tensors, ``(leaves, merges)``: the schedule ``contract_network`` runs.

    Node i has the tuple of axis dimensions ``shapes[i]`` and is named by
    the hashable ``names[i]``.  Edge e labels both of its axes e, and a
    free axis keeps its own (node, axis) label.  ``leaves[i]`` is node i
    with its self-edges traced: ``(names[i], shapes[i], pattern)``, the
    pattern None without a self-edge and otherwise giving, per axis, the
    first axis of the node with the same label.  ``merges[s]`` is merge s
    of ``plan`` as ``(a, b, apos, bpos)``: the operands are the tensors at
    positions a and b, position i < len(leaves) being leaf i and
    len(leaves) + s the result of merge s, and the axes at ``apos`` of the
    first carry the labels of those at ``bpos`` of the second, in that
    order, and are summed out, so no tensor carries a label twice.  Equal
    keys (a leaf's, or a merge's operands' keys and positions) give equal
    tensors, of one network or two, as long as equal names stand for
    equal tensors: the executor reads nothing else.  Raises ValueError
    for a network ``_check_network`` refuses, a merge of a node that is
    not live, or a plan that leaves more than one tensor.
    """
    _check_network(shapes, edges)
    labels = [[(i, p) for p in range(len(shape))] for i, shape in enumerate(shapes)]
    patterns = [None] * len(labels)
    for e, ((i, ai), (j, aj)) in enumerate(edges):
        labels[i][ai] = labels[j][aj] = e
        if i == j:
            patterns[i] = ()
    for i, pattern in enumerate(patterns):
        if pattern is not None:
            labs = labels[i]
            patterns[i] = tuple(map(labs.index, labs))
            labels[i] = [lab for lab in labs if labs.count(lab) == 1]
    live = dict(enumerate(labels))  # node -> labels of its tensor
    at = list(range(len(labels)))   # node -> position of its tensor
    merges = []
    for i, j in plan.order:
        if i == j or i not in live or j not in live:
            raise ValueError(f"the plan merges ({i}, {j}), not two live nodes")
        la, lb = live[i], live.pop(j)
        apos, bpos, kept = [], [], []
        for p, lab in enumerate(la):
            if lab in lb:
                apos.append(p)
                bpos.append(lb.index(lab))
            else:
                kept.append(lab)
        live[i] = kept + [lab for lab in lb if lab not in la]
        merges.append((at[i], at[j], tuple(apos), tuple(bpos)))
        at[i] = len(labels) + len(merges) - 1
    if len(live) > 1:
        raise ValueError(f"the plan leaves {len(live)} tensors, not one")
    return tuple(zip(names, shapes, patterns)), tuple(merges)


class SharedMerges:
    """The networks of one evaluation, each distinct merge contracted once.

    Built from each network's ``network_keys``.  Keys are numbered here, a
    leaf by its key and a merge by its operands' numbers and positions, so
    equal numbers mean equal keys, and the object, meant to live for one
    evaluation, keeps nothing from an earlier one.  ``numbers[n]`` lists
    the numbers of network n's merges in schedule order, and ``visits``
    counts how often each number occurs over all networks.
    ``contract_network`` merges a number at its first visit, in whatever
    order the networks run, and keeps the result in ``kept`` only until
    its last.
    """

    def __init__(self, networks):
        ids: dict = {}
        self.numbers = []       # network -> the numbers of its merges
        self.kept: dict = {}    # merge number -> its result, while visited again
        for leaves, merges in networks:
            at = [ids.setdefault(leaf, len(ids)) for leaf in leaves]
            for a, b, apos, bpos in merges:
                at.append(ids.setdefault((at[a], at[b], apos, bpos), len(ids)))
            self.numbers.append(at[len(leaves):])
        # merge number -> visits still to come
        self.visits = Counter(k for numbers in self.numbers for k in numbers)


# Inside the executor a tensor is (shape, {index: int}, den): its value at
# an index is that integer over den, and absent indices are zero.


def _trace(leaf, t):
    """The executor's form of tensor t, keyed by ``leaf`` in
    ``network_keys``: the two axes of each self-edge summed out."""
    _, shape, pattern = leaf
    if pattern is None:
        return shape, t.nums, t.den
    keep = [p for p, q in enumerate(pattern) if pattern.count(q) == 1]
    out: dict = {}
    for k, v in t.nums.items():
        if all(k[p] == k[q] for p, q in enumerate(pattern)):
            key = tuple(k[p] for p in keep)
            out[key] = out.get(key, 0) + v
    return (tuple(shape[p] for p in keep),
            {k: v for k, v in out.items() if v}, t.den)


def _contract_pair(a: SparseTensor, b: SparseTensor, apos, bpos) -> SparseTensor:
    """a and b contracted by ``_merge``: the axes at ``apos`` of a summed
    against those at ``bpos`` of b; the other axes of a, then those of b."""
    shape, nums, den = _merge(apos, bpos, a.shape, a.nums, a.den, b.shape, b.nums, b.den)
    return SparseTensor(shape, {k: Fraction(v, den) for k, v in nums.items()})


def _picker(pos):
    """A function from an index to the tuple of its entries at ``pos``:
    ``itemgetter`` where it returns a tuple, as it is much faster than a
    generator; it returns a bare entry for a single position."""
    if len(pos) > 1:
        return itemgetter(*pos)
    if pos:
        return lambda k, p=pos[0]: (k[p],)
    return lambda k: ()


def _merge(apos, bpos, ashape, anums, aden, bshape, bnums, bden):
    """Contract two tensors, summing the axes at ``apos`` of the first
    against those at ``bpos`` of the second.  Result axes: the other axes
    of the first in order, then those of the second."""
    afree = [p for p in range(len(ashape)) if p not in apos]
    bfree = [q for q in range(len(bshape)) if q not in bpos]
    bkey, btail, akey, ahead = map(_picker, (bpos, bfree, apos, afree))
    groups = defaultdict(list)
    for k, v in bnums.items():
        groups[bkey(k)].append((btail(k), v))
    out: dict = {}
    for k, v in anums.items():
        hits = groups.get(akey(k))
        if not hits:
            continue
        head = ahead(k)
        for tail, w in hits:
            key = head + tail
            out[key] = out.get(key, 0) + v * w
    return (tuple(ashape[p] for p in afree) + tuple(bshape[q] for q in bfree),
            {k: v for k, v in out.items() if v}, aden * bden)
