"""Exact sparse tensors and contraction-order planning.

Tensors are dictionaries from integer multi-indices to Fractions; a
*network* is a list of tensors plus a list of edges, each edge tying one
axis of one tensor to one axis of another.  Contracting the network sums
over all edge indices.  The planner chooses the pairwise merge order:
exhaustive subset dynamic programming when the network is narrow enough,
greedy minimum-intermediate-size otherwise.  The reported cost is the sum
of the sizes (index-space products) of every intermediate tensor, which is
also what the resource guard in the evaluator checks against.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

_ZERO = Fraction(0)


class SparseTensor:
    """An exact tensor: ``shape`` per axis, ``data`` index-tuple -> Fraction."""

    __slots__ = ("shape", "data")

    def __init__(self, shape, data=None):
        self.shape = tuple(int(s) for s in shape)
        self.data = {}
        if data:
            for k, v in (data.items() if isinstance(data, dict) else data):
                v = Fraction(v)
                if v:
                    self.data[tuple(k)] = v

    @classmethod
    def scalar(cls, value) -> "SparseTensor":
        return cls((), {(): Fraction(value)})

    @property
    def size(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    def item(self) -> Fraction:
        if self.shape:
            raise ValueError("tensor has free axes; not a scalar")
        return self.data.get((), _ZERO)

    def __eq__(self, other):
        return (isinstance(other, SparseTensor)
                and self.shape == other.shape and self.data == other.data)

    def __repr__(self):
        return f"SparseTensor(shape={self.shape}, nnz={len(self.data)})"


def contract_pair(a: SparseTensor, b: SparseTensor, pairs) -> SparseTensor:
    """Contract ``a`` and ``b`` over the axis pairs ``[(axis_a, axis_b), ...]``.

    Result axes: the free axes of ``a`` in order, then the free axes of
    ``b`` in order.
    """
    apos = [p for p, _ in pairs]
    bpos = [q for _, q in pairs]
    for p, q in pairs:
        if a.shape[p] != b.shape[q]:
            raise ValueError("contracted axes differ in dimension")
    aset, bset = set(apos), set(bpos)
    afree = [i for i in range(len(a.shape)) if i not in aset]
    bfree = [i for i in range(len(b.shape)) if i not in bset]
    groups = defaultdict(list)
    for k, v in b.data.items():
        groups[tuple(k[q] for q in bpos)].append(
            (tuple(k[i] for i in bfree), v))
    out: dict = {}
    for k, v in a.data.items():
        hits = groups.get(tuple(k[p] for p in apos))
        if not hits:
            continue
        head = tuple(k[i] for i in afree)
        for tail, w in hits:
            key = head + tail
            nv = out.get(key, _ZERO) + v * w
            if nv:
                out[key] = nv
            elif key in out:
                del out[key]
    shape = tuple(a.shape[i] for i in afree) + tuple(b.shape[i] for i in bfree)
    return SparseTensor(shape, out)


def trace_axes(a: SparseTensor, pairs) -> SparseTensor:
    """Sum over internal axis pairs of a single tensor."""
    hit = set()
    for p, q in pairs:
        if a.shape[p] != a.shape[q]:
            raise ValueError("traced axes differ in dimension")
        hit.add(p)
        hit.add(q)
    free = [i for i in range(len(a.shape)) if i not in hit]
    out: dict = {}
    for k, v in a.data.items():
        if any(k[p] != k[q] for p, q in pairs):
            continue
        key = tuple(k[i] for i in free)
        nv = out.get(key, _ZERO) + v
        if nv:
            out[key] = nv
        elif key in out:
            del out[key]
    return SparseTensor(tuple(a.shape[i] for i in free), out)


@dataclass(frozen=True)
class ContractionPlan:
    """A pairwise merge order over network node ids plus its cost estimate.

    ``order`` lists (i, j) merges; the merge result keeps id ``i``.  ``cost``
    is the sum of intermediate tensor sizes when executing the order.
    """

    order: tuple
    cost: int


# networks of at most this many nodes are planned exhaustively
DP_WIDTH = 8


def plan_contraction(node_axes, edges) -> ContractionPlan:
    """Choose a merge order for a network.

    ``node_axes``: per node, the tuple of axis dimensions.
    ``edges``: ((i, axis_i), (j, axis_j)) pairs with i != j allowed to
    repeat between the same nodes.  Axes not in any edge stay free.

    Exhaustive subset dynamic programming when there are at most
    ``DP_WIDTH`` nodes, greedy minimum-result-size otherwise.  Both are
    deterministic.
    """
    n = len(node_axes)
    if n == 0:
        return ContractionPlan((), 0)
    # per node: which of its axes pair off with which node
    adj = [defaultdict(list) for _ in range(n)]
    free_axes = [set(range(len(sh))) for sh in node_axes]
    for (i, ai), (j, aj) in edges:
        adj[i][j].append((ai, aj))
        adj[j][i].append((aj, ai))
        free_axes[i].discard(ai)
        free_axes[j].discard(aj)

    def merged_size(members):
        """Size of the tensor left after contracting all edges inside
        ``members``: free axes plus axes crossing the boundary."""
        out = 1
        for i in members:
            for ax in free_axes[i]:
                out *= node_axes[i][ax]
            for j, pairs in adj[i].items():
                if j not in members:
                    for ax, _ in pairs:
                        out *= node_axes[i][ax]
        return out

    if n <= DP_WIDTH:
        full = frozenset(range(n))
        best: dict = {}
        for i in range(n):
            best[frozenset((i,))] = (0, None)
        subsets = [frozenset(s) for k in range(2, n + 1)
                   for s in combinations(range(n), k)]
        for s in subsets:
            size_s = merged_size(s)
            choice = None
            members = sorted(s)
            anchor = members[0]
            for t in _proper_subsets_with(members, anchor):
                rest = s - t
                ct = best[t][0]
                cr = best[rest][0]
                c = ct + cr + size_s
                if choice is None or c < choice[0]:
                    choice = (c, (t, rest))
            best[s] = choice
        order = []

        def emit(s):
            if len(s) == 1:
                return min(s)
            t, rest = best[s][1]
            a = emit(t)
            b = emit(rest)
            i, j = (a, b) if a < b else (b, a)
            order.append((i, j))
            return i

        emit(full)
        return ContractionPlan(tuple(order), best[full][0])

    # greedy: repeatedly merge the pair with the smallest result size,
    # preferring connected pairs; deterministic tie-break by node ids
    groups = {i: frozenset((i,)) for i in range(n)}
    alive = sorted(groups)
    order = []
    cost = 0
    while len(alive) > 1:
        bestp = None
        for x in range(len(alive)):
            for y in range(x + 1, len(alive)):
                i, j = alive[x], alive[y]
                connected = any(k in groups[j]
                                for m in groups[i] for k in adj[m])
                size = merged_size(groups[i] | groups[j])
                rank = (not connected, size, i, j)
                if bestp is None or rank < bestp[0]:
                    bestp = (rank, i, j)
        _, i, j = bestp
        cost += merged_size(groups[i] | groups[j])
        groups[i] = groups[i] | groups[j]
        del groups[j]
        alive = sorted(groups)
        order.append((i, j))
    return ContractionPlan(tuple(order), cost)


def _proper_subsets_with(members, anchor):
    """All proper nonempty subsets of ``members`` containing ``anchor``."""
    rest = [m for m in members if m != anchor]
    for bits in product((0, 1), repeat=len(rest)):
        if all(bits) :
            continue
        yield frozenset([anchor] + [m for m, b in zip(rest, bits) if b])


def contract_network(tensors, edges, plan: ContractionPlan | None = None) -> SparseTensor:
    """Execute a network contraction, merging per ``plan`` (computed here
    when not supplied).  Free axes of the result appear in node order."""
    tensors = list(tensors)
    if plan is None:
        plan = plan_contraction([t.shape for t in tensors], edges)
    if not tensors:
        return SparseTensor.scalar(1)
    # axis bookkeeping: for each node, map live axis -> original (node, axis)
    axis_ids = [[(i, a) for a in range(len(t.shape))] for i, t in enumerate(tensors)]
    edge_of = {}
    for (i, ai), (j, aj) in edges:
        edge_of[(i, ai)] = (j, aj)
        edge_of[(j, aj)] = (i, ai)
    work = {i: t for i, t in enumerate(tensors)}
    for i, j in plan.order:
        a, b = work[i], work[j]
        ids_a, ids_b = axis_ids[i], axis_ids[j]
        pairs = []
        used_b = set()
        for pa, ida in enumerate(ids_a):
            other = edge_of.get(ida)
            if other is None:
                continue
            for pb, idb in enumerate(ids_b):
                if idb == other and pb not in used_b:
                    pairs.append((pa, pb))
                    used_b.add(pb)
                    break
        merged = contract_pair(a, b, pairs)
        apos = {p for p, _ in pairs}
        bpos = {q for _, q in pairs}
        ids = ([d for p, d in enumerate(ids_a) if p not in apos]
               + [d for q, d in enumerate(ids_b) if q not in bpos])
        work[i], axis_ids[i] = _trace_internal(merged, ids, edge_of)
        del work[j]
    (last,) = work
    return _trace_internal(work[last], axis_ids[last], edge_of)[0]


def _trace_internal(t: SparseTensor, ids, edge_of):
    """Trace the axis pairs of ``t`` that an edge joins to each other;
    returns the traced tensor and the original ids of its remaining axes."""
    internal = []
    seen = {}
    for p, d in enumerate(ids):
        other = edge_of.get(d)
        if other is not None and other in seen:
            internal.append((seen[other], p))
        seen[d] = p
    if not internal:
        return t, ids
    dead = {p for pq in internal for p in pq}
    return (trace_axes(t, internal),
            [d for p, d in enumerate(ids) if p not in dead])
