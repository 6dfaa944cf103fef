"""Independent reference implementations used to pin down the package.

Everything here is deliberately dumb and written straight from first
principles (explicit bijections, all-matchings recursion, closed-form
counts), so the fast implementations in ``weightsys`` can be checked
against code that shares none of their cleverness.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from weightsys.diagrams import Diagram, validate

# ---------------------------------------------------------------------------
# hand-built diagrams (raw half-edge data, checked through validate())


def strut() -> Diagram:
    """Two legs joined by one edge."""
    return validate("B", legs=(0, 1), pairing=((0, 1),))


def theta_closed() -> Diagram:
    """Two internal vertices joined by three edges (no legs)."""
    return validate("B", internal=((0, 1, 2), (3, 4, 5)),
                    pairing=((0, 3), (1, 4), (2, 5)))


def wheel(k: int) -> Diagram:
    """A k-cycle of internal vertices, each carrying one leg.

    Vertex i has the triple (to previous rim vertex, to next rim vertex,
    spoke); spoke i is paired with leg i.
    """
    if k < 2:
        raise ValueError("wheel needs at least 2 rim vertices")
    triples = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k))
    legs = tuple(3 * k + i for i in range(k))
    pairing = [(3 * i + 1, 3 * ((i + 1) % k)) for i in range(k)]
    pairing += [(3 * i + 2, 3 * k + i) for i in range(k)]
    return validate("B", internal=triples, legs=legs, pairing=pairing)


def k4() -> Diagram:
    """The tetrahedron: four internal vertices, all pairs joined."""
    return validate("B", internal=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
                    pairing=((0, 3), (1, 6), (2, 9), (4, 7), (5, 10), (8, 11)))


def ladder() -> Diagram:
    """Four internal vertices: two doubled edges joined by two single edges."""
    return validate("B", internal=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
                    pairing=((0, 3), (1, 4), (6, 9), (7, 10), (2, 8), (5, 11)))


def y_vertex() -> Diagram:
    """One internal vertex with three legs (zero by antisymmetry)."""
    return validate("B", internal=((0, 1, 2),), legs=(3, 4, 5),
                    pairing=((0, 3), (1, 4), (2, 5)))


def two_leg_pair() -> Diagram:
    """Two vertices joined by an edge, two legs each (zero by antisymmetry)."""
    return validate("B", internal=((0, 1, 2), (3, 4, 5)), legs=(6, 7, 8, 9),
                    pairing=((0, 6), (1, 7), (3, 8), (4, 9), (2, 5)))


def handcuff() -> Diagram:
    """Two vertices with a tadpole each, joined by an edge (zero)."""
    return validate("B", internal=((0, 1, 2), (3, 4, 5)),
                    pairing=((0, 1), (3, 4), (2, 5)))


def chord() -> Diagram:
    """One chord on the circle."""
    return validate("A", skeleton=(0, 1), pairing=((0, 1),))


def tripod() -> Diagram:
    """One internal vertex with all three half-edges on the circle."""
    return validate("A", internal=((3, 4, 5),), skeleton=(0, 1, 2),
                    pairing=((0, 3), (1, 4), (2, 5)))


def chord_with_theta_float() -> Diagram:
    """A chord together with a floating closed theta component."""
    return validate("A", internal=((2, 3, 4), (5, 6, 7)), skeleton=(0, 1),
                    pairing=((0, 1), (2, 5), (3, 6), (4, 7)))


def corpus():
    """Diagrams exercising every structural feature; (diagram, nonzero)."""
    return [
        (strut(), True),
        (theta_closed(), True),
        (wheel(2), True),
        (wheel(3), False),  # odd wheels reverse under a rim reflection
        (wheel(4), True),
        (k4(), True),
        (ladder(), True),
        (y_vertex(), False),
        (two_leg_pair(), False),
        (handcuff(), False),
        (chord(), True),
        (tripod(), True),
        (chord_with_theta_float(), True),
    ]


# ---------------------------------------------------------------------------
# random relabelings


def relabel_randomly(d: Diagram, rng: random.Random):
    """A structurally identical diagram under fresh half-edge names.

    Applies, independently: a sparse random renaming of half-edge ids, a
    random rotation of each triple, a random reflection of each triple
    (each reflection flips the diagram's sign; the product is returned),
    a shuffle of the triple list, of the leg list and of the pairing list,
    and a rotation of the skeleton. Returns ``(diagram, sign)`` with
    ``sign`` in {+1, -1} the accumulated orientation change.
    """
    hes = sorted(d.half_edges())
    names = rng.sample(range(10 * len(hes) + 20), len(hes))
    rng.shuffle(names)
    m = dict(zip(hes, names))
    sign = 1
    triples = []
    for (a, b, c) in d.triples:
        r = rng.randrange(3)
        t = ((a, b, c), (b, c, a), (c, a, b))[r]
        if rng.random() < 0.5:
            t = (t[2], t[1], t[0])
            sign = -sign
        triples.append(tuple(m[h] for h in t))
    rng.shuffle(triples)
    legs = [m[g] for g in d.legs]
    rng.shuffle(legs)
    skeleton = None
    if d.skeleton is not None:
        e = len(d.skeleton)
        r = rng.randrange(e) if e else 0
        skeleton = tuple(m[d.skeleton[(r + i) % e]] for i in range(e))
    pairing = [rng.sample((m[a], m[b]), 2) for a, b in d.pairing]
    rng.shuffle(pairing)
    return validate(d.space, internal=triples, legs=legs, skeleton=skeleton,
                    pairing=pairing, free_loops=d.free_loops), sign


# ---------------------------------------------------------------------------
# connected components by merging to a fixed point


def components_naive(d: Diagram) -> set:
    """The half-edge sets of d's connected components: start from one set
    per vertex, edge, leg and skeleton circle, and merge any two sets that
    meet until none do."""
    parts = [set(t) for t in d.triples] + [set(p) for p in d.pairing]
    parts += [{g} for g in d.legs] + ([set(d.skeleton)] if d.skeleton else [])
    merged = True
    while merged:
        merged = False
        for x, y in itertools.combinations(parts, 2):
            if x & y:
                x |= y
                parts.remove(y)
                merged = True
                break
    return {frozenset(x) for x in parts}


# ---------------------------------------------------------------------------
# brute-force isomorphism: try every structure-preserving bijection


def brute_isomorphism_signs(d1: Diagram, d2: Diagram) -> set:
    """The set of signs of explicit isomorphisms d1 -> d2 (empty if none).

    Tries every vertex bijection, every rotation/reflection of each triple,
    every leg bijection and every skeleton rotation. {+1,-1} means the
    diagrams agree up to an orientation-reversing symmetry (so the class is
    zero by antisymmetry); factorial cost, only for small diagrams.
    """
    if (d1.space != d2.space or d1.v != d2.v or d1.l != d2.l
            or d1.e != d2.e or d1.free_loops != d2.free_loops):
        return set()
    pairs2 = {frozenset(p) for p in d2.pairing}
    e = d1.e
    signs = set()
    reps = []
    for (a, b, c) in d2.triples:
        reps.append((((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                     ((c, b, a), -1), ((b, a, c), -1), ((a, c, b), -1)))
    for sigma in itertools.permutations(range(d2.v)):
        for choice in itertools.product(*(reps[sigma[i]] for i in range(d1.v))):
            phi = {}
            s = 1
            for i, (t2, si) in enumerate(choice):
                t1 = d1.triples[i]
                phi[t1[0]], phi[t1[1]], phi[t1[2]] = t2
                s *= si
            for legmap in itertools.permutations(d2.legs):
                phi2 = dict(phi)
                for g1, g2 in zip(d1.legs, legmap):
                    phi2[g1] = g2
                rotations = range(e) if e else (0,)
                for r in rotations:
                    phi3 = dict(phi2)
                    for p in range(e):
                        phi3[d1.skeleton[p]] = d2.skeleton[(p + r) % e]
                    if all(frozenset((phi3[a], phi3[b])) in pairs2
                           for a, b in d1.pairing):
                        signs.add(s)
                    if len(signs) == 2:
                        return signs
    return signs


def brute_automorphisms(d: Diagram) -> set:
    """Every structure-preserving map of d's half-edges onto themselves,
    each as the tuple of images of the sorted half-edges.

    As in :func:`brute_isomorphism_signs`, a map rotates the skeleton,
    sends each vertex triple onto a triple in any of its six orders and
    each leg onto a leg, and must send edges onto edges. The choices are
    tried one vertex, then one leg, at a time, and a partial map is dropped
    once an edge with both ends mapped lands on a non-edge; vertices go in
    breadth-first order, so that each one after the first of its component
    meets a mapped edge. Only for small diagrams.
    """
    partner = d.partner_map
    vertex_of = {h: i for i, t in enumerate(d.triples) for h in t}
    order = []
    for root in range(d.v):
        if root in order:
            continue
        k = len(order)
        order.append(root)
        while k < len(order):
            for h in d.triples[order[k]]:
                w = vertex_of.get(partner[h])
                if w is not None and w not in order:
                    order.append(w)
            k += 1
    hes = sorted(d.half_edges())
    found = set()

    def fits(phi, new):
        return all(partner[h] not in phi or partner[phi[h]] == phi[partner[h]] for h in new)

    def place(phi, k, free_vertices, free_legs):
        if k < d.v:
            t = d.triples[order[k]]
            for w in free_vertices:
                for image in itertools.permutations(d.triples[w]):
                    phi.update(zip(t, image))
                    if fits(phi, t):
                        place(phi, k + 1, free_vertices - {w}, free_legs)
                for h in t:
                    del phi[h]
        elif k < d.v + d.l:
            g = d.legs[k - d.v]
            for g2 in free_legs:
                phi[g] = g2
                if fits(phi, (g,)):
                    place(phi, k + 1, free_vertices, free_legs - {g2})
                del phi[g]
        else:
            found.add(tuple(phi[h] for h in hes))

    e = d.e
    for r in range(e) if e else (0,):
        phi = {d.skeleton[p]: d.skeleton[(p + r) % e] for p in range(e)}
        if fits(phi, list(phi)):
            place(phi, 0, frozenset(range(d.v)), frozenset(d.legs))
    return found


# ---------------------------------------------------------------------------
# brute-force enumeration: all matchings of a fixed slot layout


def brute_matchings(nsk: int, nv: int, nl: int):
    """Every pairing of the slot layout, as a partner array.

    Layout: skeleton half-edges 0..nsk-1, then nv triples, then nl legs.
    The lowest unmatched half-edge is paired with every later unmatched
    one, except a half-edge of the same triple: such an edge is a tadpole,
    and a tadpole diagram is zero by antisymmetry (reflecting the offending
    triple about its third half-edge reverses orientation but preserves the
    diagram), a fact the canonicalization tests check separately.
    """
    n = nsk + 3 * nv + nl
    if n % 2:
        return
    partner = [-1] * n
    lo, hi = nsk, nsk + 3 * nv

    def rec(h):
        while h < n and partner[h] >= 0:
            h += 1
        if h == n:
            yield list(partner)
            return
        hv = (h - lo) // 3 if lo <= h < hi else -1
        for q in range(h + 1, n):
            if partner[q] >= 0:
                continue
            if hv >= 0 and lo <= q < hi and (q - lo) // 3 == hv:
                continue
            partner[h] = q
            partner[q] = h
            yield from rec(h + 1)
            partner[h] = -1
            partner[q] = -1

    yield from rec(0)


def count_matchings(nsk: int, nv: int, nl: int) -> int:
    """Leaf count of :func:`brute_matchings`, without building the arrays."""
    n = nsk + 3 * nv + nl
    if n % 2:
        return 0
    partner = [-1] * n
    lo, hi = nsk, nsk + 3 * nv

    def rec(h):
        while h < n and partner[h] >= 0:
            h += 1
        if h == n:
            return 1
        hv = (h - lo) // 3 if lo <= h < hi else -1
        total = 0
        for q in range(h + 1, n):
            if partner[q] >= 0:
                continue
            if hv >= 0 and lo <= q < hi and (q - lo) // 3 == hv:
                continue
            partner[h] = q
            partner[q] = h
            total += rec(h + 1)
            partner[h] = -1
            partner[q] = -1
        return total

    return rec(0)


def matching_count_formula(nsk: int, nv: int, nl: int) -> int:
    """Tadpole-free perfect matchings of the layout, in closed form.

    Inclusion-exclusion over which triples contain a tadpole edge: a triple
    admits 3 possible tadpole edges and at most one (its half-edges pairwise
    overlap), so the count is sum over k of
    C(nv, k) * 3^k * (-1)^k * (n - 2k - 1)!!.
    """
    n = nsk + 3 * nv + nl
    if n % 2:
        return 0

    def dfact(m):  # (m)!! for odd m, with (-1)!! = 1
        out = 1
        while m > 1:
            out *= m
            m -= 2
        return out

    return sum(math.comb(nv, k) * 3 ** k * (-1) ** k * dfact(n - 2 * k - 1)
               for k in range(nv + 1))


def layout_diagram(space: str, nsk: int, nv: int, nl: int, partner) -> Diagram:
    """Build (and fully re-validate) the diagram of one matching."""
    triples = tuple((nsk + 3 * i, nsk + 3 * i + 1, nsk + 3 * i + 2) for i in range(nv))
    legs = tuple(range(nsk + 3 * nv, nsk + 3 * nv + nl))
    skeleton = tuple(range(nsk)) if space == "A" else None
    pairing = tuple((h, p) for h, p in enumerate(partner) if h < p)
    return validate(space, internal=triples, legs=legs, skeleton=skeleton,
                    pairing=pairing)


def layout_group_order(space: str, nsk: int, nv: int, nl: int) -> int:
    """Order of the relabeling group acting on matchings of the layout:
    vertex permutations, rotations and reflections of each triple, leg
    permutations, and skeleton rotations."""
    rot = nsk if (space == "A" and nsk) else 1
    return math.factorial(nv) * 6 ** nv * math.factorial(nl) * rot


# ---------------------------------------------------------------------------
# the insertion chain with no pruning, and the graph a deletion score reads


def every_insertion(d: Diagram):
    """Every child of ``d`` one vertex up, one for each free end g (a leg,
    or a circle point) and each edge (x, y) not at g: remove g and the
    edge, add the vertex (n, n + 1, n + 2), n above every label of d, and
    pair it with x, y and g's partner."""
    n = max(d.half_edges(), default=-1) + 1
    partner = d.partner_map
    for g in (d.skeleton if d.space == "A" else d.legs):
        for x, y in d.pairing:
            if g in (x, y):
                continue
            pairing = [e for e in d.pairing if e != (x, y) and g not in e]
            pairing += [(n, x), (n + 1, y), (n + 2, partner[g])]
            yield validate(d.space, internal=[*d.triples, (n, n + 1, n + 2)],
                           legs=[h for h in d.legs if h != g],
                           skeleton=None if d.skeleton is None else
                           [h for h in d.skeleton if h != g],
                           pairing=pairing)


@functools.lru_cache(maxsize=None)
def enumerate_split_unfiltered(space: str, nsk: int, nv: int, nl: int) -> list:
    """The classes of one slot layout with their nonzero flags, in sort
    order, from the insertion chain with every child kept: split (j, f),
    with j vertices and f free ends, holds the canonical forms of
    :func:`every_insertion` of each class of split (j - 1, f + 1) and of
    each class of (j - 2, f) beside a theta; split (0, f) is the struts
    (B) or every chord diagram (A). Circle splits with few points run the
    chain too. Only ``canonicalize`` is shared with the package."""
    from weightsys.diagrams import canonicalize

    free = nsk + nl
    if (free + 3 * nv) % 2:
        return []
    if nv == 0:
        cands = [layout_diagram(space, free if space == "A" else 0, 0,
                                0 if space == "A" else free, p)
                 for p in brute_matchings(free, 0, 0)]
        if space == "B":
            cands = cands[:1]  # the struts: all matchings of legs are one class
    else:
        up = (nsk + 1, nv - 1, 0) if space == "A" else (0, nv - 1, nl + 1)
        cands = [c for d, _ in enumerate_split_unfiltered(space, *up)
                 for c in every_insertion(d)]
        for d, _ in (enumerate_split_unfiltered(space, nsk, nv - 2, nl) if nv >= 2 else ()):
            n = max(d.half_edges(), default=-1) + 1
            cands.append(validate(
                space, internal=[*d.triples, (n, n + 1, n + 2), (n + 3, n + 4, n + 5)],
                legs=d.legs, skeleton=d.skeleton,
                pairing=[*d.pairing, (n, n + 3), (n + 1, n + 4), (n + 2, n + 5)]))
    found = {}
    for c in cands:
        cf = canonicalize(c)
        found.setdefault(cf.diagram, 1 if cf.sign else 0)
    return sorted(found.items(), key=lambda pair: pair[0].sort_key())


def deletion_graph(child: Diagram):
    """The arguments of ``diagrams._outscored`` for a child whose new
    vertex is its last triple, with its own deletion at the third
    half-edge: the nodes are the vertices in triple order, then the free
    ends (legs in order, or circle points in circle order); the partner
    nodes of each vertex's half-edges; and for each free end the nodes it
    sees: itself, its partner's node and the points before and after it
    on the circle (itself twice for a leg)."""
    v = len(child.triples)
    ends = list(child.skeleton if child.space == "A" else child.legs)
    node = {h: i for i, t in enumerate(child.triples) for h in t}
    node.update({h: v + k for k, h in enumerate(ends)})
    partner = child.partner_map
    nbs = [[node[partner[h]] for h in t] for t in child.triples]
    enbs = []
    for k, h in enumerate(ends):
        if child.space == "A":
            before, after = v + (k - 1) % len(ends), v + (k + 1) % len(ends)
        else:
            before = after = v + k
        enbs.append((v + k, node[partner[h]], before, after))
    return nbs, enbs


# ---------------------------------------------------------------------------
# classical Bernoulli numbers (defining recursion, B_1 = -1/2 convention)


def bernoulli_number(n: int):
    """B_n from sum_{j=0}^{m-1} C(m+1, j) B_j = 0 with B_0 = 1."""
    from fractions import Fraction
    vals = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * vals[j]
        vals.append(-acc / (m + 1))
    return vals[n]


# ---------------------------------------------------------------------------
# brute-force sl2 weight (fundamental representation), summing over all
# index assignments edge by edge — no tensor machinery shared with the
# package.  Basis order (h, e, f); metric is the 2x2 trace form, so
# b(h,h)=2, b(e,f)=b(f,e)=1 and the inverse pairs below follow.

from fractions import Fraction as _Fr

SL2_INVERSE_METRIC = ((0, 0, _Fr(1, 2)), (1, 2, _Fr(1)), (2, 1, _Fr(1)))
SL2_STRUCTURE = {(0, 1, 2): 2, (1, 2, 0): 2, (2, 0, 1): 2,
                 (0, 2, 1): -2, (2, 1, 0): -2, (1, 0, 2): -2}
SL2_REP = (((1, 0), (0, -1)),   # h
           ((0, 1), (0, 0)),    # e
           ((0, 0), (1, 0)))    # f


def sl2_weight_bruteforce(d: Diagram):
    """Exact weight of a legless diagram against sl2 (fundamental rep).

    Every pairing edge is assigned an inverse-metric pair of basis
    indices; internal vertices contribute structure constants, skeleton
    points contribute representation matrices multiplied around the
    circle (trace), and each free loop contributes dim sl2 = 3.
    """
    if d.l:
        raise ValueError("weights are defined for diagrams without open legs")
    edges = list(d.pairing)
    total = _Fr(0)
    for combo in itertools.product(SL2_INVERSE_METRIC, repeat=len(edges)):
        idx = {}
        w = _Fr(1)
        for (h1, h2), (a, b, bw) in zip(edges, combo):
            idx[h1] = a
            idx[h2] = b
            w *= bw
        for (x, y, z) in d.triples:
            f = SL2_STRUCTURE.get((idx[x], idx[y], idx[z]), 0)
            if not f:
                w = 0
                break
            w *= f
        if not w:
            continue
        if d.space == "A":
            m = ((1, 0), (0, 1))
            for h in d.skeleton:
                r = SL2_REP[idx[h]]
                m = ((m[0][0] * r[0][0] + m[0][1] * r[1][0],
                      m[0][0] * r[0][1] + m[0][1] * r[1][1]),
                     (m[1][0] * r[0][0] + m[1][1] * r[1][0],
                      m[1][0] * r[0][1] + m[1][1] * r[1][1]))
            w *= m[0][0] + m[1][1]
        total += w
    return total * _Fr(3) ** d.free_loops


# ---------------------------------------------------------------------------
# brute-force tensor networks, on plain dicts: a network is a list of node
# shapes, a list of node data dicts (index tuple -> value) and a list of
# edges ((node, axis), (node, axis)) that joins every axis exactly once.


def network_value_bruteforce(shapes, datas, edges):
    """Sum over every assignment of an index to each edge of the product
    of the node entries that assignment selects."""
    total = _Fr(0)
    for combo in itertools.product(*(range(shapes[i][a]) for (i, a), _ in edges)):
        idx = [[None] * len(shape) for shape in shapes]
        for ((i, a), (j, b)), k in zip(edges, combo):
            idx[i][a] = idx[j][b] = k
        w = _Fr(1)
        for data, ix in zip(datas, idx):
            w *= data.get(tuple(ix), 0)
            if not w:
                break
        total += w
    return total


def min_merge_cost_bruteforce(shapes, edges):
    """Cheapest sum of intermediate sizes over every sequence of pairwise
    merges; an intermediate's size is the product of the dimensions of its
    axes whose partner lies outside it (or that have none)."""
    partner = {}
    for x, y in edges:
        partner[x], partner[y] = y, x

    def size(group):
        out = 1
        for i in group:
            for a, d in enumerate(shapes[i]):
                other = partner.get((i, a))
                if other is None or other[0] not in group:
                    out *= d
        return out

    def best(groups):
        if len(groups) == 1:
            return 0
        return min(size(g | h) + best([x for x in groups if x not in (g, h)] + [g | h])
                   for g, h in itertools.combinations(groups, 2))

    return best([frozenset((i,)) for i in range(len(shapes))])


def plan_by_bond_scan(node_axes, edges, dp_width=8, refine=True):
    """``(order, cost)`` of the planner: an edge is (mask of its two nodes,
    dimension), a node's free axes one more edge to an outside bit, and a
    node set's size the product over the edges with exactly one end in
    it, rescanned for every set.  The greedy minimum result size plans
    every network to the end.  With ``refine``, the groups it had left
    when min(n, ``dp_width``) remained (all n nodes, before any merge,
    when n <= ``dp_width``) are then planned again by the subset DP when
    the greedy's cost from there on is more than the number of splits
    that DP visits over that many groups; ``refine=False`` is the greedy
    plan alone."""
    n = len(node_axes)
    if n == 0:
        return (), 0
    free = [dict(enumerate(shape)) for shape in node_axes]
    bonds = []
    for (i, ai), (j, aj) in edges:
        bonds.append(((1 << i) | (1 << j), node_axes[i][ai]))
        free[i].pop(ai, None)
        free[j].pop(aj, None)
    bonds += [((1 << i) | (1 << n), math.prod(axes.values()))
              for i, axes in enumerate(free) if axes]

    def size(mask):
        return math.prod(d for e, d in bonds if e & mask and e & ~mask)

    def subset_dp(groups):
        """The cheapest merge order of ``groups``, (id, node mask) pairs in
        ascending id order, a merge keeping the lower id, and its cost."""
        full = (1 << len(groups)) - 1
        best = [0] * (full + 1)
        split = [0] * (full + 1)
        for s in range(1, full + 1):
            low = s & -s
            rest = sub = s ^ low
            if not rest:
                continue
            top = None
            while sub:
                sub = (sub - 1) & rest
                c = best[low | sub] + best[rest ^ sub]
                if top is None or c < top:
                    top, split[s] = c, low | sub
            nodes = 0
            for k, (_, mask) in enumerate(groups):
                if s >> k & 1:
                    nodes |= mask
            best[s] = top + size(nodes)
        order = []

        def emit(s):
            if not s & (s - 1):
                return groups[s.bit_length() - 1][0]
            i, j = emit(split[s]), emit(s ^ split[s])
            order.append((i, j))
            return i

        emit(full)
        return order, best[full]

    # every state of the greedy: its groups, its merges and their cost
    groups = {i: 1 << i for i in range(n)}
    order = []
    cost = 0
    states = [(sorted(groups.items()), [], 0)]
    while len(groups) > 1:
        alive = sorted(groups)
        ranks = []
        for x, i in enumerate(alive):
            for j in alive[x + 1:]:
                gi, gj = groups[i], groups[j]
                apart = not any(e & gi and e & gj for e, _ in bonds)
                ranks.append((apart, size(gi | gj), i, j))
        _, s, i, j = min(ranks)
        cost += s
        groups[i] |= groups.pop(j)
        order.append((i, j))
        states.append((sorted(groups.items()), list(order), cost))
    if not refine:
        return tuple(order), cost
    width = min(n, dp_width)
    left, head, before = next(state for state in states if len(state[0]) == width)
    splits = sum(2 ** (bin(s).count("1") - 1) - 1 for s in range(1, 1 << width))
    if cost - before > splits:
        order, rest = subset_dp(left)
        return tuple(head + order), before + rest
    return tuple(order), cost


# ---------------------------------------------------------------------------
# Lie-algebra identities, scanned densely


def lie_identity_first_failure(c, b):
    """The first failure, as ``check_lie`` words it, of the Jacobi identity
    and then of metric invariance, scanning every index tuple in increasing
    order; None when both hold.  ``c[k][i][j]`` is c^k_{ij}, ``b`` the metric."""
    n = len(c)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if sum(c[m][i][j] * c[l][m][k] + c[m][j][k] * c[l][m][i]
               + c[m][k][i] * c[l][m][j] for m in range(n)):
            return f"Jacobi fails at (i,j,k,l)=({i},{j},{k},{l})"
    for i, j, k in itertools.product(range(n), repeat=3):
        if sum(c[m][i][j] * b[m][k] + c[m][i][k] * b[j][m] for m in range(n)):
            return f"metric invariance fails at ({i},{j},{k})"
    return None


def structure_tensor_dense(c, b):
    """f_{ijk} = sum over m of c^m_{ij} b_{mk}, scanning every (i, j, k) in
    increasing order and keeping the nonzero values, as ``derive_tensors``
    keys its ``f``."""
    n = len(c)
    f = {}
    for i, j, k in itertools.product(range(n), repeat=3):
        v = sum(c[m][i][j] * b[m][k] for m in range(n))
        if v:
            f[(i, j, k)] = v
    return f


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def representation_first_failure(c, action):
    """``check_representation``'s ``(ok, message)`` from dense matrix
    products: the first pair i < j, in increasing order, at which
    rho_i rho_j - rho_j rho_i differs from sum over k of c^k_{ij} rho_k.
    ``action`` must already hold one square matrix per basis element."""
    n, m = len(c), len(action[0])
    for i in range(n):
        for j in range(i + 1, n):
            ab, ba = mat_mul(action[i], action[j]), mat_mul(action[j], action[i])
            for r, s in itertools.product(range(m), repeat=2):
                want = sum(c[k][i][j] * action[k][r][s] for k in range(n))
                if ab[r][s] - ba[r][s] != want:
                    return False, f"representation fails on bracket ({i},{j})"
    return True, None


# ---------------------------------------------------------------------------
# the component search as it stood before its state loop was rewritten


_INFV_OFF = 1
_INFL_OFF = 2


def component_search_reference(triples, legs, skeleton, partner):
    """``diagrams._component_search`` before its state loop was rewritten,
    kept verbatim and unmemoized: it copies every state's lists, rebuilds
    the open-label list for every child and scores both rewritings of a
    forced vertex.  The fast search must return the identical ``(sig,
    sign, edges, labs)`` on every argument."""
    if not triples and skeleton is None:  # a strut, flipped or not
        return (0, 2, 0, 2), 1, (0, 1), (0, 1, 1, 0)
    n = len(partner)
    v = len(triples)
    l = len(legs)
    e = len(skeleton or ())
    legset = frozenset(legs)
    inf_v = n + _INFV_OFF
    inf_l = n + _INFL_OFF

    reps = []
    where = [None] * n  # half-edge -> (vertex, position in its triple)
    for vi, (a, b, c) in enumerate(triples):
        reps.append((((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                     ((c, b, a), -1), ((b, a, c), -1), ((a, c, b), -1)))
        where[a], where[b], where[c] = (vi, 0), (vi, 1), (vi, 2)
    # far[h]: h's chunk entry while its partner is unplaced and off h's
    # vertex; looped[vi]: vertex vi has a self-edge
    far = [inf_l if partner[h] in legset else inf_v for h in range(n)]
    looped = [any(partner[h] in t for h in t) for t in triples]

    def chunk_of(trip, lab, base):
        out = []
        for h in trip:
            p = partner[h]
            pl = lab[p]
            if pl is None:
                pl = base + trip.index(p) if p in trip else far[h]
            out.append(pl)
        return tuple(out)

    # a state: (label of each half-edge or None, half-edge of each label,
    # sorted open labels, sign)
    states = []
    for r in range(e):
        inv = tuple(skeleton[(r + pos) % e] for pos in range(e))
        lab = [None] * n
        for pos, h in enumerate(inv):
            lab[h] = pos
        opn = [pos for pos, h in enumerate(inv) if where[partner[h]] is not None]
        states.append((lab, inv, opn, 1))
    if not states:
        states.append(([None] * n, (), [], 1))

    sig = [v, l, e, n]

    for depth in range(v):
        base = e + 3 * depth
        best = None
        chosen = []
        for state in states:
            lab, inv, opn, _ = state
            if not opn:
                scored = [(chunk_of(trip, lab, base), trip, s)
                          for t, vreps in zip(triples, reps) if lab[t[0]] is None
                          for trip, s in vreps]
            else:
                m = opn[0]
                vi, j = where[partner[inv[m]]]
                forced = reps[vi][j], reps[vi][5 - j]
                if looped[vi]:
                    scored = [(chunk_of(trip, lab, base), trip, s) for trip, s in forced]
                else:
                    # both rewritings open with m's partner, whose entry is
                    # m, and differ only in the order of the other two
                    (trip, s), (rtrip, rs) = forced
                    y, z = trip[1], trip[2]
                    ly = lab[partner[y]]
                    lz = lab[partner[z]]
                    if ly is None:
                        ly = far[y]
                    if lz is None:
                        lz = far[z]
                    scored = (((m, ly, lz), trip, s), ((m, lz, ly), rtrip, rs))
            for chunk, trip, s in scored:
                if best is None or chunk < best:
                    best = chunk
                    chosen = [(state, trip, s)]
                elif chunk == best:
                    chosen.append((state, trip, s))
        sig.extend(best)
        closed = [c for c in best if c < base]
        opened = [base + j for j in range(3) if best[j] == inf_v]
        states = []
        for (lab, inv, opn, sgn), trip, s in chosen:
            lab2 = lab.copy()
            lab2[trip[0]] = base
            lab2[trip[1]] = base + 1
            lab2[trip[2]] = base + 2
            opn2 = [x for x in opn if x not in closed] + opened
            states.append((lab2, inv + trip, opn2, sgn * s))

    # legs: in the order of their partners' labels, which the vertex chunks
    # fixed, so the states tie here and the sig needs no leg chunk
    legbase = e + 3 * v
    for lab, *_ in states:
        for i, g in enumerate(sorted(legs, key=lambda g: lab[partner[g]]), legbase):
            lab[g] = i

    if e:
        best = None
        chosen = []
        for state in states:
            lab, inv = state[0], state[1]
            chunk = tuple(lab[partner[inv[pos]]] for pos in range(e))
            if best is None or chunk < best:
                best = chunk
                chosen = [state]
            elif chunk == best:
                chosen.append(state)
        sig.extend(best)
        states = chosen

    signs = {state[3] for state in states}
    sign = 0 if len(signs) == 2 else signs.pop()
    lab = states[0][0]
    edges = sorted((lab[h], lab[p]) if lab[h] < lab[p] else (lab[p], lab[h])
                   for h, p in enumerate(partner) if h < p)
    labs = tuple(x for state in states for x in state[0])
    return tuple(sig), sign, tuple(itertools.chain.from_iterable(edges)), labs
