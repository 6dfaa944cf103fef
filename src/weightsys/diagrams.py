"""Jacobi diagrams: validation, canonical forms with signs, enumeration.

A diagram is a vertex-oriented trivalent graph given by half-edges.
Half-edges are arbitrary non-negative integers; every half-edge sits in
exactly one *slot* (a slot of an internal trivalent vertex, a univalent
leg, or a point on the oriented skeleton circle) and a fixed-point-free
involution (the pairing) glues half-edges into edges.

Two spaces:

* B-space: no skeleton; univalent legs allowed; diagrams may have closed
  components (no legs at all).
* A-space: a preferred oriented circle carries the skeleton half-edges in
  cyclic order; no legs; components disjoint from the circle are allowed.

The orientation of an internal vertex is the cyclic order of its triple.
Reversing one triple negates the diagram (antisymmetry); the canonical
form therefore carries a sign in {+1, -1, 0}, where 0 means the diagram
has an orientation-reversing automorphism and hence equals minus itself.

``free_loops`` counts circle components with no vertices at all; they are
carried along as a plain counter (closures can create them).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import DiagramError, GradingMismatchError, ResourceLimitError, SpaceMismatchError

__all__ = [
    "Diagram",
    "CanonicalForm",
    "validate",
    "canonicalize",
    "is_isomorphic",
    "automorphism_count",
    "enumerate_diagrams",
    "diagram_from_json",
    "diagram_to_json",
    "empty_diagram",
    "bare_circle",
]


class Diagram:
    """Immutable diagram. Use :func:`validate` (or ``diagram_from_json``)
    to build one from untrusted parts; internal code uses ``Diagram._new``
    with already-consistent data."""

    __slots__ = ("space", "triples", "legs", "skeleton", "pairing", "free_loops",
                 "_key", "_hash", "_pmap")

    def __init__(self, space, triples, legs, skeleton, pairing, free_loops):
        self.space = space
        self.triples = triples
        self.legs = legs
        self.skeleton = skeleton
        self.pairing = pairing
        self.free_loops = free_loops
        self._key = (space, free_loops, skeleton, triples, legs, pairing)
        self._hash = hash(self._key)
        self._pmap = None

    @staticmethod
    def _new(space, triples, legs, skeleton, pairing, free_loops=0) -> "Diagram":
        pairing = tuple(sorted(tuple(sorted(p)) for p in pairing))
        return Diagram(space, tuple(tuple(t) for t in triples), tuple(legs),
                       tuple(skeleton) if skeleton is not None else None,
                       pairing, free_loops)

    # --- basic accessors -------------------------------------------------

    @property
    def v(self) -> int:
        return len(self.triples)

    @property
    def l(self) -> int:
        return len(self.legs)

    @property
    def e(self) -> int:
        return len(self.skeleton) if self.skeleton is not None else 0

    @property
    def total(self) -> int:
        """Total grading: internal vertices plus legs (B) or skeleton points (A)."""
        return self.v + (self.e if self.space == "A" else self.l)

    def grading_key(self):
        """Key of the graded piece this diagram lives in (loops tracked apart)."""
        if self.space == "A":
            return ("A", self.total, self.free_loops)
        return ("B", self.v, self.l, self.free_loops)

    @property
    def partner_map(self) -> dict:
        if self._pmap is None:
            m = {}
            for a, b in self.pairing:
                m[a] = b
                m[b] = a
            self._pmap = m
        return self._pmap

    def half_edges(self):
        for t in self.triples:
            yield from t
        yield from self.legs
        if self.skeleton:
            yield from self.skeleton

    def with_loops(self, k: int) -> "Diagram":
        if k == self.free_loops:
            return self
        return Diagram(self.space, self.triples, self.legs, self.skeleton, self.pairing, k)

    # --- identity --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Diagram) and self._key == other._key

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.space, self.total, self.v, self.l, self.e, self.free_loops,
                self.pairing, self.triples, self.legs, self.skeleton or ())

    def __repr__(self):
        sk = "" if self.skeleton is None else f", skeleton={list(self.skeleton)}"
        fl = f", free_loops={self.free_loops}" if self.free_loops else ""
        return (f"Diagram({self.space!r}, triples={list(self.triples)}, "
                f"legs={list(self.legs)}{sk}, pairing={list(self.pairing)}{fl})")


class CanonicalForm(NamedTuple):
    """A canonical representative together with the antisymmetry sign.

    ``d == sign * diagram`` in the diagram algebra; ``sign == 0`` exactly
    when the input has an orientation-reversing automorphism."""

    diagram: Diagram
    sign: int


# ---------------------------------------------------------------------------
# validation


def _check_id(x, what):
    if type(x) is not int or x < 0:
        raise DiagramError(f"{what} must be a non-negative integer, got {x!r}")


def _array(x, what):
    if not isinstance(x, (list, tuple)):
        raise DiagramError(f"{what} must be an array, got {type(x).__name__}")
    return x


def validate(space, internal=(), legs=(), skeleton=None, pairing=(), free_loops=0) -> Diagram:
    """Build a Diagram from raw parts, checking every structural invariant."""
    if space not in ("A", "B"):
        raise DiagramError(f"space must be 'A' or 'B', got {space!r}")
    if space == "A":
        if skeleton is None:
            raise DiagramError("A-space diagrams require a skeleton (possibly empty)")
        if legs:
            raise DiagramError("A-space diagrams cannot carry legs")
    else:
        if skeleton is not None:
            raise DiagramError("B-space diagrams cannot carry a skeleton")
    if type(free_loops) is not int or free_loops < 0:
        raise DiagramError("free_loops must be a non-negative integer")

    seen = set()

    def claim(h, what):
        _check_id(h, what)
        if h in seen:
            raise DiagramError(f"half-edge {h} used in more than one slot")
        seen.add(h)

    triples = []
    for t in _array(internal, "internal"):
        t = tuple(_array(t, "internal vertex"))
        if len(t) != 3:
            raise DiagramError(f"internal vertex {t!r} must have exactly 3 half-edges")
        for h in t:
            claim(h, "internal half-edge")
        triples.append(t)
    for h in _array(legs, "legs"):
        claim(h, "leg half-edge")
    if skeleton is not None:
        for h in _array(skeleton, "skeleton"):
            claim(h, "skeleton half-edge")

    paired = set()
    pairs = []
    for p in _array(pairing, "pairing"):
        p = tuple(_array(p, "pairing entry"))
        if len(p) != 2:
            raise DiagramError(f"pairing entry {p!r} must have exactly 2 half-edges")
        a, b = p
        _check_id(a, "paired half-edge")
        _check_id(b, "paired half-edge")
        if a == b:
            raise DiagramError(f"pairing fixes half-edge {a}; edges join distinct half-edges")
        for h in (a, b):
            if h not in seen:
                raise DiagramError(f"pairing mentions unknown half-edge {h}")
            if h in paired:
                raise DiagramError(f"half-edge {h} paired more than once")
            paired.add(h)
        pairs.append((a, b))
    dangling = seen - paired
    if dangling:
        raise DiagramError(f"dangling half-edges (unpaired): {sorted(dangling)}")
    return Diagram._new(space, triples, tuple(legs), skeleton, pairs, free_loops)


# ---------------------------------------------------------------------------
# canonical form

_INFV_OFF = 1  # unplaced internal partner sorts before ...
_INFL_OFF = 2  # ... a leg partner


@lru_cache(maxsize=None)
def _component_search(triples, legs, skeleton, partner):
    """Every lexicographically minimal labeling of one connected component.

    All half-edges are assumed relabeled 0..n-1, with ``partner[h]`` the
    partner of ``h``; the arguments are tuples, and equal arguments are
    answered from the cache (one entry per normalized component). Returns
    ``(sig, sign, edges, labs)`` where ``sig`` is a flat integer tuple that
    determines the component up to isomorphism, starting ``(v, l, e, n)``,
    ``sign`` is +1/-1/0, ``labs`` is one flat tuple of the minimal
    labelings, each the n labels of the half-edges in order, the first
    labeling first, and ``edges`` is the sorted flat tuple
    ``(x0, y0, x1, y1, ...)``, x < y, of the edges under the first one.

    The labeling family searched: choose a rotation of the skeleton (the
    circle is oriented, so no reflections), an order in which to place the
    internal vertices and, for each, one of the six rewritings of its
    triple (three rotations keep the orientation, three reversals flip the
    sign); each leg then takes the next label in the order of its
    partner's label, which the vertex chunks have fixed, so every state
    ties on the legs. At each stage only the choices extending the minimal
    partial signature survive. A strut (two legs paired) is answered at
    once: both of its labelings are minimal.

    A state holds the label of each half-edge (None while unplaced), the
    half-edge of each label, its sorted open labels and its sign. A placed
    label is *open* while its partner half-edge sits on an unplaced vertex.
    A chunk entry is a placed label (necessarily open), a label of the
    chunk's own block, or a sentinel above ``n``; so if a state has open
    labels and m is the smallest, only the chunks starting with m can be
    minimal, and those come from m's partner's vertex rewritten to put that
    partner first (one rotation, one reversal). They differ only in the
    order of the entries y and z of its other two half-edges: the state's
    one chunk is (m, min(y, z), max(y, z)), and the rotation survives when
    y <= z, the reversal when z <= y, in that order. If the vertex has a
    self-edge, its other two half-edges are paired with each other and each
    reads its partner's label in the block, so both rewritings read (m,
    base + 2, base + 1) and both survive, rotation first. All unplaced
    vertices are scanned only when a state has no open label: at depth 0
    without a skeleton, where nothing is placed, and never again inside one
    component; there a self-edge half-edge reads its partner's position in
    the rewriting.

    The surviving children of a state all take the same chunk, so they
    close and open the same labels: they share one new open-label list,
    built once per parent. Without a skeleton every state at a depth has
    the same open labels, so one list serves them all; the skeleton
    rotations open different positions. The last child of a state takes
    over its parent's two lists, and only its siblings copy them.

    The rule drops only candidates that cannot tie the minimum, so the
    surviving states at every depth, and their order, are those of the
    exhaustive scan. States never merge (a child's labels extend its
    parent's), so none is deduplicated. The final states are the minimal
    labelings, and the automorphism group of the component (vertex
    reflections allowed) acts simply transitively on them: lab0⁻¹ ∘ lab_i
    runs over the group.
    """
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
    # far[h]: h's chunk entry while its partner is unplaced and off h's vertex
    far = [inf_l if partner[h] in legset else inf_v for h in range(n)]

    states = []
    for r in range(e):
        inv = list(skeleton[r:] + skeleton[:r])
        lab = [None] * n
        for pos, h in enumerate(inv):
            lab[h] = pos
        opn = [pos for pos, h in enumerate(inv) if where[partner[h]] is not None]
        states.append((lab, inv, opn, 1))
    if not states:
        states.append(([None] * n, [], [], 1))

    sig = [v, l, e, n]

    for depth in range(v):
        base = e + 3 * depth
        best = None
        chosen = []  # (parent state, rewriting, its sign), siblings adjacent
        for state in states:
            lab, inv, opn, _ = state
            if opn:
                m = opn[0]
                vi, j = where[partner[inv[m]]]
                trip, s = reps[vi][j]
                y, z = trip[1], trip[2]
                ly = lab[partner[y]]
                lz = lab[partner[z]]
                if ly is None:
                    ly = far[y]
                if lz is None:
                    lz = far[z]
                # a self-edge pairs y with z, so ly == lz == inf_v
                chunk = ((m, base + 2, base + 1) if partner[y] == z else
                         (m, ly, lz) if ly <= lz else (m, lz, ly))
                if best is None or chunk < best:
                    best = chunk
                    chosen = []
                elif chunk != best:
                    continue
                if ly <= lz:
                    chosen.append((state, trip, s))
                if lz <= ly:
                    chosen.append((state, *reps[vi][5 - j]))
                continue
            # depth 0 without a circle: nothing is placed, so every rewriting
            # is scanned, a self-edge half-edge reading its partner's position
            for trip, s in itertools.chain.from_iterable(reps):
                if partner[trip[0]] in trip or partner[trip[1]] in trip:
                    chunk = tuple(trip.index(partner[h]) if partner[h] in trip
                                  else far[h] for h in trip)
                else:
                    chunk = (far[trip[0]], far[trip[1]], far[trip[2]])
                if best is None or chunk < best:
                    best = chunk
                    chosen = [(state, trip, s)]
                elif chunk == best:
                    chosen.append((state, trip, s))
        sig.extend(best)
        closed = [c for c in best if c < base]
        opened = [base + j for j in range(3) if best[j] == inf_v]
        states = []
        last = len(chosen) - 1
        popn = nopn = None
        for i, (state, trip, s) in enumerate(chosen):
            lab, inv, opn, sgn = state
            if i < last and chosen[i + 1][0] is state:
                lab = lab.copy()
                inv = inv.copy()
            lab[trip[0]] = base
            lab[trip[1]] = base + 1
            lab[trip[2]] = base + 2
            inv.extend(trip)
            if opn is not popn:
                popn = opn
                nopn = [x for x in opn if x not in closed] + opened
            states.append((lab, inv, nopn, sgn * s))

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
    labs = tuple(itertools.chain.from_iterable(state[0] for state in states))
    return tuple(sig), sign, tuple(itertools.chain.from_iterable(edges)), labs


def _canon_component(triples, legs, skeleton, hes, pmap):
    """Canonicalize one component, given its sorted half-edges ``hes``
    (original ids); the search runs on the structure normalized by
    rank-relabeling them, so its labelings give the label of each of
    ``hes`` in turn. Half-edges already ``0..n-1`` (a canonical diagram
    and its edge-rewrite terms) are their own ranks."""
    partner = map(pmap.__getitem__, hes)
    if hes[-1] != len(hes) - 1:
        norm = {h: i for i, h in enumerate(hes)}.__getitem__
        triples = [tuple(map(norm, t)) for t in triples]
        legs = map(norm, legs)
        if skeleton is not None:
            skeleton = tuple(map(norm, skeleton))
        partner = map(norm, partner)
    ntrip = tuple(sorted([min((a, b, c), (b, c, a), (c, a, b)) for a, b, c in triples]))
    return (*_component_search(ntrip, tuple(sorted(legs)), skeleton, tuple(partner)), hes)


def _split_components(d: Diagram):
    """Connected components of ``d``, each canonicalized on its own.

    Returns the list of components: the one holding the skeleton circle
    first, if there is a circle point, then the others sorted by signature.
    Entries are tuples ``(sig, sign, edges, labs, hes)``, the first four as
    :func:`_component_search` gives them and ``hes`` the component's sorted
    half-edges. Only the circle's component has ``sig[2]`` (its points)
    nonzero, so equal signatures are consecutive floating components.
    """
    pmap = d.partner_map
    v, l = len(d.triples), len(d.legs)
    # the slots: the triples, each leg alone, then the circle if it has points
    slots = [*d.triples, *[(g,) for g in d.legs]]
    if d.skeleton:
        slots.append(d.skeleton)
    slot_of = {h: i for i, t in enumerate(slots) for h in t}
    seen = [False] * len(slots)
    circle, floats = [], []
    for start in range(len(slots)):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for i in comp:  # a walk: the list grows while it is read
            for h in slots[i]:
                j = slot_of[pmap[h]]
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
        hes = sorted([h for i in comp for h in slots[i]])
        ctrip = [slots[i] for i in comp if i < v]
        clegs = [slots[i][0] for i in comp if v <= i < v + l]
        if v + l in comp:
            circle.append(_canon_component(ctrip, clegs, d.skeleton, hes, pmap))
        else:
            floats.append(_canon_component(ctrip, clegs, None, hes, pmap))
    # equal signatures keep the order of their smallest half-edges
    floats.sort(key=lambda c: (c[0], c[4][0]))
    return circle + floats


def canonicalize(d: Diagram) -> CanonicalForm:
    """Canonical representative and antisymmetry sign of ``d``.

    Components are canonicalized independently (an automorphism exchanging
    whole components never reverses a vertex orientation, so the sign is
    the product of component signs). In A-space the component carrying the
    circle comes first; the remaining components are sorted by their
    canonical signatures. Labels: skeleton half-edges first in circle
    order, then vertex triples as consecutive blocks, then legs. The
    answer depends on ``d`` alone; only the per-component search is
    memoized.
    """
    return _canonical_form(d, _split_components(d))


def _canonical_form(d, comps) -> CanonicalForm:
    """The canonical form of ``d`` from its split into components."""
    e = d.e
    sign = 1
    pairing = []
    vbase = 0
    lbase = e + 3 * d.v
    for sig, s, edges, _, _ in comps:
        cv, cl, ce = sig[:3]
        sign = sign * s
        # skeleton labels (only the circle component's) stay, the component's
        # vertex and leg blocks move to theirs; the shift keeps x < y
        voff = e + 3 * vbase - ce
        loff = lbase - ce - 3 * cv
        labels = iter([x if x < ce else x + voff if x < ce + 3 * cv else x + loff
                       for x in edges])
        pairing.extend(zip(labels, labels))
        vbase += cv
        lbase += cl
    pairing.sort()

    triples = tuple((e + 3 * i, e + 3 * i + 1, e + 3 * i + 2) for i in range(d.v))
    legs = tuple(range(e + 3 * d.v, e + 3 * d.v + d.l))
    skeleton = tuple(range(e)) if d.space == "A" else None
    return CanonicalForm(Diagram(d.space, triples, legs, skeleton, tuple(pairing),
                                 d.free_loops), sign)


def _canonical_labels(d, comps) -> dict:
    """Each half-edge of ``d`` -> its label in ``_canonical_form(d, comps)``:
    its label under its component's first minimal labeling, shifted as
    there."""
    e = d.e
    out = {}
    vbase = 0
    lbase = e + 3 * d.v
    for sig, _, _, labs, hes in comps:
        cv, cl, ce = sig[:3]
        voff = e + 3 * vbase - ce
        loff = lbase - ce - 3 * cv
        for h, x in zip(hes, labs):
            out[h] = x if x < ce else x + voff if x < ce + 3 * cv else x + loff
        vbase += cv
        lbase += cl
    return out


def is_isomorphic(d1: Diagram, d2: Diagram) -> Optional[int]:
    """Relative sign if the diagrams are isomorphic, ``None`` otherwise.

    Agrees with :func:`canonicalize`: if ``d1 = s1*C`` and ``d2 = s2*C``
    then the relative sign is ``s1*s2`` (0 when both are antisymmetry-zero,
    except that a diagram is always +1-isomorphic to itself).
    """
    if d1.space != d2.space:
        raise SpaceMismatchError(f"cannot compare {d1.space}- and {d2.space}-space diagrams")
    if d1.grading_key() != d2.grading_key():
        raise GradingMismatchError(
            f"grading mismatch: {d1.grading_key()} vs {d2.grading_key()}")
    if d1 == d2:
        return 1
    c1 = canonicalize(d1)
    c2 = canonicalize(d2)
    if c1.diagram != c2.diagram:
        return None
    return c1.sign * c2.sign


def automorphism_count(d: Diagram) -> int:
    """Order of the unoriented symmetry group of ``d``.

    Counted symmetries: half-edge permutations preserving the structure that
    act by arbitrary permutations inside each vertex triple (rotations and
    reflections), permutations of legs, permutations of whole components,
    and rotations of the skeleton circle. This is exactly the stabilizer
    relevant to orbit counting of pairings on a fixed slot layout, whose
    full group has order ``v! * 6^v * l! * max(e, 1)``. It is the product
    of each component's number of minimal labelings and of k! for each run
    of k identical components, the k-th of a run counting k.
    """
    comps = _split_components(d)
    order = run = 1
    for i, (sig, _, _, labs, hes) in enumerate(comps):
        run = run + 1 if i and sig == comps[i - 1][0] else 1
        order *= len(labs) // len(hes) * run
    return order


def _automorphisms(d: Diagram, comps=None) -> list:
    """Generators of the automorphism group of ``d`` that
    :func:`automorphism_count` counts, each a dict from the half-edges it
    moves to their images: for each component and each minimal labeling
    lab_i after the first lab0, lab0⁻¹ ∘ lab_i (vertex reflections
    included); and for each component identical to the one before it, the
    exchange of the two that sends the half-edge labeled x in one to the
    half-edge labeled x in the other. ``comps`` is ``_split_components(d)``
    when known."""
    perms = []
    prev_sig = prev_at = None
    for sig, _, _, labs, hes in comps or _split_components(d):
        n = len(hes)
        at = dict(zip(labs, hes))  # label -> half-edge under lab0
        for k in range(n, len(labs), n):
            perms.append({h: at[x] for h, x in zip(hes, labs[k:k + n])})
        if sig == prev_sig:
            perms.append({**{at[x]: prev_at[x] for x in at},
                          **{prev_at[x]: at[x] for x in at}})
        prev_sig, prev_at = sig, at
    return perms


def _orbit_firsts(items, perms, act) -> list:
    """The first item of each orbit under the group that ``perms``
    generate, in the order of ``items``; ``act(perm, item)`` is an item.
    Each orbit is closed under ``perms`` from its first item."""
    seen = set()
    firsts = []
    for x in items:
        if x in seen:
            continue
        firsts.append(x)
        seen.add(x)
        todo = [x]
        while todo:
            y = todo.pop()
            for p in perms:
                z = act(p, y)
                if z not in seen:
                    seen.add(z)
                    todo.append(z)
    return firsts


def _edge_image(p, edge):
    """The image under ``p`` of the edge ``(x, y)``, x < y."""
    x, y = p.get(edge[0], edge[0]), p.get(edge[1], edge[1])
    return (x, y) if x < y else (y, x)


# ---------------------------------------------------------------------------
# enumeration


# Default bound on the work of one enumeration, in steps: one step is one
# half-edge of one candidate diagram (see ``_enumerate_split_full``). Every
# split of total grading 10 fits: B(10, 0) charges 467,266 steps, A(1, 9)
# what B(9, 1) does, 402,160, and A(3, 7), the costliest, 1,015,626.
DEFAULT_MAX_STEPS = 2_000_000


def _capped_product(factors, limit: int) -> int:
    """The product of ``factors``, stopped once it passes ``limit``: exact
    up to the limit and above it otherwise, so a huge count costs nothing."""
    count = 1
    for k in factors:
        count *= k
        if count > limit:
            break
    return count


def _perfect_matchings(hes):
    """Every perfect matching of the half-edges ``hes`` (a list of pairs),
    the first half-edge paired first."""
    hes = list(hes)
    if not hes:
        yield []
        return
    h = hes[0]
    for i in range(1, len(hes)):
        for m in _perfect_matchings(hes[1:i] + hes[i + 1:]):
            yield [(h, hes[i])] + m


def _insertions(d):
    """The children of the canonical ``d`` one vertex up: for a free end g
    (a leg, or a skeleton point, whose removal keeps the circle order of
    the others) partnered with z, and another edge (x, y), remove g and
    (x, y) and add a vertex (n, n + 1, n + 2) paired with x, y and z, n
    being the first label that d does not use. An automorphism of d maps
    the child of (g, (x, y)) onto the child of their images, up to the
    order of x and y, so one (g, (x, y)) per orbit is built.

    A child is dropped before it is built when :func:`_outscored` finds a
    valid deletion of it that scores above its own: the deletion of the new
    vertex at n + 2 (McKay's canonical-parent test, *Isomorph-free
    exhaustive generation*, J. Algorithms 1998). The score reads the
    child's graph, patched from d's: d's vertices, the new vertex, then
    d's free ends, g's unseen."""
    n = 3 * d.v + d.l + d.e
    v = d.v
    triples = d.triples + ((n, n + 1, n + 2),)
    ends = d.skeleton if d.space == "A" else d.legs
    items = [(g, edge) for g in ends for edge in d.pairing if g not in edge]
    pmap = d.partner_map
    # the nodes of a child: d's vertices, the new vertex v, d's free ends
    node = [0] * n
    for i, t in enumerate(d.triples):
        node[t[0]] = node[t[1]] = node[t[2]] = i
    for k, h in enumerate(ends, v + 1):
        node[h] = k
    pnode = [node[pmap[h]] for h in range(n)]

    def image(p, item):
        g, edge = item
        return p.get(g, g), _edge_image(p, edge)

    for g, (x, y) in _orbit_firsts(items, _automorphisms(d), image):
        z = pmap[g]
        pn = pnode.copy()
        pn[x] = pn[y] = pn[z] = v
        nbs = [[pn[a], pn[b], pn[c]] for a, b, c in d.triples]
        nbs.append([node[x], node[y], node[z]])
        # a free end sees itself, its partner and, on the circle, its
        # neighbours there; g keeps its place, and nothing sees it
        if d.space == "A":
            ring = [h for h in ends if h != g]
            enbs = [(node[h], pn[h], node[ring[k - 1]], node[ring[k + 1 - len(ring)]])
                    for k, h in enumerate(ring)]
            enbs.insert(ends.index(g), (node[g],) * 4)
        else:
            enbs = [(node[h], pn[h], node[h], node[h]) for h in ends]
        if _outscored(nbs, enbs):
            continue
        pairing = (*(e for e in d.pairing if e != (x, y) and g not in e),
                   (n, x), (n + 1, y), (n + 2, z))
        legs = tuple(h for h in d.legs if h != g)
        skeleton = None if d.skeleton is None else tuple(h for h in d.skeleton if h != g)
        yield Diagram(d.space, triples, legs, skeleton, pairing, 0)


def _outscored(nbs, enbs):
    """Whether a valid deletion of a child scores above its own, the
    deletion of its last vertex at the third half-edge (see
    :func:`_enumerate_split_full`). Nodes are numbered vertices first;
    ``nbs[w]`` lists the partner nodes of vertex w's half-edges and
    ``enbs[k]`` the four nodes free end ``len(nbs) + k`` sees: itself,
    its partner, and the points before and after it on the circle (itself
    twice for a leg)."""
    # the valid deletions, as (vertex, partner node of the free end, the
    # two partner nodes paired), the child's own last; a deletion whose two
    # partners sit on one vertex would leave the parent a tadpole
    dels = [(w, nb[j], nb[j - 2], nb[j - 1]) for w, nb in enumerate(nbs) for j in range(3)
            if nb[j - 2] != nb[j - 1]]
    own = dels.pop()
    # colour refinement on the unoriented graph of vertices and free ends;
    # the score of a deletion is its colours after each round in turn, and
    # the deletions tied with the child's own go on to the next round
    col = [0] * len(nbs) + [1] * len(enbs)
    for _ in range(3):
        col = ([hash((col[w], *sorted([col[a], col[b], col[c]])))
                for w, (a, b, c) in enumerate(nbs)]
               + [hash((col[u], col[p], col[q], col[r])) for u, p, q, r in enbs])
        w, z, a, b = own
        cw = col[w]
        top = (col[z], *sorted([col[a], col[b]]))
        tied = []
        for m in dels:
            w, z, a, b = m
            if col[w] != cw:
                if col[w] > cw:
                    return True
                continue
            s = (col[z], *sorted([col[a], col[b]]))
            if s > top:
                return True
            if s == top:
                tied.append(m)
        if not tied:
            return False
        dels = tied
    return False


def _with_theta(d):
    """The canonical ``d`` beside a theta component."""
    n = 3 * d.v + d.l + d.e
    return Diagram(d.space, d.triples + ((n, n + 1, n + 2), (n + 3, n + 4, n + 5)),
                   d.legs, d.skeleton,
                   d.pairing + ((n, n + 3), (n + 1, n + 4), (n + 2, n + 5)), 0)


def _classes(candidates):
    """The distinct canonical forms of ``candidates``, each with its nonzero
    flag, in sort order."""
    found = {}
    for c in candidates:
        cf = canonicalize(c)
        found.setdefault(cf.diagram._key, (cf.diagram, 1 if cf.sign != 0 else 0))
    return sorted(found.values(), key=lambda pair: pair[0].sort_key())


_enum_memo: dict = {}


def _enumerate_split_full(space, nsk, nv, nl, max_steps=None):
    """Isomorphism classes of one slot layout, including the classes that
    are zero by antisymmetry: list of ``(canonical_diagram, nonzero_flag)``.

    With f free ends (legs in B, skeleton points in A) and j vertices,
    split (j, f) holds the classes of the children of split (j - 1, f + 1)
    under :func:`_insertions` and of split (j - 2, f) beside a theta; split
    (0, f) is the struts (B) or the chord diagrams (A). Each split is
    memoized in ``_enum_memo``. Every class is reached, since isomorphic
    parents have isomorphic children: a vertex w outside any theta
    component has two neighbours x, y on different vertices or free ends,
    and deleting w, pairing x with y and giving the third neighbour a new
    free end leaves a tadpole-free parent; a diagram with no such w is a
    smaller one beside a theta.

    Most children are dropped before they are canonicalized (McKay,
    *Isomorph-free exhaustive generation*, J. Algorithms 1998). A
    *deletion* (w, z) of a child, w a vertex and z one of its half-edges,
    removes w, pairs the partners x', y' of w's other two half-edges and
    gives z's partner a new free end (in A, a circle point in any gap). It
    is *valid* unless x' and y' sit on one vertex, which would leave the
    parent a tadpole, and no memoized class has one. The child's own
    deletion, at its new vertex and half-edge n + 2, is valid. Each node
    (vertex or free end) is coloured by three rounds of colour refinement
    on the unoriented graph, a circle point also seeing its predecessor and
    successor; the *score* of (w, z) is the colours of w, of the node of
    z's partner and, sorted, of the nodes of x' and y', after each round in
    turn. A child is dropped when a valid deletion scores strictly above
    its own.
    This loses no class: a class K reached by insertion has a valid
    deletion m of top score; its parent is tadpole-free, so its class is
    memoized, and the child that :func:`_insertions` builds for the orbit
    of the inverse insertion is isomorphic to K by a map that sends its
    own deletion onto m, perhaps swapping x and y, which the unoriented,
    label-free score does not see; so that child scores top and is kept.
    Ties still give repeats, which :func:`_classes` merges.

    Every split, memoized or not, is charged its candidate count times its
    half-edge count against ``max_steps`` (``DEFAULT_MAX_STEPS`` when None),
    and ``ResourceLimitError`` is raised before the work that would pass it.
    A circle with at most two points carries no order (their rotations are
    all their permutations), so such an A split is the B split with as many
    legs, its legs planted on the circle in order and canonicalized: the
    classes, zero flags and step charges are the B split's. A split with
    three or more points is built from splits with as many or more, so no
    split is built twice."""
    if space == "A" and nsk <= 2:
        return _classes(Diagram("A", d.triples, (), d.legs, d.pairing, 0)
                        for d, _ in _enumerate_split_full("B", 0, nv, nsk, max_steps))
    free = nsk + nl
    if (free + 3 * nv) % 2:
        return []
    limit = DEFAULT_MAX_STEPS if max_steps is None else max_steps
    steps = 0

    def split(j, f):
        return (space, f, j, 0) if space == "A" else (space, 0, j, f)

    for j in range(nv + 1):
        # the splits (j, f) that (nv, free) is built from, most free ends first
        for f in range(free + nv - j, free - 1, -2):
            n = 3 * j + f
            if j == 0:
                # the struts (B) or the (f - 1)!! chord diagrams (A)
                count = _capped_product(range(f - 1, 0, -2) if space == "A" else (), limit)
            else:
                parents = _enum_memo[split(j - 1, f + 1)]
                thetas = _enum_memo[split(j - 2, f)] if j >= 2 else []
                count = len(parents) * (f + 1) * ((n - 2) // 2 - 1) + len(thetas)
            steps += count * n
            if steps > limit:
                raise ResourceLimitError(
                    f"enumeration exceeded {limit} steps (candidate diagrams x half-edges)")
            if split(j, f) in _enum_memo:
                continue
            if j == 0 and space == "B":
                # the struts, labeled as canonicalize labels them
                _enum_memo[split(j, f)] = [(Diagram("B", (), tuple(range(f)), None, tuple(
                    (h, h + 1) for h in range(0, f, 2)), 0), 1)]
            elif j == 0:
                _enum_memo[split(j, f)] = _classes(
                    Diagram("A", (), (), tuple(range(f)), tuple(m), 0)
                    for m in _perfect_matchings(range(f)))
            else:
                _enum_memo[split(j, f)] = _classes(itertools.chain(
                    (c for d, _ in parents for c in _insertions(d)),
                    (_with_theta(d) for d, _ in thetas)))
    return _enum_memo[split(nv, free)]


def _require_non_negative(**values):
    for name, x in values.items():
        if x is not None and x < 0:
            raise GradingMismatchError(f"{name} must be non-negative, got {x}")


# The argument sets that name one graded piece of each space.
_PIECE_ARGUMENTS = {"B": ({"l", "v"},), "A": ({"total"}, {"e", "v"})}


def _require_piece(space, **grading):
    """Check that the grading arguments given (not None) are non-negative
    and form one argument set of ``space`` that the caller takes."""
    if space not in _PIECE_ARGUMENTS:
        raise SpaceMismatchError(f"unknown space {space!r}")
    _require_non_negative(**grading)
    forms = [f for f in _PIECE_ARGUMENTS[space] if f <= grading.keys()]
    given = {k for k, x in grading.items() if x is not None}
    if given not in forms:
        raise GradingMismatchError(
            f"{space}-space pieces are named by "
            f"{' or '.join(' and '.join(sorted(f)) for f in forms)}; got {sorted(given)}")


def enumerate_diagrams(space, v=None, l=None, e=None, total=None, max_steps=None):
    """All isomorphism classes with nonzero canonical sign in a graded piece.

    B-space: pass ``v`` (internal vertices) and ``l`` (legs).
    A-space: pass ``total`` (= v + skeleton points; all splits are included)
    or a specific split via ``e`` and ``v``. Free loops are never produced.
    Returns canonical diagrams in a deterministic order. A negative grading
    or bound, or grading arguments that name no piece, raise ``GradingMismatchError``;
    a split whose work passes ``max_steps`` (``DEFAULT_MAX_STEPS`` when
    None) raises ``ResourceLimitError``.
    """
    _require_piece(space, v=v, l=l, e=e, total=total)
    _require_non_negative(max_steps=max_steps)
    if space == "B":
        splits = [(0, v, l)]
    elif total is None:
        splits = [(e, v, 0)]
    else:
        splits = ((total - vv, vv, 0) for vv in range(total + 1))
    # each split is sorted, and the splits come in the order of sort_key
    return [d for nsk, nv, nl in splits
            for d, nonzero in _enumerate_split_full(space, nsk, nv, nl, max_steps)
            if nonzero]


# ---------------------------------------------------------------------------
# small builders and JSON


def empty_diagram() -> Diagram:
    """The empty B-diagram (unit for the disjoint-union product)."""
    return Diagram("B", (), (), None, (), 0)


def bare_circle() -> Diagram:
    """The A-diagram with an empty skeleton (unit for the connect sum)."""
    return Diagram("A", (), (), (), (), 0)


def diagram_to_json(d: Diagram) -> dict:
    obj = {
        "space": d.space,
        "internal": [list(t) for t in d.triples],
        "legs": list(d.legs),
        "pairing": [list(p) for p in d.pairing],
        "free_loops": d.free_loops,
    }
    if d.space == "A":
        obj["skeleton"] = list(d.skeleton)
    return obj


def diagram_from_json(obj) -> Diagram:
    if not isinstance(obj, dict):
        raise DiagramError("diagram JSON must be an object")
    space = obj.get("space")
    known = {"space", "internal", "legs", "skeleton", "pairing", "free_loops"}
    unknown = set(obj) - known
    if unknown:
        raise DiagramError(f"unknown diagram fields: {sorted(unknown)}")
    if space == "A":
        if "skeleton" not in obj:
            raise DiagramError("A-space diagram JSON requires a skeleton array")
        skeleton = obj["skeleton"]
    else:
        if "skeleton" in obj:
            raise DiagramError("skeleton is only allowed when space is 'A'")
        skeleton = None
    return validate(space,
                    internal=obj.get("internal", ()),
                    legs=obj.get("legs", ()),
                    skeleton=skeleton,
                    pairing=obj.get("pairing", ()),
                    free_loops=obj.get("free_loops", 0))
