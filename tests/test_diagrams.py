"""Diagram layer: validation, canonical forms, isomorphism, enumeration.

The canonical-form machinery is validated against explicit bijection
search (`brute_isomorphism_signs`) and random relabelings; enumeration is
validated against the all-matchings recursion plus two independent
counting identities (closed-form tadpole-free matching counts, and the
orbit-stabilizer sum over isomorphism classes).
"""

import random

import pytest

import oracles
from weightsys import algebra, diagrams
from weightsys.diagrams import (
    Diagram,
    automorphism_count,
    bare_circle,
    canonicalize,
    diagram_from_json,
    diagram_to_json,
    empty_diagram,
    enumerate_diagrams,
    is_isomorphic,
    validate,
    _enumerate_split_full,
)
from weightsys.errors import (
    DiagramError,
    GradingMismatchError,
    ResourceLimitError,
    SpaceMismatchError,
)


# ---------------------------------------------------------------------------
# validation and JSON


def test_validate_rejects_malformed_parts():
    with pytest.raises(DiagramError, match="space"):
        validate("C", skeleton=())
    with pytest.raises(DiagramError, match="skeleton"):
        validate("A")  # A-space needs a skeleton, even an empty one
    with pytest.raises(DiagramError, match="legs"):
        validate("A", skeleton=(0, 1), legs=(2,), pairing=((0, 1),))
    with pytest.raises(DiagramError, match="skeleton"):
        validate("B", skeleton=(0, 1), pairing=((0, 1),))
    with pytest.raises(DiagramError, match="exactly 3"):
        validate("B", internal=((0, 1),), pairing=((0, 1),))
    with pytest.raises(DiagramError, match="more than one slot"):
        validate("B", legs=(0, 0), pairing=((0, 0),))
    with pytest.raises(DiagramError, match="fixes"):
        validate("B", legs=(0, 1), pairing=((0, 0), (1, 1)))
    with pytest.raises(DiagramError, match="unknown half-edge"):
        validate("B", legs=(0, 1), pairing=((0, 7),))
    with pytest.raises(DiagramError, match="paired more than once"):
        validate("B", legs=(0, 1, 2, 3), pairing=((0, 1), (0, 2), (1, 3)))
    with pytest.raises(DiagramError, match="dangling"):
        validate("B", legs=(0, 1, 2, 3), pairing=((0, 1),))
    with pytest.raises(DiagramError, match="free_loops"):
        validate("B", free_loops=-1)
    with pytest.raises(DiagramError, match="non-negative integer"):
        validate("B", legs=(True, 1), pairing=((True, 1),))


def test_json_round_trip_preserves_structure():
    for d, _ in oracles.corpus():
        back = diagram_from_json(diagram_to_json(d))
        assert back == d
    loopy = oracles.strut().with_loops(3)
    assert diagram_from_json(diagram_to_json(loopy)) == loopy


def test_json_rejects_bad_objects():
    with pytest.raises(DiagramError, match="object"):
        diagram_from_json([1, 2])
    with pytest.raises(DiagramError, match="unknown diagram fields"):
        diagram_from_json({"space": "B", "legs": [0, 1], "pairing": [[0, 1]],
                           "color": "red"})
    with pytest.raises(DiagramError, match="skeleton"):
        diagram_from_json({"space": "B", "skeleton": [0, 1], "pairing": [[0, 1]]})
    with pytest.raises(DiagramError, match="skeleton"):
        diagram_from_json({"space": "A", "pairing": []})


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_form_invariant_under_relabeling():
    """Canonical diagram is a class invariant; the sign tracks the number
    of triple reflections applied."""
    rng = random.Random(20260816)
    for d, _ in oracles.corpus():
        base = canonicalize(d)
        for _ in range(40):
            r, parity = oracles.relabel_randomly(d, rng)
            cf = canonicalize(r)
            assert cf.diagram == base.diagram
            assert cf.sign == parity * base.sign


def test_canonicalize_is_idempotent():
    for d, _ in oracles.corpus():
        cf = canonicalize(d)
        again = canonicalize(cf.diagram)
        assert again.diagram == cf.diagram
        assert again.sign == (0 if cf.sign == 0 else 1)


def test_antisymmetry_zero_detection():
    """Diagrams with an orientation-reversing automorphism canonicalize to
    sign 0; the corpus marks which ones should."""
    for d, nonzero in oracles.corpus():
        assert (canonicalize(d).sign != 0) == nonzero


def test_tadpole_is_zero():
    """An edge inside one triple forces sign 0 (reflection about the third
    half-edge); this justifies skipping tadpole matchings when enumerating."""
    d = validate("B", internal=((0, 1, 2), (3, 4, 5)),
                 pairing=((0, 1), (2, 3), (4, 5)))
    assert canonicalize(d).sign == 0
    assert canonicalize(oracles.handcuff()).sign == 0


def test_canonical_labels_are_contiguous_blocks():
    cf = canonicalize(oracles.chord_with_theta_float())
    d = cf.diagram
    assert d.skeleton == (0, 1)
    assert d.triples == ((2, 3, 4), (5, 6, 7))
    assert d.pairing == ((0, 1), (2, 5), (3, 6), (4, 7))
    assert cf.sign in (-1, 1)


def test_free_loops_survive_canonicalization():
    d = oracles.theta_closed().with_loops(2)
    cf = canonicalize(d)
    assert cf.diagram.free_loops == 2


def random_layout(rng):
    """One random matching of a random slot layout, tadpoles allowed:
    A-space with 0-8 skeleton points and up to 6 vertices, or B-space with
    up to 8 vertices and 0-5 legs."""
    while True:
        if rng.random() < 0.5:
            space, nsk, nv, nl = "A", rng.randrange(9), rng.randrange(7), 0
        else:
            space, nsk, nv, nl = "B", 0, rng.randrange(9), rng.randrange(6)
        n = nsk + 3 * nv + nl
        if n % 2 == 0:
            break
    hes = list(range(n))
    rng.shuffle(hes)
    partner = [0] * n
    for a, b in zip(hes[::2], hes[1::2]):
        partner[a], partner[b] = b, a
    return oracles.layout_diagram(space, nsk, nv, nl, partner)


def test_canonical_search_on_random_layouts():
    """Each skeleton rotation starts the search with its own open labels;
    relabeled random layouts (many disconnected, many with tadpoles) must
    still land on one canonical form, sign and automorphism count, and agree
    with the explicit bijection search where that is affordable."""
    rng = random.Random(31)
    brute = 0
    for _ in range(600):
        d = random_layout(rng)
        base = canonicalize(d)
        aut = automorphism_count(d)
        r, parity = oracles.relabel_randomly(d, rng)
        cf = canonicalize(r)
        assert cf.diagram == base.diagram, d
        assert cf.sign == parity * base.sign, d
        assert automorphism_count(r) == aut, d
        if d.v <= 4 and oracles.layout_group_order(d.space, d.e, d.v, d.l) <= 20000:
            brute += 1
            want = {1, -1} if base.sign == 0 else {parity}
            assert oracles.brute_isomorphism_signs(d, r) == want, d
    assert brute >= 200


def test_canonical_labels_carry_a_diagram_onto_its_canonical_form():
    """Relabeled by ``_canonical_labels``, a diagram has the pairing, legs,
    vertex blocks and (up to rotation) circle of its canonical form, and
    its triples' orientations multiply to the form's sign when it is
    nonzero."""
    rng = random.Random(67)
    ds = [d for d, _ in oracles.corpus()] + [random_layout(rng) for _ in range(200)]
    for d, _ in (oracles.relabel_randomly(d, rng) for d in ds):
        comps = diagrams._split_components(d)
        lab = diagrams._canonical_labels(d, comps)
        form = diagrams._canonical_form(d, comps)
        c = form.diagram
        assert sorted(lab) == sorted(d.half_edges()), d
        pairs = sorted(tuple(sorted((lab[a], lab[b]))) for a, b in d.pairing)
        assert pairs == list(c.pairing), d
        assert sorted(lab[g] for g in d.legs) == list(c.legs), d
        if d.skeleton:
            circle = [lab[h] for h in d.skeleton]
            r = circle.index(0)
            assert circle[r:] + circle[:r] == list(c.skeleton), d
        placed = sorted((min(lab[h] for h in t), [lab[h] for h in t]) for t in d.triples)
        assert [sorted(t) for _, t in placed] == [list(t) for t in c.triples], d
        if form.sign:
            sign = 1
            for x, t in placed:
                sign *= 1 if t[t.index(x):] + t[:t.index(x)] == [x, x + 1, x + 2] else -1
            assert sign == form.sign, d


def test_components_match_the_fixed_point_merge(monkeypatch):
    """Each component canonicalized covers exactly one component's half-edges,
    the circle's component among them, on the corpus and on random layouts
    (most of them disconnected, many with tadpoles)."""
    calls = []
    canon_component = diagrams._canon_component

    def recorded(triples, legs, skeleton, hes, pmap):
        calls.append((skeleton is not None, hes))
        return canon_component(triples, legs, skeleton, hes, pmap)

    monkeypatch.setattr(diagrams, "_canon_component", recorded)
    rng = random.Random(61)
    ds = [d for d, _ in oracles.corpus()] + [random_layout(rng) for _ in range(300)]
    for d in ds:
        calls.clear()
        assert len(diagrams._split_components(d)) == len(calls), d
        found = [hes for on_circle, hes in calls if not on_circle]
        circle = [hes for on_circle, hes in calls if on_circle]
        if d.skeleton:
            assert len(circle) == 1 and set(d.skeleton) <= set(circle[0]), d
            found.append(circle[0])
        else:
            assert not circle, d
        assert len(found) == len(set(map(frozenset, found))), d
        assert set(map(frozenset, found)) == oracles.components_naive(d), d


def test_answers_do_not_depend_on_the_search_cache():
    """Only the component search is memoized: a cold cache gives the warm
    answers, and a canonical form found by the search is its own canonical
    form with sign 1 (0 when antisymmetry-zero)."""
    rng = random.Random(53)
    ds = [d for d, _ in oracles.corpus()] + [random_layout(rng) for _ in range(40)]

    def answers():
        return [(canonicalize(d), automorphism_count(d)) for d in ds]

    answers()
    warm = answers()
    diagrams._component_search.cache_clear()
    assert answers() == warm
    for cf, _ in warm:
        diagrams._component_search.cache_clear()
        assert canonicalize(cf.diagram) == (cf.diagram, 0 if cf.sign == 0 else 1)


def test_component_search_matches_the_reference(monkeypatch):
    """The search returns the reference search's tuple, labelings in the
    same order, on every component met while every circle and leg piece
    of total <= 8 is built cold (odd totals are empty), and on random
    relabelings of the corpus."""
    seen = set()
    search = diagrams._component_search

    def recorded(*args):
        seen.add(args)
        return search(*args)

    monkeypatch.setattr(diagrams, "_component_search", recorded)
    monkeypatch.setattr(diagrams, "_enum_memo", {})
    monkeypatch.setattr(algebra, "_basis_memo", {})
    for total in range(0, 9, 2):
        algebra.quotient_basis("A", total=total)
        for v in range(total + 1):
            algebra.quotient_basis("B", v=v, l=total - v)
    built = len(seen)
    rng = random.Random(71)
    for d, _ in oracles.corpus():
        for _ in range(20):
            canonicalize(oracles.relabel_randomly(d, rng)[0])
    assert built > 1500 and len(seen) > built
    for args in seen:
        assert search.__wrapped__(*args) == oracles.component_search_reference(*args), args


# ---------------------------------------------------------------------------
# isomorphism


def test_is_isomorphic_matches_explicit_bijection_search():
    rng = random.Random(7)
    small = [oracles.strut(), oracles.theta_closed(), oracles.wheel(2),
             oracles.wheel(3), oracles.y_vertex(), oracles.chord(),
             oracles.tripod(), oracles.k4(), oracles.ladder()]
    for d in small:
        r, _ = oracles.relabel_randomly(d, rng)
        signs = oracles.brute_isomorphism_signs(d, r)
        got = is_isomorphic(d, r)
        if signs == {1, -1}:
            assert got == 0
        else:
            assert got in signs
    # distinct classes in the same grading
    assert is_isomorphic(oracles.k4(), oracles.ladder()) is None
    signs = oracles.brute_isomorphism_signs(oracles.k4(), oracles.ladder())
    assert signs == set()


def test_is_isomorphic_mismatch_errors():
    with pytest.raises(SpaceMismatchError):
        is_isomorphic(oracles.chord(), oracles.strut())
    with pytest.raises(GradingMismatchError):
        is_isomorphic(oracles.strut(), oracles.theta_closed())
    with pytest.raises(GradingMismatchError):
        is_isomorphic(oracles.strut(), oracles.strut().with_loops(1))


def test_self_isomorphism_is_plus_one():
    for d, _ in oracles.corpus():
        assert is_isomorphic(d, d) == 1


# ---------------------------------------------------------------------------
# automorphism counting


def test_automorphism_counts_of_known_diagrams():
    """Hand counts: the theta graph has 3! edge permutations times the
    vertex swap; the 2-wheel has the vertex swap and the rim-edge swap; the
    tetrahedron realizes all of S4; the ladder has the three independent
    doubled-edge/bubble swaps and the in-bubble swap; a strut has its flip."""
    assert automorphism_count(oracles.theta_closed()) == 12
    assert automorphism_count(oracles.strut()) == 2
    assert automorphism_count(oracles.wheel(2)) == 4
    assert automorphism_count(oracles.wheel(4)) == 8
    assert automorphism_count(oracles.k4()) == 24
    assert automorphism_count(oracles.ladder()) == 16
    two_thetas = validate(
        "B", internal=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
        pairing=((0, 3), (1, 4), (2, 5), (6, 9), (7, 10), (8, 11)))
    assert automorphism_count(two_thetas) == 288
    assert automorphism_count(oracles.chord()) == 2
    assert automorphism_count(bare_circle()) == 1


# ---------------------------------------------------------------------------
# enumeration


HAND_COUNTS_B = {
    # (v, l): isomorphism classes with nonzero canonical sign
    (0, 0): 1,   # the empty diagram
    (0, 2): 1,   # strut
    (0, 4): 1,   # two struts
    (0, 6): 1,   # three struts
    (1, 1): 0,   # forced tadpole
    (1, 3): 0,   # the one class (three legs on a vertex) is antisymmetry-zero
    (2, 0): 1,   # theta
    (2, 2): 2,   # 2-wheel; theta + strut
    (4, 0): 3,   # tetrahedron; ladder; two thetas
}


def test_enumeration_hand_counts_b():
    for (v, l), want in HAND_COUNTS_B.items():
        got = enumerate_diagrams("B", v=v, l=l)
        assert len(got) == want, (v, l)


def test_enumeration_hand_counts_a():
    assert len(enumerate_diagrams("A", total=0)) == 1   # bare circle
    assert len(enumerate_diagrams("A", total=1)) == 0
    assert len(enumerate_diagrams("A", total=2)) == 2   # chord; circle + theta
    assert len(enumerate_diagrams("A", total=3)) == 0   # parity kills every split
    assert len(enumerate_diagrams("A", e=4, v=0)) == 2  # parallel and crossing chords
    assert len(enumerate_diagrams("A", e=3, v=1)) == 1  # tripod
    assert len(enumerate_diagrams("A", e=2, v=2)) == 2  # bubble; chord + theta


def test_enumeration_parity_empty():
    assert enumerate_diagrams("B", v=1, l=2) == []
    assert enumerate_diagrams("B", v=3, l=0) == []
    assert enumerate_diagrams("A", e=1, v=0) == []


def test_enumeration_outputs_canonical_sorted_unique():
    for args in ({"space": "B", "v": 2, "l": 2}, {"space": "A", "total": 4}):
        out = enumerate_diagrams(**args)
        assert out == sorted(out, key=Diagram.sort_key)
        assert len({d._key for d in out}) == len(out)
        for d in out:
            cf = canonicalize(d)
            assert cf.diagram == d and cf.sign == 1
        assert enumerate_diagrams(**args) == out  # deterministic, cached or not


BRUTE_GRADINGS = [
    ("B", 0, 1, 3), ("B", 0, 2, 2), ("B", 0, 3, 1), ("B", 0, 2, 4),
    ("B", 0, 4, 0), ("B", 0, 0, 4), ("B", 0, 0, 6),
    ("A", 2, 0, 0), ("A", 1, 1, 0), ("A", 2, 2, 0), ("A", 3, 1, 0),
    ("A", 4, 0, 0), ("A", 3, 3, 0), ("A", 0, 4, 0),
]


def brute_classes(space, nsk, nv, nl):
    found = {}
    for partner in oracles.brute_matchings(nsk, nv, nl):
        d = oracles.layout_diagram(space, nsk, nv, nl, partner)
        cf = canonicalize(d)
        if cf.diagram._key not in found:
            found[cf.diagram._key] = (cf.diagram, 1 if cf.sign != 0 else 0)
    return sorted(found.values(), key=lambda pair: pair[0].sort_key())


def test_enumeration_matches_all_matchings_recursion():
    """The generator must land on exactly the classes the dumb
    all-matchings recursion finds, including antisymmetry-zero ones."""
    for space, nsk, nv, nl in BRUTE_GRADINGS:
        assert _enumerate_split_full(space, nsk, nv, nl) == \
            brute_classes(space, nsk, nv, nl), (space, nsk, nv, nl)


def test_matching_counts_and_orbit_sums():
    """Three independent counts of the same thing: the recursion's leaf
    count, the inclusion-exclusion closed form, and the orbit-stabilizer
    sum |G|/|Aut(C)| over all isomorphism classes C of the grading."""
    for space, nsk, nv, nl in BRUTE_GRADINGS:
        leaves = oracles.count_matchings(nsk, nv, nl)
        assert leaves == oracles.matching_count_formula(nsk, nv, nl)
        g = oracles.layout_group_order(space, nsk, nv, nl)
        total = 0
        for d, _ in _enumerate_split_full(space, nsk, nv, nl):
            aut = automorphism_count(d)
            assert g % aut == 0, d
            total += g // aut
        assert total == leaves, (space, nsk, nv, nl)


def _closure(perms, hes):
    """The group that the dicts ``perms`` generate on ``hes``, each element
    as the tuple of images of ``hes``."""
    index = {h: i for i, h in enumerate(hes)}
    gens = [tuple(p.get(h, h) for h in hes) for p in perms]
    group = {tuple(hes)}
    todo = list(group)
    while todo:
        g = todo.pop()
        for s in gens:
            gs = tuple(s[index[x]] for x in g)
            if gs not in group:
                group.add(gs)
                todo.append(gs)
    return group


def test_automorphisms_are_the_oracles_and_count_the_group():
    """The permutations that ``_automorphisms`` returns generate exactly
    the oracle's group of structure-preserving half-edge maps (strut flips
    and exchanges of identical components included), whose order is
    ``automorphism_count``, on the corpus and on every class (zero ones
    included) of the brute-force gradings."""
    ds = [d for d, _ in oracles.corpus()]
    ds += [d for grading in BRUTE_GRADINGS for d, _ in _enumerate_split_full(*grading)]
    found = 0
    for d in ds:
        want = oracles.brute_automorphisms(d)
        perms = diagrams._automorphisms(d)
        assert _closure(perms, sorted(d.half_edges())) == want, d
        assert len(want) == automorphism_count(d), d
        found += len(perms)
    assert found > 200


def test_closed_circle_pieces_are_the_closed_leg_pieces(monkeypatch):
    """A circle split with e <= 2 points is read off the leg piece with e
    legs: the closed one beside a bare circle, and with one or two points
    the leg classes planted on the circle, which canonicalize to the circle
    classes with the same zero flags, since one or two points carry no
    circle order."""
    for v in range(7):
        closed = [(Diagram("A", d.triples, d.legs, (), d.pairing, 0), nonzero)
                  for d, nonzero in _enumerate_split_full("B", 0, v, 0)]
        assert _enumerate_split_full("A", 0, v, 0) == closed, v
        for d, nonzero in closed:
            cf = canonicalize(d)
            assert cf.diagram == d and (cf.sign != 0) == bool(nonzero), d
    for e in range(3):
        for v in range(8):
            planted = {}
            for d, nonzero in _enumerate_split_full("B", 0, v, e):
                cf = canonicalize(Diagram("A", d.triples, (), d.legs, d.pairing, 0))
                assert (cf.sign != 0) == bool(nonzero), d
                planted[cf.diagram] = nonzero
            assert _enumerate_split_full("A", e, v, 0) == sorted(
                planted.items(), key=lambda pair: pair[0].sort_key()), (e, v)
    monkeypatch.setattr(diagrams, "_enum_memo", {})
    with pytest.raises(ResourceLimitError):
        enumerate_diagrams("A", e=0, v=8, max_steps=10)


def test_enumeration_resource_limit():
    with pytest.raises(ResourceLimitError):
        enumerate_diagrams("B", v=5, l=3, max_steps=10)


def test_cold_enumeration_canonicalizes_per_class_not_per_labeling(monkeypatch):
    """B(8, 0) has 32 classes from 11,888 labeled matchings; built from the
    classes below it, one child per orbit of each parent's automorphisms
    and only children whose own deletion scores highest, a cold enumeration
    canonicalizes 331. A(1, 7), read off the leg split B(7, 1), makes 194
    calls, and A(3, 5), built on the circle, 744. Each bound is about 20%
    above its count."""
    for split, classes, bound in ((("B", 0, 8, 0), 32, 400), (("A", 1, 7, 0), 26, 235),
                                  (("A", 3, 5, 0), 20, 895)):
        monkeypatch.setattr(diagrams, "_enum_memo", {})
        calls = []

        def counted(d, real=diagrams.canonicalize):
            calls.append(d)
            return real(d)

        monkeypatch.setattr(diagrams, "canonicalize", counted)
        assert len(_enumerate_split_full(*split)) == classes
        monkeypatch.undo()
        assert 0 < len(calls) <= bound, split


def test_canonical_deletion_test_keeps_every_class(monkeypatch):
    """Every split of total grading up to 8, in both spaces, has the
    classes and zero flags of the insertion chain that keeps every child
    (no orbit pruning, no deletion test, circle splits with few points
    built on the circle too)."""
    monkeypatch.setattr(diagrams, "_enum_memo", {})
    for space in "BA":
        for total in range(9):
            for v in range(total + 1):
                args = (space, total - v, v, 0) if space == "A" else (space, 0, v, total - v)
                assert _enumerate_split_full(*args) == oracles.enumerate_split_unfiltered(*args), args


def _relabel_keeping_new_vertex(d, rng):
    """d under fresh half-edge names, its vertices other than the last in a
    random order, each rotated or reflected at random, the last one kept
    last with its third half-edge third (its first two may swap), the legs
    shuffled and the circle rotated."""
    hes = sorted(d.half_edges())
    m = dict(zip(hes, rng.sample(range(10 * len(hes) + 20), len(hes))))
    triples = []
    for a, b, c in d.triples[:-1]:
        t = rng.choice(((a, b, c), (b, c, a), (c, a, b), (c, b, a), (b, a, c), (a, c, b)))
        triples.append([m[h] for h in t])
    rng.shuffle(triples)
    a, b, c = d.triples[-1]
    triples.append([m[b], m[a], m[c]] if rng.random() < 0.5 else [m[a], m[b], m[c]])
    legs = [m[g] for g in d.legs]
    rng.shuffle(legs)
    skeleton = None
    if d.skeleton is not None:
        r = rng.randrange(len(d.skeleton))
        skeleton = [m[h] for h in d.skeleton[r:] + d.skeleton[:r]]
    return validate(d.space, internal=triples, legs=legs, skeleton=skeleton,
                    pairing=[(m[x], m[y]) for x, y in d.pairing])


def test_deletion_score_is_label_free():
    """The decision on a child depends on the child up to relabeling, vertex
    reflections included, with its new vertex last and that vertex's third
    half-edge third. Of all the children of a parent, ``_insertions``
    keeps one per orbit, so it keeps exactly the classes of the children
    that pass, as decided on the oracle's graph of each child."""
    rng = random.Random(22)
    decided = {True: 0, False: 0}
    for space, nsk, nv, nl in (("B", 0, 4, 2), ("B", 0, 5, 3), ("B", 0, 6, 0),
                               ("A", 4, 3, 0), ("A", 3, 5, 0), ("A", 5, 3, 0)):
        up = (space, nsk + 1, nv - 1, 0) if space == "A" else (space, 0, nv - 1, nl + 1)
        for d, _ in _enumerate_split_full(*up):
            passing = set()
            for child in oracles.every_insertion(d):
                kept = not diagrams._outscored(*oracles.deletion_graph(child))
                for _ in range(3):
                    other = _relabel_keeping_new_vertex(child, rng)
                    assert kept == (not diagrams._outscored(*oracles.deletion_graph(other))), child
                decided[kept] += 1
                if kept:
                    passing.add(canonicalize(child).diagram)
            assert {canonicalize(c).diagram for c in diagrams._insertions(d)} == passing, d
    assert decided[True] and decided[False]


def test_enumeration_budget_does_not_depend_on_the_memo(monkeypatch):
    """B(8, 0) and the splits below it charge 47,262 steps (candidates x
    half-edges), cold or warm: one step less raises either way. A(1, 7) and
    A(2, 6) charge what B(7, 1) and B(6, 2), which they are read off, do."""
    for split, steps, classes in ((("B", 0, 8, 0), 47_262, 32),
                                  (("A", 1, 7, 0), 40_056, 26),
                                  (("A", 2, 6, 0), 24_414, 35)):
        for warm in (False, True):
            monkeypatch.setattr(diagrams, "_enum_memo", {})
            if warm:
                _enumerate_split_full(*split)
            with pytest.raises(ResourceLimitError):
                _enumerate_split_full(*split, max_steps=steps - 1)
            assert len(_enumerate_split_full(*split, max_steps=steps)) == classes


def test_units():
    assert empty_diagram().grading_key() == ("B", 0, 0, 0)
    assert bare_circle().grading_key() == ("A", 0, 0)
    assert enumerate_diagrams("B", v=0, l=0) == [empty_diagram()]
    assert enumerate_diagrams("A", total=0) == [bare_circle()]
