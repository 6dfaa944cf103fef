"""Vector arithmetic, relation generators, quotient bases, disk cache.

Dimension values asserted here are hand counts: the closed 4-vertex space
has classes {tetrahedron, ladder, two thetas} with one edge-rewrite
relation (ladder = +/-2 tetrahedron), so dimension 2; the circle space in
total grading 4 has 9 classes and dimension 5; and so on.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

import oracles
from weightsys import algebra, diagrams
from weightsys import cache as cache_mod
from weightsys.algebra import (
    DiagramVector,
    equal_mod_relations,
    ihx_generators,
    quotient_basis,
    reduce_vector,
    stu_generators,
    vector_from_json,
    vector_to_json,
    _basis_memo,
)
from weightsys.diagrams import canonicalize, enumerate_diagrams, validate
from weightsys.errors import (DiagramError, GradingMismatchError,
                              ResourceLimitError, SpaceMismatchError)


# ---------------------------------------------------------------------------
# DiagramVector basics


def test_vector_folds_antisymmetry_signs():
    t = oracles.theta_closed()
    reflected = validate("B", internal=((2, 1, 0), (3, 4, 5)),
                         pairing=((0, 3), (1, 4), (2, 5)))
    v = DiagramVector([(t, 1), (reflected, 1)])
    assert not v  # one reflection flips the sign, so the terms cancel
    v2 = DiagramVector([(t, 1), (reflected, -2)])
    assert v2.coefficient(t) == 3


def test_vector_drops_antisymmetry_zero_diagrams():
    v = DiagramVector([(oracles.y_vertex(), 5), (oracles.wheel(3), 7)])
    assert not v


def test_vector_arithmetic():
    t = DiagramVector.single(oracles.theta_closed())
    s = DiagramVector.single(oracles.strut())
    v = 2 * t + Fraction(1, 3) * s
    assert v.coefficient(oracles.theta_closed()) == 2
    assert v.coefficient(oracles.strut()) == Fraction(1, 3)
    assert (v - v) == DiagramVector.zero()
    assert -v + v == DiagramVector()
    assert len(v) == 2
    assert 0 * v == DiagramVector()


def test_vector_coefficient_is_relabeling_aware():
    rng = random.Random(11)
    t = oracles.theta_closed()
    r, parity = oracles.relabel_randomly(t, rng)
    v = DiagramVector.single(t, 6)
    assert v.coefficient(r) == 6 * parity * canonicalize(t).sign


def test_vector_json_round_trip():
    v = (Fraction(3, 4) * DiagramVector.single(oracles.theta_closed())
         + 2 * DiagramVector.single(oracles.strut().with_loops(1)))
    encoded = vector_to_json(v)
    assert all(isinstance(e["coeff"], str) for e in encoded)
    assert vector_from_json(encoded) == v
    assert vector_from_json({"terms": encoded}) == v
    assert vector_from_json(json.loads(json.dumps(encoded))) == v


def test_vector_json_rejects_inexact_coefficients():
    d = vector_to_json(DiagramVector.single(oracles.strut()))
    d[0]["coeff"] = 0.5  # JSON float: provenance is inexact, rejected
    with pytest.raises(DiagramError, match="exact rational"):
        vector_from_json(d)
    d[0]["coeff"] = True
    with pytest.raises(DiagramError, match="exact rational"):
        vector_from_json(d)
    d[0]["coeff"] = "1/0"
    with pytest.raises(DiagramError, match="bad rational"):
        vector_from_json(d)
    d[0]["coeff"] = "pi"
    with pytest.raises(DiagramError, match="bad rational"):
        vector_from_json(d)
    d[0]["coeff"] = "1_000"  # Fraction reads it from Python 3.11 on: refused on all
    with pytest.raises(DiagramError, match="bad rational"):
        vector_from_json(d)
    d[0]["coeff"] = "0.5"  # exact decimal literal: accepted
    assert vector_from_json(d).coefficient(oracles.strut()) == Fraction(1, 2)
    with pytest.raises(DiagramError, match="array"):
        vector_from_json({"vectors": []})


def test_vector_json_refuses_an_exponent_past_the_digit_limit():
    # 10^5000 would have more digits than the interpreter converts: refused
    # before any arithmetic, as 1e1000000000 would otherwise take hours
    d = vector_to_json(DiagramVector.single(oracles.strut()))
    for literal in ("1e5000", "1e-5000", "1E+5000"):
        d[0]["coeff"] = literal
        with pytest.raises(ResourceLimitError):
            vector_from_json(d)
    for literal, value in (("0.5", Fraction(1, 2)), ("1e3", 1000), ("4/2", 2),
                           ("25e-2", Fraction(1, 4))):
        d[0]["coeff"] = literal
        assert vector_from_json(d).coefficient(oracles.strut()) == value


# ---------------------------------------------------------------------------
# relation generators


def test_edge_rewrite_generators_stay_in_grading():
    diagrams = enumerate_diagrams("B", v=4, l=0)
    gens = ihx_generators(diagrams)
    assert gens, "closed 4-vertex diagrams admit edge rewrites"
    keys = {d._key for d in diagrams}
    for g in gens:
        for d, _ in g.items():
            assert d._key in keys


def test_skeleton_resolution_generators_change_split():
    diagrams = enumerate_diagrams("A", total=4)
    gens = stu_generators(diagrams)
    assert gens
    for g in gens:
        totals = {d.total for d, _ in g.items()}
        assert totals == {4}
    with pytest.raises(GradingMismatchError):
        stu_generators([oracles.theta_closed()])


def _rewired_from(d, i, j):
    """The diagrams D(a,b|c,d), D(a,c|b,d) and D(b,c|a,d) of the edge read
    from slot j of vertex i: u is vertex i rotated to (a, b, k), w the
    vertex of k's partner p rotated to (p, c, d), and D(x,y|z,t) has
    u = (x, y, k) and w = (p, z, t)."""
    where = {h: (x, y) for x, t in enumerate(d.triples) for y, h in enumerate(t)}
    t = d.triples[i]
    k, a, b = t[j], t[(j + 1) % 3], t[(j + 2) % 3]
    p = d.partner_map[k]
    w, js = where[p]
    tw = d.triples[w]
    c, dd = tw[(js + 1) % 3], tw[(js + 2) % 3]

    def rewired(x, y, z, s):
        triples = list(d.triples)
        triples[i], triples[w] = (x, y, k), (p, z, s)
        return validate(d.space, internal=triples, legs=d.legs, skeleton=d.skeleton,
                        pairing=d.pairing, free_loops=d.free_loops)

    return (rewired(a, b, c, dd), rewired(a, c, b, dd), rewired(b, c, a, dd))


def _rewrite_from(d, i, j):
    """The edge-rewrite vector of the diagrams of :func:`_rewired_from`,
    D(a,b|c,d) - D(a,c|b,d) + D(b,c|a,d)."""
    return DiagramVector(zip(_rewired_from(d, i, j), (1, -1, 1)))


def _has_tadpole(d):
    """Whether some vertex of d has two of its half-edges paired."""
    return any(d.partner_map[h] in t for t in d.triples for h in t)


def _resolve_from(d, i, j):
    """The skeleton-resolution vector read from slot j of vertex i, whose
    half-edge h there meets the circle at p: S - T + U, with T and U the
    vertex's other two half-edges planted at p in order and swapped."""
    t = d.triples[i]
    h, ha, hb = t[j], t[(j + 1) % 3], t[(j + 2) % 3]
    at = d.skeleton.index(d.partner_map[h])

    def planted(x, y):
        return validate("A", internal=d.triples[:i] + d.triples[i + 1:],
                        skeleton=d.skeleton[:at] + (x, y) + d.skeleton[at + 1:],
                        pairing=[pr for pr in d.pairing if h not in pr],
                        free_loops=d.free_loops)

    return DiagramVector([(d, 1), (planted(ha, hb), -1), (planted(hb, ha), 1)])


def _relation_pieces():
    """Every piece of B total <= 8 and of A total <= 6."""
    pieces = [enumerate_diagrams("B", v=v, l=l) for v in range(9) for l in range(9 - v)]
    return pieces + [enumerate_diagrams("A", total=t) for t in range(7)]


def _internal_edges(d):
    """(low end, high end) of each edge between two vertices, as (vertex,
    slot), in the order of the low ends."""
    where = {h: (i, j) for i, t in enumerate(d.triples) for j, h in enumerate(t)}
    return sorted(sorted((where[a], where[b])) for a, b in d.pairing
                  if a in where and b in where and where[a][0] != where[b][0])


def _component_automorphisms(d):
    """Generators of the automorphism group of d, as dicts that fix the
    rest: the oracle's automorphisms of each connected component, and for
    each pair of isomorphic components off the circle one oracle
    automorphism of the two that exchanges them."""

    def part_of(part, skeleton):
        return validate(d.space, internal=[t for t in d.triples if t[0] in part],
                        legs=[g for g in d.legs if g in part],
                        skeleton=skeleton if d.space == "A" else None,
                        pairing=[pr for pr in d.pairing if pr[0] in part])

    perms = []
    floating = []
    for part in oracles.components_naive(d):
        on_circle = bool(d.skeleton) and d.skeleton[0] in part
        sub = part_of(part, d.skeleton if on_circle else ())
        perms += [dict(zip(sorted(part), image))
                  for image in oracles.brute_automorphisms(sub)]
        if not on_circle:
            floating.append((part, sub.grading_key()))
    for (p1, key1), (p2, key2) in itertools.combinations(floating, 2):
        if key1 != key2:
            continue
        both = sorted(p1 | p2)
        low = both.index(min(p1))
        for image in oracles.brute_automorphisms(part_of(p1 | p2, ())):
            if image[low] in p2:
                perms.append(dict(zip(both, image)))
                break
    return perms


def _orbit_heads(items, perms, act):
    """Each item's orbit under the group that perms generate, named by its
    first item: closure by search, in the order of items."""
    head = {}
    for x in items:
        if x in head:
            continue
        head[x], todo = x, [x]
        while todo:
            y = todo.pop()
            for p in perms:
                z = act(p, y)
                if z not in head:
                    head[z] = x
                    todo.append(z)
    return head


def _edge_heads(d):
    """Each internal edge (x < y) mapped to the first edge of its orbit."""
    pmap = d.partner_map
    edges = [tuple(sorted((d.triples[i][j], pmap[d.triples[i][j]])))
             for (i, j), _ in _internal_edges(d)]
    return _orbit_heads(edges, _component_automorphisms(d),
                        lambda p, e: tuple(sorted(p.get(h, h) for h in e)))


def _parallel_edges(d):
    """The edges (x < y) between two vertices that share another edge."""
    at = {h: i for i, t in enumerate(d.triples) for h in t}
    joins = {(a, b): frozenset((at[a], at[b])) for a, b in d.pairing if a in at and b in at}
    ends = list(joins.values())
    return {edge for edge, j in joins.items() if len(j) == 2 and ends.count(j) > 1}


def test_each_internal_edge_gives_the_same_relation_from_either_end():
    """Read from its higher-indexed vertex, an edge gives the vector that
    its lower-indexed vertex gives, so one relation per edge loses none;
    and an automorphism maps an edge's vector to +/- that of the image
    edge, so one per orbit (the oracle's, per component) loses none either.
    ``_ihx_vectors`` gives exactly the first edge's vector of each orbit,
    less the orbits of parallel edges, whose vectors are zero."""
    edges = orbits = skipped = 0
    for d in (d for piece in _relation_pieces() for d in piece):
        pmap = d.partner_map
        head = _edge_heads(d)
        parallel = _parallel_edges(d)
        kept = {}
        for low, high in _internal_edges(d):
            vec = _rewrite_from(d, *low)
            assert _rewrite_from(d, *high) == vec, d
            k = d.triples[low[0]][low[1]]
            edge = tuple(sorted((k, pmap[k])))
            if head[edge] == edge:
                kept[edge] = vec
            else:
                assert vec in (kept[head[edge]], -kept[head[edge]]), d
        assert not any(kept[e] for e in parallel if e in kept), d
        assert list(algebra._ihx_vectors(d, {})) == [
            vec for e, vec in kept.items() if e not in parallel], d
        edges += len(head)
        orbits += len(kept)
        skipped += len(parallel & kept.keys())
    assert edges > 500 and orbits < edges and 0 < skipped < orbits


def test_a_parallel_edge_gives_the_zero_vector():
    """If the two vertices of an edge share another edge, one rewritten
    term has a self-edge and the other cancels the base diagram."""
    seen = 0
    for d in (d for piece in _relation_pieces() for d in piece):
        pmap, parallel = d.partner_map, _parallel_edges(d)
        for low, _ in _internal_edges(d):
            k = d.triples[low[0]][low[1]]
            if tuple(sorted((k, pmap[k]))) in parallel:
                seen += 1
                assert _rewrite_from(d, *low) == DiagramVector(), d
    assert seen > 100


def test_the_three_resolutions_of_an_edge_give_one_vector():
    """Read at its rewritten edge, D(a,c|b,d) gives minus the vector of D
    and D(b,c|a,d) gives it, so one vector per triple loses none."""
    edges = 0
    for d in (d for piece in _relation_pieces() for d in piece):
        for (i, j), _ in _internal_edges(d):
            vec = _rewrite_from(d, i, j)
            # each rewired vertex i is (x, y, k), with k in slot 2
            assert [_rewrite_from(r, i, 2) for r in _rewired_from(d, i, j)] == [
                vec, -vec, vec], d
            edges += 1
    assert edges > 500


def test_edge_rewrites_canonicalize_each_base_diagram_once(monkeypatch):
    """Per base diagram alone: one split into canonicalized components, for
    its canonical form and its automorphisms together, and the two
    rewritten diagrams of one internal edge per orbit, less the parallel
    edges, which are not built (so no built term has a self-edge); no split
    at all when every internal edge is parallel. Over a list, the orbits
    that earlier diagrams' rewritten terms marked are skipped too."""
    ds = enumerate_diagrams("B", v=6, l=0) + enumerate_diagrams("B", v=4, l=2)
    terms = []
    for d in ds:
        low = {tuple(sorted((d.triples[i][j], d.partner_map[d.triples[i][j]]))): (i, j)
               for (i, j), _ in _internal_edges(d)}
        heads = set(_edge_heads(d).values()) - _parallel_edges(d)
        built = [r for edge in heads for r in _rewired_from(d, *low[edge])[1:]]
        assert not any(map(_has_tadpole, built)), d
        terms.append(len(built))
    calls = []

    def recording(d, real=diagrams._split_components):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(diagrams, "_split_components", recording)
    monkeypatch.setattr(algebra, "_split_components", recording)
    ihx_generators(ds)
    total = len(calls)
    alone = 0
    for d, n in zip(ds, terms):
        calls.clear()
        list(algebra._ihx_vectors(d, {}))
        assert calls[:1] == ([d] if n else []) and len(calls) == (1 + n if n else 0), d
        alone += len(calls)
    assert (len(ds), alone, total) == (14, 45, 31)


def test_generators_are_the_distinct_vectors_of_every_edge():
    """Taking one edge (or one vertex half-edge on the circle) per orbit
    drops only repeats: on every piece up to B total 8 and A total 6 the
    generators are, in order, the distinct vectors of all of them."""
    for piece in _relation_pieces():
        every = [_rewrite_from(d, *low) for d in piece for low, _ in _internal_edges(d)]
        assert ihx_generators(piece) == algebra._distinct(every)
        if piece and piece[0].space == "A":
            every = [_resolve_from(d, i, j) for d in piece
                     for i, t in enumerate(d.triples) for j, h in enumerate(t)
                     if d.partner_map[h] in d.skeleton]
            assert stu_generators(piece) == algebra._distinct(every)


def test_generators_reduce_to_zero():
    for g in ihx_generators(enumerate_diagrams("B", v=4, l=0)):
        assert not reduce_vector(g)
    for g in stu_generators(enumerate_diagrams("A", total=4)):
        assert not reduce_vector(g)


# ---------------------------------------------------------------------------
# quotient dimensions (hand counts)


HAND_DIMS = [
    ("B", {"v": 2, "l": 0}, 1),   # theta spans it
    ("B", {"v": 1, "l": 3}, 0),   # only class is antisymmetry-zero
    ("B", {"v": 0, "l": 4}, 1),   # two struts
    ("B", {"v": 2, "l": 2}, 2),   # 2-wheel, theta + strut: no relation mixes them
    ("B", {"v": 4, "l": 0}, 2),   # ladder = +/-2 tetrahedron kills one class
    ("A", {"total": 0}, 1),       # bare circle
    ("A", {"total": 2}, 2),       # chord; circle + floating theta
    ("A", {"total": 4}, 5),
]


def test_quotient_dimensions():
    for space, grading, dim in HAND_DIMS:
        qb = quotient_basis(space, **grading)
        assert qb.dim == dim, (space, grading)


def test_circle_basis_enumerates_the_closed_pieces_once(monkeypatch):
    """A total 6 enumerates B(6, 0) for its closed split, so B(6, 0)
    afterwards canonicalizes nothing."""
    monkeypatch.setattr(diagrams, "_enum_memo", {})
    monkeypatch.setattr(algebra, "_basis_memo", {})
    calls = []

    def counted(d, real=diagrams.canonicalize):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(diagrams, "canonicalize", counted)
    quotient_basis("A", total=6)
    assert calls
    calls.clear()
    quotient_basis("B", v=6, l=0)
    assert calls == []


def test_ladder_is_twice_tetrahedron_up_to_sign():
    k4 = reduce_vector(DiagramVector.single(oracles.k4()))
    lad = reduce_vector(DiagramVector.single(oracles.ladder()))
    assert lad == 2 * k4 or lad == -2 * k4


# ---------------------------------------------------------------------------
# reduction behavior


def test_reduce_is_linear_and_idempotent():
    rng = random.Random(2024)
    pool = enumerate_diagrams("B", v=4, l=0) + enumerate_diagrams("B", v=2, l=2)
    for _ in range(20):
        x = DiagramVector([(d, Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))
                           for d in rng.sample(pool, 3)])
        y = DiagramVector([(d, rng.randrange(-4, 5)) for d in rng.sample(pool, 2)])
        a, b = Fraction(rng.randrange(-3, 4)), Fraction(rng.randrange(-3, 4), 2)
        assert reduce_vector(a * x + b * y) == a * reduce_vector(x) + b * reduce_vector(y)
        assert reduce_vector(reduce_vector(x)) == reduce_vector(x)


def test_equal_mod_relations():
    t = DiagramVector.single(oracles.theta_closed())
    gens = ihx_generators(enumerate_diagrams("B", v=4, l=0))
    assert equal_mod_relations(t, t)
    assert equal_mod_relations(t + gens[0], t)
    assert not equal_mod_relations(t, 2 * t)
    assert equal_mod_relations(DiagramVector(), DiagramVector())


def test_free_loops_ride_along():
    t = oracles.theta_closed()
    v = 3 * DiagramVector.single(t.with_loops(2))
    red = reduce_vector(v)
    assert all(d.free_loops == 2 for d, _ in red.items())
    assert not equal_mod_relations(DiagramVector.single(t),
                                   DiagramVector.single(t.with_loops(1)))
    # the same relation applies loop-stripped and loop-carrying
    lad2 = DiagramVector.single(oracles.ladder().with_loops(1))
    k42 = DiagramVector.single(oracles.k4().with_loops(1))
    assert equal_mod_relations(lad2, 2 * k42) or equal_mod_relations(lad2, -2 * k42)


def test_basis_coordinates():
    qb = quotient_basis("B", v=4, l=0)
    for i, b in enumerate(qb.basis):
        coords = qb.coordinates(DiagramVector.single(b))
        assert coords == [Fraction(j == i) for j in range(qb.dim)]


# ---------------------------------------------------------------------------
# cache


def _fresh(key):
    _basis_memo.pop(key, None)


def test_basis_cache_round_trip(tmp_path):
    key = ("B", 3, 3)
    _fresh(key)
    cold = quotient_basis("B", v=3, l=3, cache_dir=str(tmp_path))
    path = tmp_path / cache_mod.basis_filename(key)
    assert path.exists()
    first_bytes = path.read_bytes()

    _fresh(key)
    warm = quotient_basis("B", v=3, l=3, cache_dir=str(tmp_path))
    assert warm.to_payload() == cold.to_payload()
    assert warm.dim == cold.dim

    # deterministic bytes on re-save
    cache_mod.save_basis(str(tmp_path), key, warm.to_payload())
    assert path.read_bytes() == first_bytes


def test_basis_cache_ignores_incompatible_files(tmp_path):
    key = ("B", 3, 3)
    _fresh(key)
    cold = quotient_basis("B", v=3, l=3, cache_dir=str(tmp_path))
    path = tmp_path / cache_mod.basis_filename(key)

    path.write_text("{not json")
    _fresh(key)
    again = quotient_basis("B", v=3, l=3, cache_dir=str(tmp_path))
    assert again.to_payload() == cold.to_payload()

    stale = json.loads(path.read_text())
    stale["conventions"] = -1
    path.write_text(json.dumps(stale))
    assert cache_mod.load_basis(str(tmp_path), key) is None
    _fresh(key)
    rebuilt = quotient_basis("B", v=3, l=3, cache_dir=str(tmp_path))
    assert rebuilt.to_payload() == cold.to_payload()


def test_default_cache_dir_resolution(monkeypatch):
    monkeypatch.setenv("WEIGHTSYS_CACHE", "/tmp/explicit-cache")
    assert cache_mod.default_cache_dir() == "/tmp/explicit-cache"
    monkeypatch.delenv("WEIGHTSYS_CACHE")
    monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
    assert cache_mod.default_cache_dir() == "/tmp/xdg/weightsys"
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert cache_mod.default_cache_dir().endswith("/.cache/weightsys")


# ---------------------------------------------------------------------------
# row-reduction soundness: the coset-representative machinery substitutes
# each eliminated coordinate in a single pass, which is only valid when
# every pivot row is clean of every other pivot column


@pytest.mark.parametrize("space,kwargs", [
    ("A", {"total": 6}),
    ("B", {"v": 4, "l": 2}),
    ("B", {"v": 6, "l": 0}),
])
def test_pivot_rows_are_fully_reduced(space, kwargs):
    qb = quotient_basis(space, **kwargs)
    pivot_cols = set(qb.pivots)
    for col, row in qb.pivots.items():
        tail = set(row) - {col}
        assert not (tail & pivot_cols)


@pytest.mark.parametrize("space,kwargs", [
    ("A", {"total": 4}),
    ("A", {"total": 6}),
    ("B", {"v": 4, "l": 2}),
])
def test_every_relation_generator_reduces_to_zero(space, kwargs):
    qb = quotient_basis(space, **kwargs)
    gens = ihx_generators(qb.diagrams)
    if space == "A":
        gens += stu_generators(qb.diagrams)
    assert gens
    for g in gens:
        assert not qb.reduce(g)


def _relation_pivots(qb, gens):
    """The RREF of the relation vectors ``gens`` in the coordinates of qb."""
    index = {d._key: i for i, d in enumerate(qb.diagrams)}
    return algebra._rref([{index[d._key]: c for d, c in g._terms.items()} for g in gens])


def test_circle_bases_take_edge_rewrites_only_where_no_vertex_meets_the_circle(
        monkeypatch):
    """A circle-space basis takes edge rewrites only at diagrams whose
    circle points are all chord ends; skeleton resolutions imply the rest,
    so its pivots are those of every relation.  Without any edge rewrite
    the pieces come out too large."""
    passed = []

    def spy(ds):
        passed.append(ds)
        return ihx_generators(ds)

    monkeypatch.setattr(algebra, "_basis_memo", {})
    monkeypatch.setattr(algebra, "ihx_generators", spy)
    for total in range(0, 10, 2):
        passed.clear()
        qb = quotient_basis("A", total=total)
        every = ihx_generators(qb.diagrams) + stu_generators(qb.diagrams)
        assert qb.pivots == _relation_pivots(qb, every), total
        chords_only = [d for d in qb.diagrams
                       if all(d.partner_map[h] in d.skeleton for h in d.skeleton)]
        assert passed == [chords_only], total
    assert 0 < len(chords_only) < len(qb.diagrams)
    # the guard against pruning too far: total 4 needs its edge rewrites
    qb = quotient_basis("A", total=4)
    assert qb.dim == 5
    assert len(qb.diagrams) - len(_relation_pivots(qb, stu_generators(qb.diagrams))) == 6


# every nonempty piece of total <= 8 (odd pieces are empty by parity)
_PIECES_TO_8 = [("B", {"v": v, "l": l}) for v in range(9) for l in range(9 - v)
                if (v + l) % 2 == 0] + [("A", {"total": t}) for t in range(9)]


def test_pivots_certify_the_relation_rows_they_were_built_from(monkeypatch):
    """The exact check of a stored elimination: every relation row a basis
    is built from reduces to zero against its pivots in one sweep, there is
    one pivot per unit of rank, and no free column's unit row reduces to
    zero, so the check refuses a span that is too large."""
    built = []

    def spy(rows):
        built.append(rows)
        return rref(rows)

    rref = algebra._rref
    monkeypatch.setattr(algebra, "_basis_memo", {})
    monkeypatch.setattr(algebra, "_rref", spy)
    rows_seen = free_seen = 0
    for space, kwargs in _PIECES_TO_8:
        built.clear()
        qb = quotient_basis(space, **kwargs)
        [rows] = built
        for row in rows:
            assert not algebra._reduce(dict(row), qb.pivots), (space, kwargs)
        assert len(qb.pivots) == len(rref(rows)), (space, kwargs)
        for i in range(len(qb.diagrams)):
            if i not in qb.pivots:
                assert algebra._reduce({i: Fraction(1)}, qb.pivots) == {i: 1}
                free_seen += 1
        rows_seen += len(rows)
    assert rows_seen and free_seen


def test_elimination_ignores_row_order(monkeypatch):
    """The reduced row echelon form of a row space is unique: on every cold
    piece up to total 8, the relation rows as built, reversed and shortest
    first give equal pivots, those the basis stores."""
    built = []

    def spy(index, terms):
        row = coordinates(index, terms)
        built.append(row)
        return row

    coordinates = algebra._coordinates
    monkeypatch.setattr(algebra, "_basis_memo", {})
    monkeypatch.setattr(algebra, "_coordinates", spy)
    for space, kwargs in _PIECES_TO_8:
        built.clear()
        qb = quotient_basis(space, **kwargs)
        rows = list(built)
        assert algebra._rref(rows) == qb.pivots, (space, kwargs)
        assert algebra._rref(rows[::-1]) == qb.pivots, (space, kwargs)
        assert algebra._rref(sorted(rows, key=len)) == qb.pivots, (space, kwargs)


def test_reduce_is_idempotent_and_linear_on_random_vectors():
    rng = random.Random(23)
    qb = quotient_basis("A", total=6)
    pool = qb.diagrams
    for _ in range(10):
        v1 = DiagramVector([(rng.choice(pool), Fraction(rng.randint(-9, 9), rng.randint(1, 7)))
                            for _ in range(4)])
        v2 = DiagramVector([(rng.choice(pool), rng.randint(-5, 5)) for _ in range(3)])
        r1, r2 = qb.reduce(v1), qb.reduce(v2)
        assert qb.reduce(r1) == r1
        assert qb.reduce(v1 + v2) == r1 + r2
        assert set(d.with_loops(0)._key for d in (r1 + r2)._terms) <= {
            b._key for b in qb.basis}


def test_grading_arguments_that_name_no_piece_are_refused():
    # enumeration and bases decide their grading arguments in one place
    for call in (lambda: enumerate_diagrams("B", v=2, l=0, total=2),
                 lambda: enumerate_diagrams("A", total=4, v=3),
                 lambda: enumerate_diagrams("A", v=2),
                 lambda: quotient_basis("B", v=2),
                 lambda: quotient_basis("A", total=2, l=0)):
        with pytest.raises(GradingMismatchError, match="pieces are named by"):
            call()
    for space in ("C", None):
        with pytest.raises(SpaceMismatchError, match="unknown space"):
            enumerate_diagrams(space, total=2)
        with pytest.raises(SpaceMismatchError, match="unknown space"):
            quotient_basis(space, total=2)
