"""Builders, products, the leg-averaging map, closures, cappings, and the
wheels series.

Closed-form values asserted here were each derived by hand (explicit
matchings and sign folds) and cross-checked against independent structural
identities further down the file: iterated capping, the matching-partition
law for closures, and the struts-versus-closure correspondence.
"""

from fractions import Fraction

import pytest

import oracles
from weightsys import maps
from weightsys.algebra import DiagramVector, equal_mod_relations, reduce_vector
from weightsys.diagrams import (DEFAULT_MAX_STEPS, Diagram, bare_circle, canonicalize,
                                empty_diagram, validate)
from weightsys.errors import GradingMismatchError, ResourceLimitError, SpaceMismatchError
from weightsys.maps import (
    cap,
    chi,
    closure,
    connect_sum,
    disjoint_union,
    exp_disjoint,
    modified_bernoulli,
    omega,
    strut,
    theta,
    wheel,
    wheels_vector,
)

F = Fraction


def V(d, c=1):
    return DiagramVector.single(d, c)


def du(*vs):
    out = vs[0]
    for v in vs[1:]:
        out = disjoint_union(out, v)
    return out


ONE = V(empty_diagram())
LOOP = V(empty_diagram().with_loops(1))
LOOP2 = V(empty_diagram().with_loops(2))
S = V(strut())
W2 = V(wheel(2))
THETA = V(theta())
CIRCLE = V(bare_circle())


def a_chord():
    return validate("A", skeleton=(0, 1), pairing=((0, 1),))


def a_theta():
    return validate("A", internal=((2, 3, 4), (5, 6, 7)), skeleton=(0, 1),
                    pairing=((0, 2), (1, 5), (3, 6), (4, 7)))


# ---------------------------------------------------------------------------
# builders


def test_builders_have_expected_gradings():
    assert (strut().v, strut().l) == (0, 2)
    assert (theta().v, theta().l) == (2, 0)
    for k in (2, 3, 4, 6):
        w = wheel(k)
        assert (w.v, w.l) == (k, k)
    assert canonicalize(theta()).sign == 1
    # even wheels are orientation-rigid but the builder labeling folds with
    # a sign at k=2 and none at k=4
    assert canonicalize(wheel(2)).sign == -1
    assert canonicalize(wheel(4)).sign == 1
    # odd wheels vanish by antisymmetry
    assert not V(oracles.wheel(3))


# ---------------------------------------------------------------------------
# disjoint union and connected sum


def test_disjoint_union_is_bilinear_commutative_and_loop_aware():
    a = 2 * S + W2
    b = THETA - 3 * S
    assert du(a, b) == du(b, a)
    assert du(a, b + ONE) == du(a, b) + a
    assert du(LOOP, LOOP) == LOOP2
    assert du(S, LOOP).coefficient(strut().with_loops(1)) == 1


def test_disjoint_union_rejects_circle_space():
    message = "^disjoint union is a leg-space product$"
    with pytest.raises(SpaceMismatchError, match=message):
        disjoint_union(chi(S), S)
    with pytest.raises(SpaceMismatchError, match=message):
        disjoint_union(chi(S), chi(S))


def test_connect_sum_unit_commutativity_associativity():
    chord = V(a_chord())
    th = V(a_theta())
    assert connect_sum(CIRCLE, chord) == chord
    assert connect_sum(chord, CIRCLE) == chord
    assert connect_sum(th, chord) == connect_sum(chord, th)
    assert connect_sum(connect_sum(th, chord), chord) == \
        connect_sum(th, connect_sum(chord, chord))


def test_connect_sum_rejects_leg_space():
    with pytest.raises(SpaceMismatchError,
                       match="^connect sum is a circle-space product$"):
        connect_sum(S, S)


# ---------------------------------------------------------------------------
# the leg-averaging map into the circle space


def test_chi_units_and_single_leg_values():
    assert chi(ONE) == CIRCLE
    assert chi(S) == V(a_chord())
    assert chi(W2) == -V(a_theta())


def test_chi_on_two_struts_averages_over_placements():
    ss = du(S, S)
    noncrossing = validate("A", skeleton=(0, 1, 2, 3), pairing=((0, 1), (2, 3)))
    crossing = validate("A", skeleton=(0, 1, 2, 3), pairing=((0, 2), (1, 3)))
    assert chi(ss) == F(2, 3) * V(noncrossing) + F(1, 3) * V(crossing)


def test_chi_on_wheel_with_strut():
    mix = du(W2, S)
    adj = validate("A", internal=((4, 5, 6), (7, 8, 9)), skeleton=(0, 1, 2, 3),
                   pairing=((0, 4), (1, 7), (2, 3), (5, 8), (6, 9)))
    alt = validate("A", internal=((4, 5, 6), (7, 8, 9)), skeleton=(0, 1, 2, 3),
                   pairing=((0, 4), (1, 3), (2, 7), (5, 8), (6, 9)))
    assert chi(mix) == -F(2, 3) * V(adj) - F(1, 3) * V(alt)


def test_chi_carries_closed_components_as_floats():
    mix = du(W2, THETA)
    floated = validate(
        "A",
        internal=((2, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13)),
        skeleton=(0, 1),
        pairing=((0, 2), (1, 5), (3, 6), (4, 7), (8, 11), (9, 12), (10, 13)))
    assert chi(mix) == -V(floated)
    assert chi(mix) == disjoint_sum_of_float(chi(W2), THETA)


def disjoint_sum_of_float(avec, bclosed):
    """Append a closed leg-space vector to a circle-space vector as floating
    components (test-local helper: float appending is only reachable through
    the leg-averaging map, so emulate it by averaging the combined input)."""
    out = DiagramVector.zero()
    for da, ca in avec.items():
        for db, cb in bclosed.items():
            assert db.space == "B" and db.l == 0
            shift = max((h for t in da.triples for h in t),
                        default=max(da.skeleton, default=-1)) + 1
            triples = da.triples + tuple(
                tuple(h + shift for h in t) for t in db.triples)
            pairing = da.pairing + tuple(
                (a + shift, b + shift) for a, b in db.pairing)
            d = Diagram(da.space, triples, (), da.skeleton, pairing,
                        da.free_loops + db.free_loops)
            out = out + V(d, ca * cb)
    return out


def test_chi_preserves_loops_and_mismatched_space_raises():
    assert chi(du(S, LOOP)).coefficient(a_chord().with_loops(1)) == 1
    with pytest.raises(SpaceMismatchError,
                       match="^symmetrization starts from leg-space diagrams$"):
        chi(V(a_chord()))


def test_a_lone_zero_diagram_from_the_wrong_space_raises():
    # a two-tadpole dumbbell beside the bare circle: zero by antisymmetry,
    # but still a circle-space diagram
    dumbbell = validate("A", internal=[(0, 1, 2), (3, 4, 5)], skeleton=[],
                        pairing=[(0, 1), (2, 3), (4, 5)])
    assert canonicalize(dumbbell).sign == 0
    for apply, message in ((chi, "symmetrization starts from leg-space diagrams"),
                           (closure, "closure acts on leg-space diagrams"),
                           (lambda x: cap(x, S), "capping acts on leg-space diagrams"),
                           (lambda x: disjoint_union(S, x),
                            "disjoint union is a leg-space product")):
        with pytest.raises(SpaceMismatchError, match=f"^{message}$"):
            apply(dumbbell)
    # a zero left argument still has its right argument's space checked
    zero = DiagramVector()
    for apply, right, message in (
            (disjoint_union, bare_circle(), "disjoint union is a leg-space product"),
            (disjoint_union, dumbbell, "disjoint union is a leg-space product"),
            (cap, bare_circle(), "capping acts on leg-space diagrams"),
            (cap, dumbbell, "capping acts on leg-space diagrams"),
            (connect_sum, strut(), "connect sum is a circle-space product")):
        with pytest.raises(SpaceMismatchError, match=f"^{message}$"):
            apply(zero, right)


# ---------------------------------------------------------------------------
# closures


def test_closure_of_even_wheel_and_struts():
    assert closure(W2) == -THETA
    assert closure(du(S, S)) == 2 * LOOP + LOOP2
    assert closure(du(S, S), pair_weight=2) == 8 * LOOP + 4 * LOOP2
    assert closure(ONE) == ONE
    assert closure(S) == LOOP
    assert closure(S, pair_weight=2) == 2 * LOOP


def test_closure_rejects_circle_space():
    with pytest.raises(SpaceMismatchError,
                       match="^closure acts on leg-space diagrams$"):
        closure(chi(S))


# ---------------------------------------------------------------------------
# cappings


def test_cap_scalar_cases():
    assert cap(ONE, S) == S
    assert cap(S, S) == 2 * LOOP
    assert cap(W2, S) == -2 * THETA
    assert cap(S, du(S, S)) == 4 * du(LOOP, S) + 8 * S
    # more legs in the pattern than the target: no injections at all
    assert not cap(du(S, S), S)


def test_cap_of_two_wheels_is_twice_the_ladder():
    ladder = validate("B",
                      internal=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
                      pairing=((0, 3), (1, 4), (2, 6), (5, 9), (7, 10), (8, 11)))
    assert cap(W2, W2) == 2 * V(ladder)


def test_cap_into_wheel_with_strut_splits_into_three_families():
    p1 = cap(W2, du(W2, S))
    two_bubbles = validate(
        "B", internal=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
        legs=(12, 13),
        pairing=((0, 3), (1, 4), (2, 6), (5, 12), (7, 10), (8, 11), (9, 13)))
    ladder = validate("B",
                      internal=((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)),
                      pairing=((0, 3), (1, 4), (2, 6), (5, 9), (7, 10), (8, 11)))
    # du(THETA, W2) folds to -1 times the canonical theta-with-wheel class
    rest = p1 + 2 * du(THETA, W2) - 2 * du(V(ladder), S)
    assert len(rest) == 1
    assert abs(rest.coefficient(two_bubbles)) == 8


def test_cap_iterates_one_component_at_a_time():
    for c1, c2, target in [
        (S, S, du(S, S)),
        (W2, S, du(W2, S)),
        (S, W2, du(S, du(S, S))),
    ]:
        assert cap(du(c1, c2), target) == cap(c1, cap(c2, target))


def test_cap_by_struts_matches_closure():
    # gluing k struts into a 2k-legged vector enumerates all matchings,
    # each 2 * k! times over
    assert cap(S, W2) == 2 * closure(W2)
    assert cap(du(S, S), du(S, S)) == 8 * closure(du(S, S))
    assert cap(du(S, S), du(W2, S))  # nonzero sanity
    assert cap(du(S, S), du(W2, S)) == 8 * closure(du(W2, S))


def test_closure_partition_law():
    # matchings of (C | X) split by whether C closes onto itself or caps
    # into X, when C has exactly two legs
    for c, x in [(S, du(S, S)), (W2, du(S, S)), (W2, du(W2, S)), (S, du(W2, S))]:
        lhs = closure(du(c, x))
        rhs = du(closure(c), closure(x)) + closure(cap(c, x))
        assert lhs == rhs


def test_cap_rejects_circle_space():
    message = "^capping acts on leg-space diagrams$"
    with pytest.raises(SpaceMismatchError, match=message):
        cap(chi(S), S)
    with pytest.raises(SpaceMismatchError, match=message):
        cap(S, chi(S))


# ---------------------------------------------------------------------------
# the wheels series


def test_modified_bernoulli_values_and_domain():
    assert [modified_bernoulli(i) for i in (1, 2, 3, 4)] == [
        F(1, 48), F(-1, 5760), F(1, 362880), F(-1, 19353600)]
    with pytest.raises(ValueError):
        modified_bernoulli(0)


def test_modified_bernoulli_against_classical_recursion():
    import math
    for i in range(1, 7):
        classical = oracles.bernoulli_number(2 * i)
        assert modified_bernoulli(i) == classical / (4 * i * math.factorial(2 * i))


def test_wheels_vector_collects_even_wheels():
    wv = wheels_vector(4)
    assert wv == F(1, 48) * V(wheel(2)) + F(-1, 5760) * V(wheel(4))
    assert wv.coefficient(canonicalize(wheel(2)).diagram) == F(-1, 48)
    assert wheels_vector(5) == wv


def test_omega_truncations():
    assert omega(0) == ONE
    om2 = omega(2)
    assert om2 == ONE + F(1, 48) * V(wheel(2))
    assert omega(3) == om2
    om4 = omega(4)
    expected = (ONE + F(1, 48) * V(wheel(2)) + F(-1, 5760) * V(wheel(4))
                + F(1, 4608) * du(V(wheel(2)), V(wheel(2))))
    assert om4 == expected
    w2c = canonicalize(wheel(2)).diagram
    assert om4.coefficient(w2c) == F(-1, 48)


def test_omega_canonicalizes_nothing_past_its_bound(monkeypatch):
    # exp drops a product whose vertices exceed the bound before building
    # it; the reference below builds every product and truncates after.
    import weightsys.algebra as algebra
    real = algebra.canonicalize
    seen = []

    def recording(d, *args, **kwargs):
        seen.append(d)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(algebra, "canonicalize", recording)
    om8 = omega(8)
    monkeypatch.undo()
    assert seen and max(d.v for d in seen) <= 8
    wv = wheels_vector(8)
    expected = power = ONE
    for k in range(1, 5):
        power = F(1, k) * du(power, wv)
        expected = expected + power
    assert om8 == DiagramVector((d, c) for d, c in expected.items() if d.v <= 8)


def test_omega_counts_its_half_edges_before_building_a_wheel(monkeypatch):
    # omega(vmax) has p(m) terms with 2m vertices and 8m half-edges for each
    # m <= vmax/2: 30 terms at vmax 12 and 508 at vmax 28, counted exactly.
    for vmax, terms in ((12, 30), (28, 508)):
        om = omega(vmax)
        assert len(om) == terms
        assert maps._omega_half_edges(vmax) == sum(
            len(list(d.half_edges())) for d, _ in om.items())
    assert maps._omega_half_edges(50) <= DEFAULT_MAX_STEPS < maps._omega_half_edges(52)
    # the count stops at the first partition size past the budget
    assert maps._omega_half_edges(10 ** 20) == maps._omega_half_edges(52)

    def no_wheels(vmax):
        raise AssertionError("a wheel was built past the budget")

    monkeypatch.setattr(maps, "wheels_vector", no_wheels)
    with pytest.raises(ResourceLimitError, match="omega exceeded"):
        omega(10 ** 20)


def struts(legs):
    """legs / 2 struts side by side."""
    return validate("B", legs=list(range(legs)),
                    pairing=[(g, g + 1) for g in range(0, legs, 2)])


def test_closure_and_cap_count_their_work_before_gluing(monkeypatch):
    # closure charges (l-1)!! matchings times half-edges per term, cap
    # k!/(k-j)! injections times half-edges per pair: 14 legs close within
    # the budget and 16 do not; 6 legs cap into 8 within it and into 10 not
    assert maps._closure_steps(struts(14)) == 135_135 * 14 <= DEFAULT_MAX_STEPS
    assert maps._closure_steps(struts(16)) > DEFAULT_MAX_STEPS
    assert maps._cap_steps(struts(6), struts(8)) == 20_160 * 14 <= DEFAULT_MAX_STEPS
    assert maps._cap_steps(struts(6), struts(10)) > DEFAULT_MAX_STEPS
    assert maps._closure_steps(wheel(3)) == 0 == maps._cap_steps(struts(4), struts(2))
    # verify closure-omega at vmax 10 stays within the budget
    assert sum(maps._closure_steps(d) for d, _ in omega(10).items()) == 282_584

    def no_glue(d, pairs):
        raise AssertionError("a gluing was built past the budget")

    monkeypatch.setattr(maps, "_glue", no_glue)
    with pytest.raises(ResourceLimitError, match="expansion exceeded"):
        closure(struts(16))
    with pytest.raises(ResourceLimitError, match="expansion exceeded"):
        cap(struts(6), V(struts(10)) + V(struts(2)))


def test_exp_disjoint_truncates_by_vertices():
    e = exp_disjoint(W2, 4)
    assert e == ONE + W2 + F(1, 2) * du(W2, W2)
    assert exp_disjoint(W2, 0) == ONE
    assert exp_disjoint(W2, 5) == e
    with pytest.raises(GradingMismatchError,
                       match="^vmax must be non-negative, got -1$"):
        exp_disjoint(W2, -1)


# ---------------------------------------------------------------------------
# closure of the wheels series: exponential of the two-vertex closed
# diagram, in both gluing normalizations


def test_closure_of_omega_is_exponential_of_theta():
    theta_vec = -closure(W2)  # the +theta class
    for pair_weight, denom in ((1, -48), (2, -24)):
        for vmax in (2, 4, 6):
            lhs = closure(omega(vmax), pair_weight=pair_weight)
            rhs = ONE
            term = ONE
            k = 0
            while (k + 1) * 2 <= vmax:
                k += 1
                term = du(term, theta_vec) * (F(1, denom) / k)
                rhs = rhs + term
            assert equal_mod_relations(lhs, rhs)


# ---------------------------------------------------------------------------
# multiplicativity of the capped-averaging composite


def wheeled(x):
    legs = max((d.l for d in dict(x.items())), default=0)
    return chi(cap(omega(legs), x))


@pytest.mark.parametrize("name,a,b", [
    ("unit", None, None),
    ("strut-strut", "S", "S"),
    ("wheel-strut", "W2", "S"),
    ("strut-strutpair", "S", "SS"),
])
def test_capped_averaging_is_multiplicative(name, a, b):
    vecs = {"S": S, "W2": W2, "SS": du(S, S), None: ONE}
    x, y = vecs[a], vecs[b]
    lhs = wheeled(du(x, y))
    rhs = connect_sum(wheeled(x), wheeled(y))
    assert equal_mod_relations(lhs, rhs)
