"""Property tests: arbitrary JSON on the stdin of the CLI verbs, JSON
round trips, canonical forms under relabeling, and the linearity of vectors."""

import io
import json
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

import oracles
from weightsys import cli
from weightsys.algebra import DiagramVector, vector_from_json, vector_to_json
from weightsys.diagrams import (canonicalize, diagram_from_json, diagram_to_json,
                                enumerate_diagrams, validate)
from weightsys.maps import cap, chi, closure, connect_sum, disjoint_union, exp_disjoint

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Arbitrary JSON, often shaped like a diagram, a vector or a pair, so that
# payloads reach the checks past the first one.  Integers stay small:
# half-edge labels then often match, and a large loop count or grading is
# unbounded work that no budget caps yet.
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 9) | st.floats()
            | st.sampled_from(("A", "B", "1/2", "1/0")) | st.text(max_size=3))


def _diagram(inner):
    part = _SCALARS | inner
    parts = dict.fromkeys(("internal", "legs", "pairing", "free_loops"), part)
    return (st.fixed_dictionaries({"space": st.just("B")}, optional=parts)
            | st.fixed_dictionaries({"space": st.just("A"), "skeleton": part},
                                    optional=parts))


def _shapes(inner):
    return (st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3)
            | _diagram(inner)
            | st.fixed_dictionaries({"coeff": inner, "diagram": inner})
            | st.fixed_dictionaries({"left": inner, "right": inner}))


_JSON = st.recursive(_SCALARS, _shapes, max_leaves=24)
_VECTOR = st.lists(st.fixed_dictionaries({"coeff": _JSON, "diagram": _diagram(_JSON)}),
                   max_size=3)
_PAYLOADS = _JSON | _diagram(_JSON) | _VECTOR | st.fixed_dictionaries(
    {"left": _VECTOR, "right": _VECTOR})
_VERBS = (["reduce"], ["chi"], ["close"], ["cap"], ["connect-sum"],
          ["eval", "--algebra", "sl2"])


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@settings(max_examples=200, deadline=None, database=None)
@given(verb=st.sampled_from(_VERBS), payload=_PAYLOADS)
def test_any_json_on_stdin_exits_with_a_documented_status(cache, verb, payload):
    out, status = cli._respond([*verb, "--cache-dir", cache],
                               io.StringIO(json.dumps(payload)))
    assert status in range(6)
    if status:
        assert set(out["error"]) == {"code", "message"}


# Diagrams with every structural feature, and the classes of small pieces
# (zero ones included), drawn under a random relabeling.
_POPULATION = ([d for d, _ in oracles.corpus()]
               + [d for t in (2, 4) for d in enumerate_diagrams("A", total=t)]
               + [d for v, l in ((2, 2), (4, 0), (3, 1), (2, 4))
                  for d in enumerate_diagrams("B", v=v, l=l)])
_RELABELED = st.builds(oracles.relabel_randomly, st.sampled_from(_POPULATION),
                       st.randoms(use_true_random=False))
_COEFFS = st.fractions(max_denominator=12).filter(bool) | st.integers(-5, 5)


@settings(max_examples=100, deadline=None, database=None)
@given(relabeled=_RELABELED)
def test_diagram_json_round_trip(relabeled):
    d, _ = relabeled
    assert diagram_from_json(diagram_to_json(d)) == d


@settings(max_examples=40, deadline=None, database=None)
@given(terms=st.lists(st.tuples(_RELABELED, _COEFFS), max_size=4))
def test_vector_json_round_trip(terms):
    vec = DiagramVector((d, c) for (d, _), c in terms)
    assert vector_from_json(json.loads(json.dumps(vector_to_json(vec)))) == vec


@settings(max_examples=100, deadline=None, database=None)
@given(d=st.sampled_from(_POPULATION), rng=st.randoms(use_true_random=False))
def test_canonical_form_is_invariant_under_relabeling(d, rng):
    relabeled, parity = oracles.relabel_randomly(d, rng)
    base, got = canonicalize(d), canonicalize(relabeled)
    assert got.diagram == base.diagram
    assert got.sign == base.sign * parity


def _with_vertex_reversed(d, i):
    triples = list(d.triples)
    triples[i] = triples[i][::-1]
    return validate(d.space, internal=triples, legs=d.legs, skeleton=d.skeleton,
                    pairing=d.pairing, free_loops=d.free_loops)


@settings(max_examples=40, deadline=None, database=None)
@given(first=_RELABELED, second=_RELABELED, a=_COEFFS, b=_COEFFS,
       rng=st.randoms(use_true_random=False))
def test_a_vector_is_linear_in_its_terms(first, second, a, b, rng):
    """A vector is the combination of its terms' vectors; relabeling a term
    (times the sign of the vertex reversals the relabeling makes) leaves it
    unchanged, and reversing one vertex of a term negates that term."""
    (d1, _), (d2, _) = first, second
    vec = DiagramVector([(d1, a), (d2, b)])
    assert vec == a * DiagramVector.single(d1) + b * DiagramVector.single(d2)
    relabeled, parity = oracles.relabel_randomly(d1, rng)
    assert DiagramVector([(relabeled, parity * a), (d2, b)]) == vec
    if d1.v:
        reversed_ = _with_vertex_reversed(d1, rng.randrange(d1.v))
        assert DiagramVector.single(reversed_, a) == -DiagramVector.single(d1, a)
        assert DiagramVector([(reversed_, -a), (d2, b)]) == vec


# Each map, with a fixed vector on the other side of a product, and the
# corpus diagrams of its space (those with vertices for exp_disjoint).
_LEGS = [d for d, _ in oracles.corpus() if d.space == "B"]
_CIRCLE = [d for d, _ in oracles.corpus() if d.space == "A"]
_STRUT = DiagramVector.single(oracles.strut())
_W2 = DiagramVector.single(oracles.wheel(2))
_CHORD = DiagramVector.single(oracles.chord())
_MAPS = {
    "chi": (chi, _LEGS),
    "closure": (lambda x: closure(x, pair_weight=2), _LEGS),
    "cap-from": (lambda x: cap(x, disjoint_union(_W2, _W2)), _LEGS),
    "cap-into": (lambda x: cap(_W2, x), _LEGS),
    "disjoint_union-left": (lambda x: disjoint_union(x, _STRUT), _LEGS),
    "disjoint_union-right": (lambda x: disjoint_union(_W2, x), _LEGS),
    "connect_sum-left": (lambda x: connect_sum(x, _CHORD), _CIRCLE),
    "connect_sum-right": (lambda x: connect_sum(_CHORD, x), _CIRCLE),
    "exp_disjoint": (lambda x: exp_disjoint(x, 6), [d for d in _LEGS if d.v]),
}


@settings(max_examples=80, deadline=None, database=None)
@given(name=st.sampled_from(sorted(_MAPS)), rng=st.randoms(use_true_random=False))
def test_a_map_takes_a_lone_diagram_as_its_one_term_vector(name, rng):
    apply, pool = _MAPS[name]
    d, _ = oracles.relabel_randomly(rng.choice(pool), rng)
    assert apply(d) == apply(DiagramVector.single(d))


# chi by its definition: 1/l! times the sum over all l! leg orders, on leg
# diagrams of at most six legs (720 orders), each drawn relabeled
_FEW_LEGS = _LEGS + [d for v, l in ((0, 2), (0, 4), (0, 6), (1, 3), (2, 2), (2, 4),
                                     (3, 3), (4, 2))
                     for d in enumerate_diagrams("B", v=v, l=l)]


def _chi_by_definition(d):
    w = Fraction(1, factorial(d.l))
    return DiagramVector((validate("A", internal=d.triples, skeleton=order,
                                   pairing=d.pairing, free_loops=d.free_loops), w)
                         for order in permutations(d.legs))


@settings(max_examples=40, deadline=None, database=None)
@given(d=st.sampled_from(_FEW_LEGS), rng=st.randoms(use_true_random=False))
def test_chi_equals_its_average_over_all_leg_orders(d, rng):
    relabeled, _ = oracles.relabel_randomly(d, rng)
    assert relabeled.l <= 6
    assert chi(relabeled) == _chi_by_definition(relabeled)
