"""The tensor layer on its own: seeded random closed networks, planned and
contracted, against the brute-force oracles in ``oracles``."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from weightsys import tensor
from weightsys.tensor import (DP_WIDTH, ContractionPlan, SharedMerges, SparseTensor,
                              contract_network, network_keys, plan_contraction)


def random_network(rng, n):
    """n nodes of 0-3 axes wired by a random perfect matching of their
    axes (so self-edges and parallel edges occur), edge dimensions 1-3
    with at most 2000 index assignments in all, and sparse Fraction
    entries."""
    arity = [rng.choice((0, 1, 2, 2, 3, 3)) for _ in range(n)]
    if sum(arity) % 2:
        arity[rng.randrange(n)] += 1
    slots = [(i, a) for i in range(n) for a in range(arity[i])]
    rng.shuffle(slots)
    edges = [(slots[k], slots[k + 1]) for k in range(0, len(slots), 2)]
    dims = [rng.randint(1, 3) for _ in edges]
    while math.prod(dims) > 2000:
        dims[rng.choice([e for e, d in enumerate(dims) if d > 1])] = 1
    shapes = [[0] * k for k in arity]
    for ((i, a), (j, b)), d in zip(edges, dims):
        shapes[i][a] = shapes[j][b] = d
    datas = []
    for shape in shapes:
        datas.append({k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
                      for k in itertools.product(*map(range, shape))
                      if rng.random() < 0.8})
    return [tuple(s) for s in shapes], datas, edges


def run(tensors, edges, plan):
    """Compile a network, its nodes named by their ids, and run it."""
    keys = network_keys(range(len(tensors)), [t.shape for t in tensors], edges, plan)
    return contract_network(tensors, keys)


@pytest.fixture
def dp_runs(monkeypatch):
    """The group count of each run of the exact DP, in order; the plan
    memo starts and ends empty."""
    runs = []

    def counted(cross, *args, real=tensor._subset_dp):
        runs.append(len(cross))
        return real(cross, *args)

    monkeypatch.setattr(tensor, "_subset_dp", counted)
    tensor._plan_shape.cache_clear()
    yield runs
    tensor._plan_shape.cache_clear()


def plan_afresh(shapes, edges, dp_runs):
    """``plan_contraction`` on an empty plan memo, with ``dp_runs``
    emptied first, so it lists the DP's runs for this plan alone."""
    tensor._plan_shape.cache_clear()
    dp_runs.clear()
    return plan_contraction(shapes, edges)


def test_planned_contraction_matches_brute_force_on_random_networks(dp_runs):
    rng = random.Random(20260)
    seen = {"self": 0, "parallel": 0, "greedy": 0, "nonzero": 0}
    for trial in range(132):
        n = 1 + trial % 11
        shapes, datas, edges = random_network(rng, n)
        # the same plan as the bond-scan reference, closed and with the
        # axes of the last edge left free
        opened = plan_afresh(shapes, edges[:-1], dp_runs)
        assert (opened.order, opened.cost) == oracles.plan_by_bond_scan(shapes, edges[:-1])
        plan = plan_afresh(shapes, edges, dp_runs)
        assert (plan.order, plan.cost) == oracles.plan_by_bond_scan(shapes, edges)
        # the greedy plan unless the DP ran, and never costlier than it
        greedy = oracles.plan_by_bond_scan(shapes, edges, refine=False)
        assert plan.cost <= greedy[1]
        if not dp_runs:
            assert (plan.order, plan.cost) == greedy
        assert len(plan.order) == n - 1
        assert {i for pair in plan.order for i in pair} | {0} == set(range(n))
        tensors = [SparseTensor(s, d) for s, d in zip(shapes, datas)]
        value = run(tensors, edges, plan).item()
        assert value == oracles.network_value_bruteforce(shapes, datas, edges), (shapes, edges)
        if n <= 5:
            # these networks are too cheap for the DP to pay (see the
            # test below for its exact plans), so no better than the least
            assert plan.cost >= oracles.min_merge_cost_bruteforce(shapes, edges)
        pairs = [tuple(sorted((i, j))) for (i, _), (j, _) in edges]
        seen["self"] += any(i == j for i, j in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["greedy"] += n > DP_WIDTH
        seen["nonzero"] += value != 0
    # the population exercises what it is meant to
    assert seen["self"] >= 30 and seen["parallel"] >= 30, seen
    assert seen["greedy"] >= 30 and seen["nonzero"] >= 60, seen


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 11])
def test_the_dp_runs_only_where_the_greedy_costs_more_than_its_splits(n, dp_runs):
    # node 0 has one free axis of dimension x and the other n - 1 nodes
    # are scalars, so the greedy merges the scalars first, at cost 1
    # each, and node 0 last: over the last w = min(n, DP_WIDTH) groups
    # it costs w - 2 + x
    w = min(n, DP_WIDTH)
    splits = tensor._DP_SPLITS[w]
    for x, over in ((splits - w + 2, 0), (splits - w + 3, 1)):
        shapes = [(x,)] + [()] * (n - 1)
        greedy = oracles.plan_by_bond_scan(shapes, [], refine=False)
        assert greedy[1] - (n - w) == splits + over
        plan = plan_afresh(shapes, [], dp_runs)
        assert (plan.order, plan.cost) == oracles.plan_by_bond_scan(shapes, [])
        if over:
            # one more than the split count: the last w groups are planned again
            assert dp_runs == [w] and plan.cost <= greedy[1]
            if n <= 5:
                assert plan.cost == oracles.min_merge_cost_bruteforce(shapes, [])
        else:
            # a cost equal to the split count keeps the greedy plan
            assert dp_runs == [] and (plan.order, plan.cost) == greedy


def test_free_axes_follow_the_merge_order():
    # the kept node's free axes come first, then the merged node's
    shapes = [(2, 2), (2, 3), (2, 4)]
    tensors = [SparseTensor(s, {k: 1}) for s, k in zip(shapes, [(0, 1), (1, 2), (0, 3)])]
    out = run(tensors, [((0, 0), (2, 0))], ContractionPlan(((0, 2), (0, 1)), 0))
    assert out.shape == (2, 4, 2, 3)
    assert out.data == {(1, 3, 1, 2): 1}


def test_exact_cancellation_leaves_no_entries():
    # 1/2 * 2/3 - 1/3 * 1 = 0
    a = SparseTensor((2,), {(0,): Fraction(1, 2), (1,): Fraction(1, 3)})
    b = SparseTensor((2,), {(0,): Fraction(2, 3), (1,): -1})
    edges = [((0, 0), (1, 0))]
    out = run([a, b], edges, plan_contraction([(2,), (2,)], edges))
    assert out.data == {} and out.item() == 0


def test_free_axis_result_over_mixed_denominators_matches_brute_force():
    rng = random.Random(31)
    shapes = [(2, 3), (3, 3, 2), (3,)]
    datas = [{k: Fraction(rng.randint(-4, 4), den)
              for k in itertools.product(*map(range, s))}
             for s, den in zip(shapes, (2, 3, 6))]
    edges = [((0, 1), (1, 0)), ((1, 1), (2, 0))]
    tensors = [SparseTensor(s, d) for s, d in zip(shapes, datas)]
    out = run(tensors, edges, plan_contraction(shapes, edges))
    assert out.shape == (2, 2)  # node 0's free axis, then node 1's
    assert out.data and all(type(v) is Fraction and v for v in out.data.values())
    for a, b in itertools.product(range(2), repeat=2):
        # pin the free axes with one-hot nodes and sum the closed network
        closed = edges + [((0, 0), (3, 0)), ((1, 2), (4, 0))]
        value = oracles.network_value_bruteforce(
            shapes + [(2,), (2,)], datas + [{(a,): 1}, {(b,): 1}], closed)
        assert out.data.get((a, b), 0) == value


def tie_heavy_shape(rng, n):
    """Node shapes and edges of n nodes with 1-4 axes of one dimension,
    wired by a random matching of most axes (self-edges and parallel
    edges occur), so many merges and splits cost the same."""
    d = rng.choice((2, 2, 3))
    arity = [rng.randint(1, 4) for _ in range(n)]
    slots = [(i, a) for i in range(n) for a in range(arity[i])]
    rng.shuffle(slots)
    keep = len(slots) - rng.choice((0, 0, 2))  # sometimes two free axes
    edges = [(slots[k], slots[k + 1]) for k in range(0, keep - 1, 2)]
    return [(d,) * k for k in arity], edges


def test_plans_match_the_bond_scan_on_tie_heavy_networks(dp_runs):
    # 2-14 nodes, ties included: every plan is the bond scan's, and the
    # greedy plan itself unless the DP ran
    rng = random.Random(2014)
    seen = {"self": 0, "parallel": 0, "dp": 0, "kept": 0}
    for trial in range(195):
        shapes, edges = tie_heavy_shape(rng, 2 + trial % 13)
        plan = plan_afresh(shapes, edges, dp_runs)
        assert (plan.order, plan.cost) == oracles.plan_by_bond_scan(shapes, edges), (shapes, edges)
        greedy = oracles.plan_by_bond_scan(shapes, edges, refine=False)
        if dp_runs:
            assert plan.cost <= greedy[1]
        else:
            assert (plan.order, plan.cost) == greedy
        pairs = [tuple(sorted((i, j))) for (i, _), (j, _) in edges]
        seen["self"] += any(i == j for i, j in pairs)
        seen["parallel"] += len(set(pairs)) < len(pairs)
        seen["dp"] += bool(dp_runs)
        seen["kept"] += not dp_runs
    assert seen["self"] >= 40 and seen["parallel"] >= 60, seen
    assert seen["dp"] >= 10 and seen["kept"] >= 150, seen


def wide_network(rng, n, arities):
    """n nodes with axis counts drawn from ``arities``, wired by a random
    matching of their axes into a closed network with edges of dimension 3
    or 8, and sparse small integer entries."""
    arity = [rng.choice(arities) for _ in range(n)]
    if sum(arity) % 2:
        arity[rng.randrange(n)] += 1
    slots = [(i, a) for i in range(n) for a in range(arity[i])]
    rng.shuffle(slots)
    edges = [(slots[k], slots[k + 1]) for k in range(0, len(slots), 2)]
    shapes = [[0] * k for k in arity]
    for (i, a), (j, b) in edges:
        shapes[i][a] = shapes[j][b] = rng.choice((3, 8))
    datas = [{k: rng.randint(-3, 3) for k in itertools.product(*map(range, shape))
              if rng.random() < 0.2}
             for shape in shapes]
    return [tuple(s) for s in shapes], datas, edges


def test_a_narrow_network_is_planned_exactly_whenever_the_dp_runs(dp_runs):
    # 2-6 nodes of 2-4 axes with edges of dimension 3 or 8: the DP plans
    # all of a network's nodes when the greedy plan costs more than the
    # DP's split count over them, and then finds the least cost there is
    rng = random.Random(2032)
    seen = {"exact": 0, "cheaper": 0, "kept": 0}
    for trial in range(150):
        n = 2 + trial % 5
        shapes, _, edges = wide_network(rng, n, (2, 3, 4))
        edges = edges[:-(trial % 3)] or edges  # and a few free axes
        plan = plan_afresh(shapes, edges, dp_runs)
        assert (plan.order, plan.cost) == oracles.plan_by_bond_scan(shapes, edges), (shapes, edges)
        greedy = oracles.plan_by_bond_scan(shapes, edges, refine=False)
        least = oracles.min_merge_cost_bruteforce(shapes, edges)
        assert least <= plan.cost <= greedy[1]
        if dp_runs:
            assert dp_runs == [n] and plan.cost == least
            assert greedy[1] > tensor._DP_SPLITS[n]
            seen["exact"] += 1
            seen["cheaper"] += plan.cost < greedy[1]
        else:
            assert (plan.order, plan.cost) == greedy
            assert greedy[1] <= tensor._DP_SPLITS[n]
            seen["kept"] += 1
    assert seen["exact"] >= 80 and seen["cheaper"] >= 10 and seen["kept"] >= 30, seen


def test_an_expensive_greedy_tail_is_planned_again_exactly(dp_runs):
    # 9-14 nodes of 2-4 axes, and every fifth network of 0-2 axes; the
    # DP runs on a network this wide only to plan its tail again
    # a split of a set s into two nonempty parts, counted once, by the
    # part that holds s's lowest group: brute force over every submask
    assert tensor._DP_SPLITS == tuple(
        sum(1 for s in range(1 << w) for part in range(1, s)
            if part | s == s and part & s & -s)
        for w in range(DP_WIDTH + 1))
    rng = random.Random(2028)
    seen = {"refined": 0, "cheaper": 0, "nonzero": 0, "brute": 0}
    for trial in range(200):
        shapes, datas, edges = wide_network(rng, 9 + trial % 6,
                                            (0, 1, 2) if trial % 5 == 0 else (2, 3, 4))
        plan = plan_afresh(shapes, edges, dp_runs)
        greedy = oracles.plan_by_bond_scan(shapes, edges, refine=False)
        assert (plan.order, plan.cost) == oracles.plan_by_bond_scan(shapes, edges), (shapes, edges)
        assert plan.cost <= greedy[1]
        tensors = [SparseTensor(s, d) for s, d in zip(shapes, datas)]
        value = run(tensors, edges, plan).item()
        if dp_runs:
            # the same value as the greedy plan's: a refined network has
            # far too many index assignments for the brute force
            seen["refined"] += 1
            seen["cheaper"] += plan.cost < greedy[1]
            seen["nonzero"] += value != 0
            assert value == run(tensors, edges, ContractionPlan(*greedy)).item()
        else:
            # a cheap tail keeps the greedy plan
            assert (plan.order, plan.cost) == greedy
        if math.prod(shapes[i][a] for (i, a), _ in edges) <= 20000:
            # the small members
            seen["brute"] += 1
            assert value == oracles.network_value_bruteforce(shapes, datas, edges)
    # the population exercises what it is meant to
    assert seen["refined"] >= 30 and seen["cheaper"] >= 30, seen
    assert seen["nonzero"] >= 20 and seen["brute"] >= 15, seen


# the entry points that take edges, called alike; contract_network is
# fed the keys network_keys compiles, as it always is
EDGE_CHECKED = {
    "plan_contraction": lambda tensors, edges, plan: plan_contraction(
        [t.shape for t in tensors], edges),
    "contract_network": run,
    "network_keys": lambda tensors, edges, plan: network_keys(
        range(len(tensors)), [t.shape for t in tensors], edges, plan),
}


@pytest.mark.parametrize("edges", [
    [((0, 0), (1, 1)), ((2, 0), (1, -1))],  # axis -1 of b is its axis 1
    [((0, 0), (7, 0))],                     # no node 7
    [((0, 0), (1, 5))],                     # b has no axis 5
    [((0, 0), (-3, 0))],                    # node -3 would be a
    [((0, 0.0), (1, 0))],                   # not an int axis
    [(("0", 0), (1, 0))],                   # not an int node
    [((0, 0), (True, False))],              # bools, not ints
])
@pytest.mark.parametrize("call", sorted(EDGE_CHECKED))
def test_an_edge_end_that_is_not_an_axis_is_refused(call, edges):
    a = SparseTensor((2,), {(0,): 1, (1,): 2})
    b = SparseTensor((2, 2), {(0, 0): 1, (0, 1): 10, (1, 1): 1})
    with pytest.raises(ValueError, match="not an axis of the network"):
        EDGE_CHECKED[call]([a, b, a], edges, ContractionPlan(((0, 1), (0, 2)), 0))


def test_an_axis_in_two_edges_is_refused():
    # a's one axis would be summed against both axes of b
    a = SparseTensor((2,), {(0,): 1, (1,): 2})
    b = SparseTensor((2, 2), {(0, 0): 1, (0, 1): 10, (1, 1): 1})
    for edges in ([((0, 0), (1, 0)), ((0, 0), (1, 1))],
                  [((1, 0), (1, 0))]):  # an axis tied to itself
        with pytest.raises(ValueError, match="more than one edge"):
            plan_contraction([(2,), (2, 2)], edges)
        with pytest.raises(ValueError, match="more than one edge"):
            run([a, b], edges, ContractionPlan(((0, 1),), 1))


@pytest.mark.parametrize("call", sorted(EDGE_CHECKED))
def test_an_edge_between_axes_of_different_dimensions_is_refused(call):
    # a's axis has dimension 2 and c's has 3
    a = SparseTensor((2,), {(0,): 1, (1,): 2})
    c = SparseTensor((3,), {(0,): 1, (2,): 5})
    with pytest.raises(ValueError, match="an edge joins axes of different dimensions"):
        EDGE_CHECKED[call]([a, c], [((0, 0), (1, 0))], ContractionPlan(((0, 1),), 1))


@pytest.mark.parametrize("order, error", [
    (((0, 2),), "not two live nodes"),          # no node 2
    (((0, 0),), "not two live nodes"),          # a node with itself
    (((0, 1), (1, 0)), "not two live nodes"),   # node 1 is merged away
    ((), "leaves 2 tensors"),
])
def test_a_plan_that_does_not_merge_the_network_is_refused(order, error):
    a = SparseTensor((2,), {(0,): 1, (1,): 2})
    edges = [((0, 0), (1, 0))]
    with pytest.raises(ValueError, match=error):
        run([a, a], edges, ContractionPlan(order, 0))


def test_shared_merges_match_the_lone_executor_and_keep_nothing_after(monkeypatch):
    # copies of random networks, some with one node's tensor swapped for a
    # new one, in a shuffled order, so they share sub-networks
    rng = random.Random(2027)
    networks = []
    for trial in range(24):
        shapes, datas, edges = random_network(rng, 2 + trial % 7)
        plan = plan_contraction(shapes, edges)
        tensors = [SparseTensor(s, d) for s, d in zip(shapes, datas)]
        names = [(trial, i) for i in range(len(tensors))]
        networks += [(tensors, names, edges, plan)] * 2
        k = rng.randrange(len(tensors))
        swapped = SparseTensor(shapes[k], {key: -2 * v for key, v in datas[k].items()})
        networks.append((tensors[:k] + [swapped] + tensors[k + 1:],
                         names[:k] + [("swapped", trial)] + names[k + 1:], edges, plan))
    # one chain u-m-w of the same named tensors, wired through either
    # axis of m and merged from either end: its keys differ only in the
    # positions of the summed axes
    u, m, w = (SparseTensor((2,), {(0,): 1, (1,): 2}),
               SparseTensor((2, 2), {(0, 0): 1, (0, 1): 10, (1, 0): 100, (1, 1): 1000}),
               SparseTensor((2,), {(0,): 3, (1,): 5}))
    for axis in (0, 1):
        edges = [((0, 0), (1, axis)), ((1, 1 - axis), (2, 0))]
        for order in (((0, 1), (0, 2)), ((1, 0), (1, 2))):
            networks.append(([u, m, w], ["u", "m", "w"], edges, ContractionPlan(order, 0)))
    # m traced by a self-edge, or left open: its first merge differs only
    # in the leaf's self-edge pattern
    for edges in ([((0, 0), (0, 1)), ((1, 0), (2, 0))], [((1, 0), (2, 0))]):
        networks.append(([m, u, w], ["m", "u", "w"], edges, ContractionPlan(((0, 1), (0, 2)), 0)))
    rng.shuffle(networks)
    alone = [run(t, edges, plan) for t, _, edges, plan in networks]
    merges = []

    def counted(*args, real=tensor._merge):
        merges.append(args[:2])
        return real(*args)

    monkeypatch.setattr(tensor, "_merge", counted)
    keys = [network_keys(names, [t.shape for t in tensors], edges, plan)
            for tensors, names, edges, plan in networks]

    def spelled(leaves, steps):
        # each merge spelled out as the nested tuple of its operands' keys
        # and positions, down to the leaves' keys
        out = list(leaves)
        for a, b, apos, bpos in steps:
            out.append((out[a], out[b], apos, bpos))
        return out[len(leaves):]

    distinct = {m for k in keys for m in spelled(*k)}
    planned = sum(len(plan.order) for *_, plan in networks)
    assert 0 < len(distinct) < planned
    # whatever order the networks run in, each distinct merge is merged
    # once, at its first visit
    for order in (range(len(networks)), reversed(range(len(networks)))):
        merges.clear()
        shared = SharedMerges(keys)
        for n in order:
            assert contract_network(networks[n][0], keys[n], (shared, n)) == alone[n]
        assert len(merges) == len(distinct)
        # every kept result was dropped after its last visit
        assert shared.kept == {} and not any(shared.visits.values())


def test_shared_merges_refuse_tensors_that_are_not_the_keyed_leaves():
    # and so does the lone executor, through the same check
    u = SparseTensor((2,), {(0,): 1, (1,): 2})
    m = SparseTensor((2, 2), {(0, 0): 1, (1, 1): 3})
    edges = [((0, 0), (1, 0))]
    keys = network_keys("um", [(2,), (2, 2)], edges, ContractionPlan(((0, 1),), 0))
    empty = network_keys("", [], [], ContractionPlan((), 0))
    shared = SharedMerges([keys, empty])
    for tensors in ([u], [u, m, u],                     # too few, too many
                    [u, SparseTensor((2, 3), {})],      # a leaf of another shape
                    [m, u]):                            # the leaves swapped
        for executor in (None, (shared, 0)):
            with pytest.raises(ValueError, match="not the leaves the network was keyed with"):
                contract_network(tensors, keys, executor)
    for executor in (None, (shared, 1)):
        with pytest.raises(ValueError, match="not the leaves the network was keyed with"):
            contract_network([u], empty, executor)
    # nothing was merged or kept, and the keyed tensors still contract; a
    # network of no nodes is the scalar 1 on either executor
    assert shared.kept == {}
    assert contract_network([u, m], keys, (shared, 0)) == contract_network([u, m], keys)
    assert contract_network([], empty, (shared, 1)) == contract_network(
        [], empty) == SparseTensor((), {(): 1})


def test_a_pair_contraction_matches_brute_force():
    # tensor._contract_pair, against the closed network of its two tensors
    # with a one-hot node pinning each free axis
    rng = random.Random(4417)
    seen = {"outer": 0, "scalar": 0, "empty": 0, "denominators": 0}
    for trial in range(60):
        rank_a, rank_b = rng.randint(0, 3), rng.randint(0, 3)
        apos = tuple(rng.sample(range(rank_a), rng.randint(0, min(rank_a, rank_b))))
        bpos = tuple(rng.sample(range(rank_b), len(apos)))
        if trial % 4 == 1:  # no axis shared: an outer product
            apos = bpos = ()
        elif trial % 4 == 2:  # every axis shared: a scalar
            rank_b = rank_a
            apos = tuple(range(rank_a))
            bpos = tuple(rng.sample(range(rank_a), rank_a))
        ashape = [rng.randint(1, 3) for _ in range(rank_a)]
        bshape = [rng.randint(1, 3) for _ in range(rank_b)]
        for p, q in zip(apos, bpos):
            bshape[q] = ashape[p]
        shapes = [tuple(ashape), tuple(bshape)]
        datas = [{k: Fraction(rng.randint(-4, 4), rng.randint(1, 6))
                  for k in itertools.product(*map(range, s)) if rng.random() < 0.7}
                 for s in shapes]
        if trial % 10 == 3:  # a tensor with no entries
            datas[0] = {}
        a, b = (SparseTensor(s, d) for s, d in zip(shapes, datas))
        out = tensor._contract_pair(a, b, apos, bpos)
        ends = ([(0, p) for p in range(rank_a) if p not in apos]
                + [(1, q) for q in range(rank_b) if q not in bpos])
        assert out.shape == tuple(shapes[i][p] for i, p in ends)
        assert all(type(v) is Fraction and v for v in out.data.values())
        closed = [((0, p), (1, q)) for p, q in zip(apos, bpos)]
        closed += [(end, (2 + n, 0)) for n, end in enumerate(ends)]
        for index in itertools.product(*(range(d) for d in out.shape)):
            pins = [{(x,): 1} for x in index]
            value = oracles.network_value_bruteforce(
                shapes + [(d,) for d in out.shape], datas + pins, closed)
            assert out.data.get(index, 0) == value, (trial, index)
        seen["outer"] += not apos and rank_a > 0 and rank_b > 0
        seen["scalar"] += out.shape == () and rank_a > 0
        seen["empty"] += not a.data or not b.data
        seen["denominators"] += len({v.denominator for d in datas for v in d.values()}) > 2
    assert all(count >= 5 for count in seen.values()), seen
