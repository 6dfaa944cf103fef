"""Weight-system evaluation against metric Lie algebras.

The planned tensor-network contraction, the package's one evaluator, is
checked against the independent brute-force oracle (a term-by-term
expansion over hard-coded sl2 constants) and against hand-computed scalar
values.
"""

import copy
import io
import itertools
import pickle
import random
from fractions import Fraction

import pytest

import oracles
from weightsys.algebra import DiagramVector, ihx_generators, stu_generators
from weightsys.diagrams import (bare_circle, canonicalize, enumerate_diagrams,
                                validate)
from weightsys.errors import (GradingMismatchError, LieAlgebraError,
                              ResourceLimitError, SpaceMismatchError)
from weightsys import algebra, cli, diagrams, lie, maps, tensor, verify
from weightsys.lie import (MetricLieAlgebra, Representation, abelian,
                           builtin_algebra, check_lie, check_representation,
                           contraction_plan, derive_tensors, evaluate,
                           evaluate_closed, lie_algebra_from_json,
                           lie_algebra_to_json, resolve_representation, sl2)
from weightsys.verify import verify_relations

SL2 = sl2()
FUND = SL2.representations["fundamental"]


def a_chord():
    return validate("A", skeleton=(0, 1), pairing=((0, 1),))


def a_theta():
    return validate("A", internal=((2, 3, 4), (5, 6, 7)), skeleton=(0, 1),
                    pairing=((0, 2), (1, 5), (3, 6), (4, 7)))


def cube():
    """The cube graph: eight trivalent vertices, twelve edges, closed."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    used = [0] * 8
    pairing = []
    for a, b in edges:
        pairing.append((3 * a + used[a], 3 * b + used[b]))
        used[a] += 1
        used[b] += 1
    triples = tuple((3 * v, 3 * v + 1, 3 * v + 2) for v in range(8))
    return validate("B", internal=triples, pairing=tuple(pairing))


# ---------------------------------------------------------------------------
# algebra validation


def test_builtin_algebras_pass_all_invariants():
    for g in (SL2, abelian(1), abelian(4)):
        ok, detail = check_lie(g)
        assert ok, detail
    ok, detail = check_representation(SL2, FUND)
    assert ok, detail


def test_check_lie_reports_antisymmetry_violation():
    g = sl2()
    c = [[list(r) for r in ck] for ck in g.structure_constants]
    c[0][1][1] = Fraction(1)  # c^0_{11} must vanish by antisymmetry
    bad = MetricLieAlgebra(3, tuple(tuple(tuple(r) for r in ck) for ck in c),
                           g.metric)
    ok, detail = check_lie(bad)
    assert not ok and "antisymmetry" in detail


def jacobi_violating_sl2():
    g = sl2()
    c = [[list(r) for r in ck] for ck in g.structure_constants]
    c[0][0][1] = Fraction(5)  # perturb [h,e] while keeping antisymmetry
    c[0][1][0] = Fraction(-5)
    return MetricLieAlgebra(3, tuple(tuple(tuple(r) for r in ck) for ck in c),
                            g.metric)


def test_check_lie_reports_jacobi_violation():
    ok, detail = check_lie(jacobi_violating_sl2())
    assert not ok and ("Jacobi" in detail or "invariance" in detail)


def sl2_plus_sl2():
    """sl2 + sl2: block-diagonal structure constants and metric, dim 6."""
    n = 6
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    b = [[Fraction(0)] * n for _ in range(n)]
    for off in (0, 3):
        for k, i, j in itertools.product(range(3), repeat=3):
            c[k + off][i + off][j + off] = SL2.structure_constants[k][i][j]
        for i, j in itertools.product(range(3), repeat=2):
            b[i + off][j + off] = SL2.metric[i][j]
    return MetricLieAlgebra(n, tuple(tuple(tuple(r) for r in ck) for ck in c),
                            tuple(tuple(r) for r in b))


def test_check_lie_names_the_failure_a_dense_scan_finds_first():
    rng = random.Random(8101)
    seen = {"Jacobi": set(), "metric": 0, "pass": 0}
    for g, trials in ((SL2, 36), (sl2_plus_sl2(), 18)):
        n = g.dim
        for trial in range(trials):
            c = [[list(r) for r in ck] for ck in g.structure_constants]
            b = [list(r) for r in g.metric]
            if trial % 3 != 1:  # constants: one or two antisymmetric pairs,
                block = range(3 * rng.randrange(n // 3), n)  # some in the last sl2
                for _ in range(rng.randint(1, 2)):
                    k = rng.choice(block)
                    i, j = rng.sample(block, 2)
                    v = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    c[k][i][j], c[k][j][i] = v, -v
            if trial % 3 != 0:  # metric: a symmetric pair, or unchanged
                i, j = rng.randrange(n), rng.randrange(n)
                b[i][j] = b[j][i] = b[i][j] + rng.choice((-1, 0, 1))
            bad = MetricLieAlgebra(n, tuple(tuple(tuple(r) for r in ck) for ck in c),
                                   tuple(tuple(r) for r in b))
            got = check_lie(bad)
            if got[1] == "metric is singular":
                continue
            want = oracles.lie_identity_first_failure(c, b)
            assert got == (want is None, want), (g.dim, trial)
            if want is None:
                seen["pass"] += 1
            elif want.startswith("Jacobi"):
                seen["Jacobi"].add(want)
            else:
                seen["metric"] += 1
    # failures at many first indices, invariance failures and passes all occur
    assert len(seen["Jacobi"]) >= 8, seen
    assert len({m[len("Jacobi fails at (i,j,k,l)=(")] for m in seen["Jacobi"]}) >= 3, seen
    assert seen["metric"] >= 5 and seen["pass"] >= 3, seen


def test_check_lie_names_the_least_antisymmetry_failure():
    # one or two constants changed alone, their antisymmetric partners kept
    rng = random.Random(2207)
    for trial in range(40):
        g = SL2 if trial % 2 else sl2_plus_sl2()
        n = g.dim
        c = [[list(r) for r in ck] for ck in g.structure_constants]
        for _ in range(rng.randint(1, 2)):
            k, i, j = (rng.randrange(n) for _ in range(3))
            c[k][i][j] += rng.choice((-1, 1)) * Fraction(rng.randint(1, 3), rng.randint(1, 2))
        k, i, j = next(t for t in itertools.product(range(n), repeat=3)
                       if c[t[0]][t[1]][t[2]] != -c[t[0]][t[2]][t[1]])
        bad = MetricLieAlgebra(n, tuple(tuple(tuple(r) for r in ck) for ck in c), g.metric)
        assert check_lie(bad) == (False, f"antisymmetry fails at c^{k}_{{{i}{j}}}"), trial


@pytest.mark.parametrize("call", [
    lambda g: evaluate_closed(oracles.theta_closed(), g),
    derive_tensors,
    # the (g, rep) entry checks g before the representation
    lambda g: evaluate(a_theta(), g, FUND),
], ids=["evaluate_closed", "derive_tensors", "evaluate"])
def test_invalid_algebra_raises_on_every_call(call):
    bad = jacobi_violating_sl2()
    _, detail = check_lie(bad)
    for _ in range(2):  # a failure is never memoized as a pass
        with pytest.raises(LieAlgebraError) as exc:
            call(bad)
        assert str(exc.value) == detail


def count_checks(monkeypatch):
    """Count the calls of lie.check_lie and lie.check_representation."""
    lie._node_tensors.cache_clear()
    calls = {"check_lie": 0, "check_representation": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(lie, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(lie, name, counted)
    return calls


def test_each_algebra_and_pair_is_checked_once(monkeypatch):
    calls = count_checks(monkeypatch)
    evaluate(a_chord(), SL2, FUND)
    evaluate(a_theta(), SL2, FUND)
    evaluate_closed(oracles.theta_closed(), SL2)
    derive_tensors(SL2)
    assert calls == {"check_lie": 1, "check_representation": 1}


def test_loaded_algebra_is_not_checked_again(monkeypatch):
    calls = count_checks(monkeypatch)
    g = lie_algebra_from_json(lie_algebra_to_json(SL2))
    evaluate(a_theta(), g, g.representations["fundamental"])
    assert calls == {"check_lie": 1, "check_representation": 1}


def test_structure_tensors_are_derived_once_per_algebra():
    # f is lowered once for the checks, the node tensors and derive_tensors
    lie._node_tensors.cache_clear()
    lie._lowered.cache_clear()
    for _ in range(2):
        evaluate(a_theta(), SL2, FUND)
        evaluate_closed(oracles.theta_closed(), SL2)
        derive_tensors(SL2)
    assert verify_relations(max_total=4)["pass"]
    info = lie._lowered.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_an_algebra_load_builds_each_tensor_once(monkeypatch):
    # the benchmark's sl3 file (bench/inputs.py) holds this very JSON
    for memo in (lie._node_tensors, lie._structure, lie._lowered,
                 lie._inverse_metric, lie._action):
        memo.cache_clear()
    calls = {"_invert": 0, "_sparse": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(lie, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(lie, name, counted)
    g = lie_algebra_from_json(lie_algebra_to_json(SL3))
    # c, the metric (for f), the inverse metric (for raised axes) and the
    # one representation's matrices, all built by the checked load
    assert calls == {"_invert": 1, "_sparse": 4}
    derive_tensors(g)
    assert evaluate(a_theta(), g, g.representations["fundamental"]) != 0
    assert calls == {"_invert": 1, "_sparse": 4}


def test_equal_algebras_built_apart_share_one_memo_entry():
    # equality and hash read the structure constants and the metric only,
    # so a copy that differs in name or representations is the same key
    lie._node_tensors.cache_clear()
    rebuilt = [sl2(), lie_algebra_from_json(lie_algebra_to_json(SL2)),
               MetricLieAlgebra(SL2.dim, SL2.structure_constants, SL2.metric, name="other"),
               MetricLieAlgebra(SL2.dim, *(fresh_copy(x) for x in (
                   SL2.structure_constants, SL2.metric)), representations={})]
    for g in rebuilt:
        assert g is not SL2 and g == SL2 and hash(g) == hash(SL2)
        assert evaluate_closed(oracles.theta_closed(), g) == -12
    fund = Representation(FUND.dim_V, fresh_copy(FUND.action))
    assert fund is not FUND and fund == FUND and hash(fund) == hash(FUND)
    for g, rep in zip(rebuilt, (FUND, fund, fund, FUND)):
        assert evaluate(a_theta(), g, rep) == -12
    assert lie._node_tensors.cache_info().currsize == 2
    assert scaled_metric(SL2, 3) != SL2 and Representation(2, FUND.action[::-1]) != FUND
    assert SL2 != (SL2.dim, SL2.structure_constants, SL2.metric) and SL2 != FUND
    with pytest.raises(AttributeError):
        SL2.metric = scaled_metric(SL2, 3).metric
    for x in (SL2, FUND):
        for twin in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert twin == x and repr(twin) == repr(x)


def fresh_copy(rows):
    """Nested tuples of Fractions rebuilt from their text, sharing no object."""
    if isinstance(rows, Fraction):
        return Fraction(str(rows))
    return tuple(fresh_copy(r) for r in rows)


def test_json_loader_names_the_failing_representation():
    blob = lie_algebra_to_json(SL2)
    blob["representations"]["fundamental"]["action"][2] = \
        blob["representations"]["fundamental"]["action"][1]
    for _ in range(2):
        with pytest.raises(LieAlgebraError) as exc:
            lie_algebra_from_json(blob)
        assert str(exc.value) == "fundamental: representation fails on bracket (0,2)"


def test_check_lie_reports_metric_problems():
    g = sl2()
    asym = tuple(tuple(Fraction(1) if (i, j) == (0, 1) else g.metric[i][j]
                       for j in range(3)) for i in range(3))
    ok, detail = check_lie(MetricLieAlgebra(3, g.structure_constants, asym))
    assert not ok and "symmetric" in detail

    singular = tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3))
    ok, detail = check_lie(MetricLieAlgebra(3, g.structure_constants, singular))
    assert not ok and "singular" in detail

    identity = tuple(tuple(Fraction(int(i == j)) for j in range(3))
                     for i in range(3))
    ok, detail = check_lie(MetricLieAlgebra(3, g.structure_constants, identity))
    assert not ok and "invariance" in detail


def test_check_representation_rejects_wrong_commutator():
    bad = Representation(2, (FUND.action[0], FUND.action[1], FUND.action[1]))
    ok, detail = check_representation(SL2, bad)
    assert not ok and "bracket" in detail


def test_derived_tensors_are_totally_antisymmetric_and_inverse_metric_exact():
    t = derive_tensors(SL2)
    assert t.f[(0, 1, 2)] == 2
    for (i, j, k), v in t.f.items():
        assert t.f.get((j, i, k), Fraction(0)) == -v
        assert t.f.get((j, k, i), Fraction(0)) == v
    n = SL2.dim
    for i in range(n):
        for j in range(n):
            s = sum(SL2.metric[i][m] * t.c_up[m][j] for m in range(n))
            assert s == (1 if i == j else 0)


def sl3_from_matrix_units():
    """sl3 with basis E_ij (i != j), E_11 - E_22, E_22 - E_33: structure
    constants from commutators, the trace form as metric, and the
    matrices themselves as the fundamental representation."""
    def unit(i, j):
        return [[Fraction(int((r, s) == (i, j))) for s in range(3)] for r in range(3)]

    basis = [unit(i, j) for i in range(3) for j in range(3) if i != j]
    basis += [[[x - y for x, y in zip(ra, rb)] for ra, rb in zip(unit(k, k), unit(k + 1, k + 1))]
              for k in (0, 1)]
    n = len(basis)
    c = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        ab, ba = oracles.mat_mul(basis[i], basis[j]), oracles.mat_mul(basis[j], basis[i])
        comm = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(ab, ba)]
        # coordinates of a traceless matrix: off-diagonal entries, then the
        # diagonal (a, b - a, -b) as a (E_11 - E_22) + b (E_22 - E_33)
        coords = [comm[r][s] for r in range(3) for s in range(3) if r != s]
        for k, x in enumerate(coords + [comm[0][0], -comm[2][2]]):
            c[k][i][j] = x
    metric = [[sum(oracles.mat_mul(x, y)[r][r] for r in range(3)) for y in basis]
              for x in basis]
    fund = Representation(3, tuple(tuple(map(tuple, m)) for m in basis))
    return MetricLieAlgebra(n, tuple(tuple(map(tuple, ck)) for ck in c),
                            tuple(map(tuple, metric)),
                            representations={"fundamental": fund}, name="sl3")


def scaled_metric(g, s):
    return MetricLieAlgebra(g.dim, g.structure_constants,
                            tuple(tuple(s * x for x in r) for r in g.metric),
                            representations=g.representations)


SL3 = sl3_from_matrix_units()
ORACLE_ALGEBRAS = [SL2, abelian(1), abelian(3), scaled_metric(SL2, 3), SL3]


@pytest.mark.parametrize("g", ORACLE_ALGEBRAS, ids=lambda g: g.name or f"dim{g.dim}")
def test_sparse_algebra_checks_match_the_dense_oracles(g):
    assert check_lie(g) == (True, None)
    t = derive_tensors(g)
    want = oracles.structure_tensor_dense(g.structure_constants, g.metric)
    assert list(t.f.items()) == list(want.items())
    assert oracles.mat_mul(g.metric, t.c_up) == [[int(i == j) for j in range(g.dim)]
                                                for i in range(g.dim)]
    for rep in g.representations.values():
        assert check_representation(g, rep) == (True, None)
        assert oracles.representation_first_failure(g.structure_constants,
                                                    rep.action) == (True, None)


def test_broken_representations_fail_where_the_dense_oracle_does():
    rng = random.Random(1409)
    failures = set()
    for g in (SL2, sl3_from_matrix_units()):
        action = list(g.representations["fundamental"].action)
        for _ in range(12):
            broken = list(action)
            if rng.random() < 0.5:
                i, j = rng.sample(range(g.dim), 2)
                broken[i], broken[j] = broken[j], broken[i]
            else:
                i = rng.randrange(g.dim)
                s = Fraction(rng.choice((-2, 0, 3)), rng.choice((1, 2)))
                broken[i] = tuple(tuple(s * x for x in r) for r in broken[i])
            got = check_representation(g, Representation(len(action[0]), tuple(broken)))
            assert got == oracles.representation_first_failure(g.structure_constants, broken)
            failures.add(got)
    assert len(failures) >= 4  # the first failing bracket varies


def test_builtin_lookup():
    assert builtin_algebra("sl2").name == "sl2"
    assert builtin_algebra("abelian5").dim == 5
    with pytest.raises(LieAlgebraError):
        builtin_algebra("so3000x")


def test_an_abelian_name_past_the_work_budget_is_refused_before_building(monkeypatch):
    # abelian<k> has k^3 structure constants: 126^3 is the first cube past
    # DEFAULT_MAX_STEPS (2,000,000); nothing may be built for it
    def refused(dim):
        raise AssertionError(f"built abelian({dim})")

    monkeypatch.setattr(lie, "abelian", refused)
    for name in ("abelian126", "abelian1000000"):
        with pytest.raises(ResourceLimitError, match=f"^{name} has more than 2000000 "):
            builtin_algebra(name)
    # the CLI exits 4, also for a k with more digits than the interpreter converts
    for name in ("abelian126", "abelian1000000", "abelian" + "9" * 5000):
        out, status = cli._respond(["eval", "--algebra", name],
                                   io.StringIO('{"space": "B"}'))
        assert (status, out["error"]["code"]) == (4, "resource-cutoff")
    with pytest.raises(LieAlgebraError, match="unknown built-in algebra"):
        builtin_algebra("abelian0")


def test_default_representation_is_fundamental_else_first_by_name():
    triv = abelian(3).representations["trivial"]

    def with_reps(reps):
        return MetricLieAlgebra(SL2.dim, SL2.structure_constants, SL2.metric, reps)

    assert resolve_representation(with_reps({"a": triv, "fundamental": FUND})) is FUND
    assert resolve_representation(with_reps({"b": FUND, "a": triv})) is triv
    assert resolve_representation(with_reps({"b": FUND, "a": triv}), "b") is FUND
    assert resolve_representation(with_reps({})) is None
    with pytest.raises(LieAlgebraError):
        resolve_representation(SL2, "missing")


# ---------------------------------------------------------------------------
# scalar values pinned by hand and by the independent oracle


def test_scalar_values_for_small_diagrams():
    assert evaluate(bare_circle(), SL2, FUND) == 2
    assert evaluate(a_chord(), SL2, FUND) == 3
    assert evaluate(a_theta(), SL2, FUND) == -12
    assert evaluate_closed(oracles.theta_closed(), SL2) == -12


def test_free_loops_multiply_by_algebra_dimension():
    assert evaluate(bare_circle().with_loops(2), SL2, FUND) == 2 * 9
    assert evaluate(a_chord().with_loops(1), SL2, FUND) == 9
    assert evaluate_closed(oracles.theta_closed().with_loops(1), SL2) == -36


def test_planned_contraction_matches_naive_and_oracle_through_total_4():
    for total in (0, 2, 4):
        for d in enumerate_diagrams("A", total=total):
            assert evaluate(d, SL2, FUND) == oracles.sl2_weight_bruteforce(d)


def test_closed_diagrams_match_oracle():
    for v in (0, 2, 4):
        for d in enumerate_diagrams("B", v=v, l=0):
            assert evaluate_closed(d, SL2) == oracles.sl2_weight_bruteforce(d)


def test_evaluation_is_sign_compatible_with_canonicalization():
    # The same graph entered with one triple's orientation transposed is the
    # negative of the original, both through canonicalize and through the
    # weight.
    flipped = validate("B", internal=((1, 0, 2), (3, 4, 5)),
                       pairing=((0, 3), (1, 4), (2, 5)))
    cf = canonicalize(flipped)
    assert cf.sign == -1
    assert evaluate_closed(flipped, SL2) == 12
    assert evaluate_closed(cf.diagram, SL2) == -12

    flipped_a = validate("A", internal=((2, 4, 3), (5, 6, 7)), skeleton=(0, 1),
                         pairing=((0, 2), (1, 5), (3, 6), (4, 7)))
    assert evaluate(flipped_a, SL2, FUND) == 12


def test_lone_diagram_is_evaluated_without_canonicalization(monkeypatch):
    calls = []
    for module in (algebra, diagrams):
        def counted(d, real=module.canonicalize):
            calls.append(d)
            return real(d)
        monkeypatch.setattr(module, "canonicalize", counted)
    assert evaluate(a_theta(), SL2, FUND) == -12
    assert evaluate_closed(oracles.theta_closed(), SL2) == -12
    assert calls == []
    DiagramVector.single(a_chord())  # the counter does see a canonical search
    assert len(calls) == 1


def test_relabeled_diagrams_weigh_their_sign_times_the_original():
    rng = random.Random(5)
    for total in (0, 2, 4, 6):
        for d in enumerate_diagrams("A", total=total):
            copy, sign = oracles.relabel_randomly(d, rng)
            assert evaluate(copy, SL2, FUND) == sign * evaluate(d, SL2, FUND)
    for v in (0, 2, 4):
        for d in enumerate_diagrams("B", v=v, l=0):
            copy, sign = oracles.relabel_randomly(d, rng)
            assert evaluate_closed(copy, SL2) == sign * evaluate_closed(d, SL2)


def test_handcuff_weighs_exactly_zero():
    # zero by antisymmetry; evaluated as labeled, through its tadpole traces
    assert evaluate_closed(oracles.handcuff(), sl2()) == 0


def test_evaluation_is_linear():
    v = (Fraction(2) * DiagramVector.single(a_theta())
         - Fraction(1, 3) * DiagramVector.single(a_chord()))
    assert evaluate(v, SL2, FUND) == 2 * (-12) - Fraction(1, 3) * 3
    assert evaluate(DiagramVector.zero(), SL2, FUND) == 0


def test_raised_axes_use_the_inverse_metric():
    # Scaling an invariant metric by 3 scales f by 3 and the inverse metric
    # on each of the E edges by 1/3, so a weight scales by 3^(v - E).
    g3 = MetricLieAlgebra(SL2.dim, SL2.structure_constants,
                          tuple(tuple(3 * x for x in r) for r in SL2.metric),
                          SL2.representations)
    for total in (0, 2, 4):
        for d in enumerate_diagrams("A", total=total):
            scale = Fraction(3) ** (d.v - len(d.pairing))
            assert evaluate(d, g3, FUND) == scale * evaluate(d, SL2, FUND)
    for v in (0, 2, 4):
        for d in enumerate_diagrams("B", v=v, l=0):
            scale = Fraction(3) ** (d.v - len(d.pairing))
            assert evaluate_closed(d, g3) == scale * evaluate_closed(d, SL2)


def test_relation_generators_vanish_at_small_total():
    for total in (4, 6):
        diagrams = enumerate_diagrams("A", total=total)
        for gen in ihx_generators(diagrams) + stu_generators(diagrams):
            assert evaluate(gen, SL2, FUND) == 0


def test_abelian_weights():
    ga = abelian(4)
    triv = ga.representations["trivial"]
    assert evaluate(bare_circle(), ga, triv) == 1
    assert evaluate(bare_circle().with_loops(3), ga, triv) == 64
    assert evaluate_closed(oracles.theta_closed(), ga) == 0
    assert evaluate(a_chord(), ga, triv) == 0  # trivial rep acts by zero


def test_space_mismatches_are_rejected():
    with pytest.raises(SpaceMismatchError):
        evaluate(oracles.theta_closed(), SL2, FUND)
    with pytest.raises(SpaceMismatchError):
        evaluate_closed(a_chord(), SL2)
    with pytest.raises(SpaceMismatchError):
        evaluate_closed(oracles.wheel(2), SL2)  # open legs


# ---------------------------------------------------------------------------
# contraction planning and the resource guard


def test_plan_cost_beats_naive_on_eight_vertex_closed_diagram():
    d = cube()
    plan = contraction_plan(d, (3,))
    assert plan.cost < 3 ** len(d.pairing) == 3 ** 12
    assert evaluate_closed(d, SL2) == oracles.sl2_weight_bruteforce(d)


def test_plan_reports_elimination_order_covering_all_merges():
    d = a_theta()
    plan = contraction_plan(d, (3, 2))
    # 2 vertices + 2 skeleton points = 4 nodes -> 3 pairwise merges
    assert len(plan.order) == 3
    assert {n for pair in plan.order for n in pair} == set(range(4))
    assert plan.cost > 0


def test_repeated_labeled_diagram_is_planned_once(monkeypatch):
    lie._plan.cache_clear()
    calls = []

    def counted(shapes, edges, real=lie.plan_contraction):
        calls.append(shapes)
        return real(shapes, edges)

    monkeypatch.setattr(lie, "plan_contraction", counted)
    d = a_theta()
    w = evaluate(d, SL2, FUND)
    assert evaluate(d, SL2, FUND) == w
    assert len(calls) == 1
    # the memo keys the network as labeled: a flipped vertex plans anew
    flipped = verify._flip_first_vertex(d)
    tensor._plan_shape.cache_clear()
    assert evaluate(flipped, SL2, FUND) == -w
    assert len(calls) == 2
    # but its bonds join the same nodes, so tensor's memo plans it once
    lie._plan.cache_clear()
    assert evaluate(d, SL2, FUND) == w
    assert tensor._plan_shape.cache_info()[:2] == (1, 1)  # hits, misses
    # the same bonds with a free axis on node 0 are another network
    shapes, edges, _ = lie._network(d, 3, 2)
    tensor.plan_contraction([shapes[0] + (5,)] + shapes[1:], edges)
    assert tensor._plan_shape.cache_info()[:2] == (1, 2)


def test_a_plan_needs_the_dims_of_its_space():
    plan = contraction_plan(a_theta(), (3, 2))
    assert plan == lie._plan(a_theta(), 3, 2)[1]  # the plan evaluation uses
    for d, dims in ((cube(), ()), (cube(), (3, 2, 7)), (cube(), (3, 2)),
                    (a_theta(), (3,)), (a_theta(), (3, 2, 7)), (cube(), (0,))):
        with pytest.raises(ValueError):
            contraction_plan(d, dims)


def test_repeated_term_builds_its_network_once(monkeypatch):
    lie._plan.cache_clear()
    built = []

    def counted(d, *dims, real=lie._network):
        built.append(d)
        return real(d, *dims)

    monkeypatch.setattr(lie, "_network", counted)
    vec = DiagramVector([(a_theta(), 2), (a_chord(), 1)])
    assert evaluate(vec, SL2, FUND) == evaluate(vec, SL2, FUND)
    assert len(built) == 2


def test_cost_bound_holds_on_a_memoized_plan():
    lie._plan.cache_clear()
    d = cube()
    cost = contraction_plan(d, (3,)).cost
    assert lie._plan.cache_info()[:2] == (0, 1)  # planned through the same memo
    lie._plan.cache_clear()
    for _ in range(2):  # the miss, then the hit
        with pytest.raises(ResourceLimitError):
            evaluate_closed(d, SL2, max_cost=cost - 1)
    assert lie._plan.cache_info()[:2] == (1, 1)
    assert evaluate_closed(d, SL2, max_cost=cost) == 384


# ---------------------------------------------------------------------------
# merges shared between the terms of one evaluation


def weigh_term_by_term(vec, g):
    """The weight of vec as the sum of its terms' weights, each term
    evaluated alone (so with no shared merges)."""
    if vec.items()[0][0].space == "A":
        rep = g.representations["fundamental"]
        return sum(c * evaluate(d, g, rep) for d, c in vec.items())
    return sum(c * evaluate_closed(d, g) for d, c in vec.items())


def class_vectors():
    """All classes of A totals 4 and 6, B(6, 0) and B(8, 0), one vector
    per piece, each class with its own coefficient."""
    pieces = [enumerate_diagrams("A", total=t) for t in (4, 6)]
    pieces += [enumerate_diagrams("B", v=v, l=0) for v in (6, 8)]
    return [DiagramVector((d, Fraction(k + 2, 2 * k + 1)) for k, d in enumerate(piece))
            for piece in pieces]


def generator_sums():
    """Seeded rational sums of the relation generators of A total 6 and of
    the edge-rewrite generators of B(8, 0); every weight system kills them."""
    rng = random.Random(27)
    circle = enumerate_diagrams("A", total=6)
    sums = []
    for gens in (stu_generators(circle) + ihx_generators(circle),
                 ihx_generators(enumerate_diagrams("B", v=8, l=0))):
        vec = DiagramVector.zero()
        for gen in gens:
            vec = vec + Fraction(rng.randint(1, 9), rng.randint(1, 7)) * gen
        sums.append(vec)
    return sums


@pytest.mark.parametrize("g", [SL2, SL3], ids=["sl2", "sl3"])
def test_a_vector_weighs_the_sum_of_its_terms(g):
    for vec in class_vectors():
        want = weigh_term_by_term(vec, g)
        assert want != 0 and len(vec) > 1
        if vec.items()[0][0].space == "A":
            assert evaluate(vec, g, g.representations["fundamental"]) == want
        else:
            assert evaluate_closed(vec, g) == want
    circle, closed = generator_sums()
    assert len(circle) > 1 and len(closed) > 1
    assert evaluate(circle, g, g.representations["fundamental"]) == 0
    assert evaluate_closed(closed, g) == 0


def test_shared_merges_are_not_carried_from_one_call_to_the_next():
    vec = class_vectors()[1]  # A total 6
    w2, w3 = weigh_term_by_term(vec, SL2), weigh_term_by_term(vec, SL3)
    assert w2 != w3
    rep3 = SL3.representations["fundamental"]
    assert [evaluate(vec, SL2, FUND), evaluate(vec, SL3, rep3),
            evaluate(vec, SL2, FUND)] == [w2, w3, w2]


def test_terms_share_merges(monkeypatch):
    merges = []

    def counted(*args, real=tensor._merge):
        merges.append(args[:2])
        return real(*args)

    monkeypatch.setattr(tensor, "_merge", counted)
    circle = enumerate_diagrams("A", total=6)
    planned = 0
    for gen in stu_generators(circle) + ihx_generators(circle):
        assert evaluate(gen, SL2, FUND) == 0
        planned += sum(len(contraction_plan(d, (3, 2)).order)
                       for d, _ in gen.items() if d.pairing)
    assert 0 < len(merges) < planned


def test_a_lone_term_is_planned_and_compiled_once(monkeypatch):
    lie._plan.cache_clear()
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    def refuse(*args):
        raise AssertionError("merges shared")

    for name in ("plan_contraction", "network_keys"):
        monkeypatch.setattr(lie, name, counted(name, getattr(lie, name)))
    monkeypatch.setattr(lie, "SharedMerges", refuse)
    for _ in range(2):
        assert evaluate(a_theta(), SL2, FUND) == -12
    assert calls == ["plan_contraction", "network_keys"]
    assert evaluate_closed(cube(), SL2) == 384
    assert calls == ["plan_contraction", "network_keys"] * 2
    # one term with a network, already compiled, and one without
    vec = DiagramVector([(a_theta(), 2), (bare_circle(), 1)])
    assert evaluate(vec, SL2, FUND) == 2 * (-12) + 2
    assert len(calls) == 4
    # two terms with networks do share merges
    with pytest.raises(AssertionError, match="merges shared"):
        evaluate(DiagramVector([(a_theta(), 2), (a_chord(), 1)]), SL2, FUND)


def test_every_term_is_checked_before_any_is_contracted(monkeypatch):
    merges = []

    def counted(*args, real=tensor._merge):
        merges.append(args[:2])
        return real(*args)

    lie._node_tensors(SL2, None)  # checking the algebra contracts too
    monkeypatch.setattr(tensor, "_merge", counted)
    theta = oracles.theta_closed()
    vec = DiagramVector([(theta, 1), (cube(), 1)])
    cheap = contraction_plan(theta, (3,)).cost
    assert cheap < contraction_plan(cube(), (3,)).cost
    with pytest.raises(ResourceLimitError):
        evaluate_closed(vec, SL2, max_cost=cheap)
    assert merges == []


def test_circle_evaluation_without_a_representation_is_refused():
    for x in (a_chord(), bare_circle(), DiagramVector.single(a_chord())):
        with pytest.raises(LieAlgebraError, match="needs a representation"):
            evaluate(x, SL2, None)


def test_resource_guard_refuses_oversized_contractions():
    d = cube()
    with pytest.raises(ResourceLimitError):
        evaluate_closed(d, SL2, max_cost=10)
    # The guard fires before any contraction happens, and a generous bound
    # lets the same call through.
    assert evaluate_closed(d, SL2, max_cost=10 ** 9) == 384


def test_verify_relations_is_bounded(monkeypatch):
    def cutoffs(report):
        assert not report["pass"]
        failed = [c for c in report["checks"] if not c["pass"]]
        return failed and all(c["error"].startswith("resource cutoff")
                              for c in failed)

    assert cutoffs(verify_relations(max_total=2, max_cost=0))
    # with no bound given, run_suite applies the default one
    monkeypatch.setattr(lie, "DEFAULT_MAX_COST", 0)
    assert cutoffs(verify.run_suite("relations", max_total=2))


def test_a_suite_ends_at_its_first_resource_cutoff(monkeypatch):
    """Under a small step budget, a suite with a huge bound reports the
    checks the budget passes and then one cutoff, its last check; the
    relations suite builds its diagrams inside its checks, so it reports the
    cutoff instead of raising it.  ``maps`` binds the budget by name."""
    monkeypatch.setattr(diagrams, "DEFAULT_MAX_STEPS", 300)
    monkeypatch.setattr(maps, "DEFAULT_MAX_STEPS", 300)
    monkeypatch.setattr(diagrams, "_enum_memo", {})
    monkeypatch.setattr(algebra, "_basis_memo", {})
    for report in (verify_relations(max_total=40), verify.verify_chi_iso(max_total=40),
                   verify.verify_closure_omega(vmax=40)):
        *passed, last = report["checks"]
        assert passed and all(c["pass"] for c in passed), report
        assert not last["pass"] and last["error"].startswith("resource cutoff"), report
        assert not report["pass"]


def test_run_suite_refuses_a_bound_its_suite_does_not_take():
    with pytest.raises(GradingMismatchError, match="'wheeling' takes no vmax"):
        verify.run_suite("wheeling", vmax=-2)
    with pytest.raises(GradingMismatchError,
                       match="'chi-iso' takes no algebra, max_cost"):
        verify.run_suite("chi-iso", max_cost=1, algebra="sl2")


# ---------------------------------------------------------------------------
# the exact-rational file format


def test_json_round_trip_preserves_algebra_and_representations():
    blob = lie_algebra_to_json(SL2)
    back = lie_algebra_from_json(blob)
    assert back.dim == 3
    assert back.structure_constants == SL2.structure_constants
    assert back.metric == SL2.metric
    assert back.representations["fundamental"].action == FUND.action
    assert evaluate(a_theta(), back, back.representations["fundamental"]) == -12


def test_json_loader_rejects_floats_everywhere():
    good = lie_algebra_to_json(SL2)

    def corrupt(path, value):
        import copy
        blob = copy.deepcopy(good)
        cur = blob
        for key in path[:-1]:
            cur = cur[key]
        cur[path[-1]] = value
        return blob

    with pytest.raises(LieAlgebraError):
        lie_algebra_from_json(corrupt(("metric", 0, 0), 2.0))
    with pytest.raises(LieAlgebraError):
        lie_algebra_from_json(corrupt(("structure_constants", 1, 0, 1), 2.0))
    with pytest.raises(LieAlgebraError):
        lie_algebra_from_json(
            corrupt(("representations", "fundamental", "action", 0, 0, 0), 1.0))


def test_json_loader_accepts_fraction_strings():
    blob = lie_algebra_to_json(SL2)
    blob["metric"][0][0] = "4/2"
    assert lie_algebra_from_json(blob).metric[0][0] == Fraction(2)


def test_json_loader_refuses_an_exponent_past_the_digit_limit():
    blob = lie_algebra_to_json(SL2)
    for literal in ("1e5000", "1e-5000"):
        blob["metric"][0][0] = literal
        with pytest.raises(ResourceLimitError):
            lie_algebra_from_json(blob)
    for literal in ("2e0", "0.2e1", "20e-1", "2.0"):
        blob["metric"][0][0] = literal
        assert lie_algebra_from_json(blob).metric[0][0] == Fraction(2)


def test_json_loader_rejects_malformed_input():
    with pytest.raises(LieAlgebraError):
        lie_algebra_from_json([])
    with pytest.raises(LieAlgebraError):
        lie_algebra_from_json({"dim": 0, "structure_constants": [], "metric": []})
    blob = lie_algebra_to_json(SL2)
    del blob["metric"]
    with pytest.raises(LieAlgebraError):
        lie_algebra_from_json(blob)
    blob = lie_algebra_to_json(SL2)
    blob["metric"][0][1] = "3"  # breaks symmetry -> invariant check fires
    with pytest.raises(LieAlgebraError):
        lie_algebra_from_json(blob)
    blob = lie_algebra_to_json(SL2)
    blob["structure_constants"][0][0][1] = "nope"
    with pytest.raises(LieAlgebraError):
        lie_algebra_from_json(blob)
