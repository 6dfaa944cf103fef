"""Acceptance gate: the eight headline guarantees, one printed line each.

Every check is exact-rational; each test prints a single [PASS]/[FAIL]
line (bypassing capture) so the gate's outcome is visible in any run.
"""

from fractions import Fraction
from math import factorial

import oracles
from weightsys import diagrams
from weightsys.algebra import quotient_basis
from weightsys.diagrams import (_enumerate_split_full, automorphism_count,
                                bare_circle, canonicalize, enumerate_diagrams,
                                validate)
from weightsys.lie import contraction_plan, evaluate, evaluate_closed, sl2
from weightsys.maps import modified_bernoulli
from weightsys.verify import (verify_chi_iso, verify_closure_omega,
                              verify_relations, verify_wheeling)

SL2 = sl2()
FUND = SL2.representations["fundamental"]


def _report(capsys, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" — {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


# 1 -------------------------------------------------------------------------


def test_acceptance_relation_vanishing_through_total_8(capsys):
    report = verify_relations(max_total=8)
    gens = sum(c.get("generators", 0) for c in report["checks"])
    flips = sum(c.get("diagrams", 0) for c in report["checks"])
    _report(capsys, "relation vanishing: sl2 kills every AS/IHX/STU generator "
                    "of total <= 8", report["pass"],
            f"{gens} generators + {flips} orientation flips, all exactly 0")


# 2 -------------------------------------------------------------------------


def test_acceptance_leg_averaging_is_graded_isomorphism_through_total_8(capsys):
    report = verify_chi_iso(max_total=8)
    dims = ",".join(str(row["dim_circle"]) for row in report["rank_table"])
    square = all(row["dim_legs"] == row["dim_circle"] == row["rank"]
                 for row in report["rank_table"])
    _report(capsys, "leg-averaging matrix square and invertible per total <= 8",
            report["pass"] and square, f"dimensions by total: {dims}")


# 3 -------------------------------------------------------------------------


def test_acceptance_closure_of_wheels_series_is_exp_theta_quarter(capsys):
    report = verify_closure_omega(vmax=4)
    n = len(report["checks"])
    _report(capsys, "closure of the wheels series equals exp(theta/24) up to "
                    "the one global sign (-1), truncated at 4 legs",
            report["pass"], f"{n}/{n} truncation checks in both pair weights")


# 4 -------------------------------------------------------------------------


def test_acceptance_capped_averaging_is_multiplicative(capsys):
    report = verify_wheeling()
    names = ", ".join(c["name"].removeprefix("multiplicative-")
                      for c in report["checks"])
    _report(capsys, "cap-by-wheels then average is multiplicative",
            report["pass"], names)


# 5 -------------------------------------------------------------------------


def test_acceptance_wheel_coefficients_match_classical_recursion(capsys):
    ok = (modified_bernoulli(1) == Fraction(1, 48)
          and modified_bernoulli(2) == Fraction(-1, 5760))
    for i in range(1, 5):
        classical = oracles.bernoulli_number(2 * i) / (4 * i * factorial(2 * i))
        ok = ok and modified_bernoulli(i) == classical
    _report(capsys, "wheel coefficients: 1/48 and -1/5760, matching the "
                    "classical Bernoulli recursion for i <= 4", ok)


# 6 -------------------------------------------------------------------------


def test_acceptance_scalar_weights_match_independent_bruteforce(capsys):
    circle = bare_circle()
    chord = validate("A", skeleton=(0, 1), pairing=((0, 1),))
    theta = oracles.theta_closed()
    checks = [
        (evaluate(circle, SL2, FUND), Fraction(2)),        # dim V
        (evaluate(chord, SL2, FUND), Fraction(3)),
        (evaluate_closed(theta, SL2), Fraction(-12)),      # fixed sign
    ]
    ok = all(got == want for got, want in checks)
    for d in (circle, chord):
        ok = ok and evaluate(d, SL2, FUND) == oracles.sl2_weight_bruteforce(d)
    ok = ok and evaluate_closed(theta, SL2) == oracles.sl2_weight_bruteforce(theta)
    _report(capsys, "scalar weights: circle -> dim V = 2, chord -> 3, "
                    "theta -> -12, all equal to the brute-force contraction",
            ok)


# 7 -------------------------------------------------------------------------


def _cube():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    used = [0] * 8
    pairing = []
    for a, b in edges:
        pairing.append((3 * a + used[a], 3 * b + used[b]))
        used[a] += 1
        used[b] += 1
    return validate("B", internal=tuple((3 * v, 3 * v + 1, 3 * v + 2)
                                        for v in range(8)),
                    pairing=tuple(pairing))


def test_acceptance_contraction_plans_are_sound_and_beat_naive(capsys):
    weights = [(d, evaluate(d, SL2, FUND)) for total in (0, 2, 4, 6)
               for d in enumerate_diagrams("A", total=total)]
    weights += [(d, evaluate_closed(d, SL2)) for v in (0, 2, 4, 6)
                for d in enumerate_diagrams("B", v=v, l=0)]
    wrong = [d for d, w in weights if w != oracles.sl2_weight_bruteforce(d)]
    d8 = _cube()
    plan = contraction_plan(d8, (3,))
    strict = plan.cost < 3 ** len(d8.pairing)
    detail = (f"{len(weights) - len(wrong)} diagrams agree; cube plan {plan.cost} "
              f"< naive 3^12 = {3 ** len(d8.pairing)}")
    if wrong:
        detail += f"; first mismatch {wrong[0]!r}"
    _report(capsys, "contraction plans: planned == term-by-term on all "
                    "diagrams of total <= 6, and plan cost beats naive on an "
                    "8-vertex closed diagram",
            not wrong and strict, detail)


# 8 -------------------------------------------------------------------------


def _brute_nonzero_classes(space, nsk, nv, nl):
    found = {}
    for partner in oracles.brute_matchings(nsk, nv, nl):
        d = oracles.layout_diagram(space, nsk, nv, nl, partner)
        cf = canonicalize(d)
        if cf.sign != 0:
            found.setdefault(cf.diagram._key, cf.diagram)
    return sorted(found.values(), key=lambda d: d.sort_key())


def _count_identity(space, nsk, nv, nl):
    """Orbit-stabilizer: sum of |relabelings| / |Aut| over all classes must
    equal the closed-form count of tadpole-free matchings."""
    group = oracles.layout_group_order(space, nsk, nv, nl)
    total = 0
    for d, _flag in _enumerate_split_full(space, nsk, nv, nl):
        aut = automorphism_count(d)
        if group % aut:
            return False
        total += group // aut
    return total == oracles.matching_count_formula(nsk, nv, nl)


def test_acceptance_enumeration_matches_bruteforce(capsys):
    # every split with at most 14 half-edges is checked class-by-class
    # against the all-matchings recursion; the four larger splits are
    # checked by the exact orbit-count identity instead.
    ok = True
    classes = counted = 0
    for v in range(7):
        for l in range(7 - v):
            nhalf = 3 * v + l
            if nhalf <= 14:
                brute = _brute_nonzero_classes("B", 0, v, l)
                got = enumerate_diagrams("B", v=v, l=l)
                ok = ok and [d.sort_key() for d in got] == \
                    [d.sort_key() for d in brute]
                classes += len(got)
            ok = ok and _count_identity("B", 0, v, l)
            counted += 1
    for total in range(7):
        for nv in range(total + 1):
            nsk = total - nv
            nhalf = nsk + 3 * nv
            if nhalf <= 14:
                brute = _brute_nonzero_classes("A", nsk, nv, 0)
                got = enumerate_diagrams("A", e=nsk, v=nv)
                ok = ok and [d.sort_key() for d in got] == \
                    [d.sort_key() for d in brute]
                classes += len(got)
            ok = ok and _count_identity("A", nsk, nv, 0)
            counted += 1
    _report(capsys, "enumeration matches brute force over all leg gradings "
                    "v+l <= 6 and circle gradings total <= 6",
            ok, f"{classes} classes matched class-by-class; "
                f"{counted} splits pass the exact orbit-count identity")


def test_acceptance_orbit_counts_hold_at_total_8(capsys, monkeypatch):
    # every split of total grading 8, enumerated cold from the splits below
    monkeypatch.setattr(diagrams, "_enum_memo", {})
    splits = [("B", 0, v, 8 - v) for v in range(9)]
    splits += [("A", 8 - v, v, 0) for v in range(9)]
    failed = [s for s in splits if not _count_identity(*s)]
    _report(capsys, "orbit-count identity on every leg and circle split of "
                    "total 8", not failed,
            f"{len(splits) - len(failed)} of {len(splits)} splits pass")
