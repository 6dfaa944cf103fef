"""Self-checking verification suites.

Each suite runs a battery of exact identities and returns a report dict:
``{"suite": name, "pass": bool, "checks": [{"name", "pass", "seconds", ...}]}``.
A check that hits a resource guard (enumeration, a map's step budget or the
contraction cost bound) is reported as failed with an ``error`` field, and
the suite stops there: every suite builds its pieces inside its checks and
runs them in order of size, so no later check is smaller.  All comparisons
are exact; the timing fields are the only non-deterministic bytes in a
report.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial

from .algebra import (DiagramVector, _rref, equal_mod_relations,
                      ihx_generators, quotient_basis, stu_generators)
from .diagrams import (Diagram, _require_non_negative, empty_diagram,
                       enumerate_diagrams, validate)
from .errors import GradingMismatchError, LieAlgebraError, ResourceLimitError
from .maps import (cap, chi, closure, connect_sum, disjoint_union, exp_disjoint, omega,
                   strut, wheel)

# The one global sign fixed by this package's orientation conventions: the
# closure of the wheels series is the exponential of (this sign) * theta/24
# in the pair-weight-2 normalization (theta/48 at pair weight 1).
CLOSURE_SIGN = -1


def _report(suite, checks) -> dict:
    """Run ``checks``, pairs ``(name, fn)`` with ``fn() -> (ok, detail)``,
    in order into a report.  A resource cutoff fails its check and ends the
    suite: the checks come in order of size, so no later check is smaller.
    ``checks`` is a generator, so a huge bound makes only the checks run."""
    report = {"suite": suite, "pass": True, "checks": []}
    for name, fn in checks:
        t0 = time.perf_counter()
        entry = {"name": name}
        try:
            ok, detail = fn()
            entry["pass"] = bool(ok)
        except ResourceLimitError as exc:
            entry["pass"] = False
            entry["error"] = f"resource cutoff: {exc}"
            detail = None
        entry["seconds"] = round(time.perf_counter() - t0, 3)
        if detail:
            entry.update(detail)
        if not entry["pass"]:
            report["pass"] = False
        report["checks"].append(entry)
        if "error" in entry:
            break
    return report


# ---------------------------------------------------------------------------
# relations: every AS / IHX / STU generator is killed by the weight system


def _flip_first_vertex(d: Diagram) -> Diagram:
    t = list(d.triples)
    a, b, c = t[0]
    t[0] = (b, a, c)
    return validate(d.space, internal=tuple(t), legs=d.legs or (),
                    skeleton=d.skeleton, pairing=d.pairing,
                    free_loops=d.free_loops)


def verify_relations(max_total: int = 6, algebra="sl2", rep=None,
                     max_cost: int | None = None) -> dict:
    """With no ``max_cost``, every contraction is bounded by
    ``DEFAULT_MAX_COST`` as it stands when the suite runs.  Only this suite
    evaluates weights, so only it loads the weight layer."""
    from .lie import DEFAULT_MAX_COST, evaluate, resolve_algebra, resolve_representation

    _require_non_negative(max_total=max_total, max_cost=max_cost)
    if max_cost is None:
        max_cost = DEFAULT_MAX_COST
    g = resolve_algebra(algebra)
    rho = resolve_representation(g, rep)
    if rho is None:
        raise LieAlgebraError("the algebra carries no representations")
    # Weights are linear, so every generator is checked against one table
    # of diagram weights, each filled on first use inside a check.  Each
    # check enumerates its total's diagrams itself (a memo read after the
    # first), so a refused enumeration is that check's cutoff.
    table = {}

    def weight(d):
        if d not in table:
            table[d] = evaluate(d, g, rho, max_cost=max_cost)
        return table[d]

    def check_flips(total):
        flipped = 0
        for d in enumerate_diagrams("A", total=total):
            if not d.triples:
                continue
            flipped += 1
            wf = evaluate(_flip_first_vertex(d), g, rho, max_cost=max_cost)
            if weight(d) != -wf:
                return False, {"diagrams": flipped}
        return True, {"diagrams": flipped}

    def check_gens(generators, total):
        gens = generators(enumerate_diagrams("A", total=total))
        for vec in gens:
            if sum(c * weight(d) for d, c in vec.items()) != 0:
                return False, {"generators": len(gens)}
        return True, {"generators": len(gens)}

    def checks():
        for total in range(2, max_total + 1, 2):
            yield f"orientation-flip-antisymmetry-total-{total}", partial(check_flips, total)
            yield f"ihx-vanishing-total-{total}", partial(check_gens, ihx_generators, total)
            yield f"stu-vanishing-total-{total}", partial(check_gens, stu_generators, total)

    return _report("relations", checks())


# ---------------------------------------------------------------------------
# chi-iso: leg-averaging is a graded isomorphism onto the circle space


def verify_chi_iso(max_total: int = 4, cache_dir=None) -> dict:
    _require_non_negative(max_total=max_total)
    table = []

    def check(n):
        a_basis = quotient_basis("A", total=n, cache_dir=cache_dir)
        rows = []
        dim_legs = 0
        for v in range(n + 1):
            piece = quotient_basis("B", v=v, l=n - v, cache_dir=cache_dir)
            dim_legs += piece.dim
            for d in piece.basis:
                coords = a_basis.coordinates(chi(d))
                rows.append({i: c for i, c in enumerate(coords) if c})
        rank = len(_rref(rows))
        entry = {"total": n, "dim_legs": dim_legs,
                 "dim_circle": a_basis.dim, "rank": rank}
        table.append(entry)
        ok = dim_legs == a_basis.dim == rank
        return ok, dict(entry)

    report = _report("chi-iso", ((f"chi-square-invertible-total-{n}", partial(check, n))
                                 for n in range(max_total + 1)))
    report["rank_table"] = table
    return report


# ---------------------------------------------------------------------------
# closure-omega: the closure of the wheels series is exp(sign * theta / 24)


def verify_closure_omega(vmax: int = 4, cache_dir=None) -> dict:
    _require_non_negative(vmax=vmax)
    theta_vec = -closure(DiagramVector.single(wheel(2)))

    def check(pair_weight, denom, trunc):
        lhs = closure(omega(trunc), pair_weight=pair_weight)
        rhs = exp_disjoint(Fraction(CLOSURE_SIGN, denom) * theta_vec, trunc)
        return equal_mod_relations(lhs, rhs, cache_dir=cache_dir), {"sign": CLOSURE_SIGN}

    return _report("closure-omega", (
        (f"exp-theta-pair-weight-{pair_weight}-vmax-{trunc}",
         partial(check, pair_weight, denom, trunc))
        for trunc in range(0, vmax + 1, 2) for pair_weight, denom in ((1, 48), (2, 24))))


# ---------------------------------------------------------------------------
# wheeling: cap-by-wheels then average is multiplicative


_WHEELING_PAIRS = (("empty", "empty"), ("strut", "strut"), ("wheel2", "strut"))


def verify_wheeling(cache_dir=None) -> dict:
    vecs = {"empty": DiagramVector.single(empty_diagram()),
            "strut": DiagramVector.single(strut()),
            "wheel2": DiagramVector.single(wheel(2))}

    def wheeled(x):
        legs = max((d.l for d, _ in x.items()), default=0)
        return chi(cap(omega(legs), x))

    def check(a, b):
        x, y = vecs[a], vecs[b]
        lhs = wheeled(disjoint_union(x, y))
        rhs = connect_sum(wheeled(x), wheeled(y))
        return equal_mod_relations(lhs, rhs, cache_dir=cache_dir), None

    return _report("wheeling", ((f"multiplicative-{a}-{b}", partial(check, a, b))
                                for a, b in _WHEELING_PAIRS))


# ---------------------------------------------------------------------------
# dispatch


_SUITES = {"relations": verify_relations, "chi-iso": verify_chi_iso,
           "closure-omega": verify_closure_omega, "wheeling": verify_wheeling}
SUITES = tuple(_SUITES)


def run_suite(name: str, *, cache_dir=None, **bounds) -> dict:
    """Run one named suite.  A bound that is None counts as not given; the
    suite function's parameters list the bounds it takes and their
    defaults, and any other bound raises ``GradingMismatchError``.
    ``cache_dir`` goes to the suites that read a cache."""
    suite = _SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    code = suite.__code__  # the suites take plain named parameters only
    takes = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    kwargs = {k: x for k, x in bounds.items() if x is not None}
    unread = sorted(set(kwargs) - set(takes))
    if unread:
        raise GradingMismatchError(f"suite {name!r} takes no {', '.join(unread)}")
    if "cache_dir" in takes:
        kwargs["cache_dir"] = cache_dir
    return suite(**kwargs)
