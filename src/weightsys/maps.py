"""Structure maps between the diagram spaces.

* ``disjoint_union`` — the product of the leg space (place diagrams side
  by side); ``connect_sum`` — the product of the circle space (concatenate
  the skeletons; well defined on the quotient, which the tests check).
* ``chi`` — the symmetrization map from legs to the circle: average over
  all orders in which the legs can be planted on the skeleton.
* ``closure`` — sum over all ways to glue the legs pairwise (optionally
  weighting each glued pair), landing in closed leg-space diagrams.
* ``cap`` — pair one diagram's legs into another's: sum over injections
  of the first diagram's legs into the second's, gluing matched pairs.
* wheels: the ``wheel`` diagrams, the modified Bernoulli coefficients of
  log(sinh(y/2)/(y/2)), and the truncated exponential ``omega`` built
  from them.

Every map expands its input term by term through one walk, ``_expand``,
which checks each term's space once and takes a lone Diagram as labeled
(no canonical search first), and for ``closure`` and ``cap`` counts the
work first, outputs times half-edges, against ``DEFAULT_MAX_STEPS``; the
two products share one side-by-side builder. Gluing two legs fuses their
incident edges; chains of fused struts that close up entirely are
recorded in ``free_loops``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .algebra import DiagramVector, _terms
from .diagrams import (DEFAULT_MAX_STEPS, Diagram, _capped_product, _perfect_matchings,
                       _require_non_negative, empty_diagram)
from .errors import ResourceLimitError, SpaceMismatchError

__all__ = [
    "strut", "theta", "wheel",
    "disjoint_union", "connect_sum", "chi", "closure", "cap",
    "modified_bernoulli", "wheels_vector", "omega", "exp_disjoint",
]


# ---------------------------------------------------------------------------
# builders


def strut() -> Diagram:
    """Two legs joined by an edge: the degree-(0,2) generator."""
    return Diagram._new("B", (), (0, 1), None, ((0, 1),))


def theta() -> Diagram:
    """The closed two-vertex diagram (three parallel edges)."""
    return Diagram._new("B", ((0, 1, 2), (3, 4, 5)), (), None,
                        ((0, 3), (1, 4), (2, 5)))


def wheel(k: int) -> Diagram:
    """The k-wheel: a rim cycle of k vertices, one leg (spoke) each.

    Vertex i carries (rim to i-1, rim to i+1, spoke); odd wheels are zero
    by antisymmetry (reflecting the rim reverses orientation).
    """
    if k < 2:
        raise ValueError("a wheel needs at least 2 rim vertices")
    triples = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(k))
    legs = tuple(3 * k + i for i in range(k))
    pairing = [(3 * i + 1, 3 * ((i + 1) % k)) for i in range(k)]
    pairing += [(3 * i + 2, 3 * k + i) for i in range(k)]
    return Diagram._new("B", triples, legs, None, pairing)


# ---------------------------------------------------------------------------
# the expansion walk and products


def _checked_terms(x, space, message):
    """The terms (d, c) of x, a lone Diagram as labeled, each checked to lie
    in ``space``."""
    for d, c in _terms(x):
        if d.space != space:
            raise SpaceMismatchError(message)
        yield d, c


def _expand(x, space, message, expand, steps=None) -> DiagramVector:
    """Sum of c * w * e over the stored terms (d, c) of x and the outputs
    (e, w) of ``expand(d)``. A bilinear map expands each term of x into a
    walk over the terms of y. With ``steps``, the work ``steps(d)`` of
    every term is counted first, and ``ResourceLimitError`` is raised
    before anything is built when the sum passes ``DEFAULT_MAX_STEPS``."""
    terms = list(_checked_terms(x, space, message))
    if steps is not None and sum(steps(d) for d, _ in terms) > DEFAULT_MAX_STEPS:
        raise ResourceLimitError(
            f"expansion exceeded {DEFAULT_MAX_STEPS} steps (outputs x half-edges)")
    return DiagramVector((e, c * w) for d, c in terms for e, w in expand(d))


def _side_by_side(a: Diagram, b: Diagram) -> Diagram:
    """a and b in one diagram, b's half-edges shifted past a's; in the
    circle space the two skeletons are concatenated."""
    off = max(a.half_edges(), default=-1) + 1

    def sh(hs):
        return tuple(h + off for h in hs)

    skeleton = None if a.skeleton is None else a.skeleton + sh(b.skeleton)
    return Diagram._new(a.space, a.triples + tuple(map(sh, b.triples)),
                        a.legs + sh(b.legs), skeleton,
                        a.pairing + tuple(map(sh, b.pairing)),
                        a.free_loops + b.free_loops)


def _product(x, y, space, message, vmax=None) -> DiagramVector:
    """Side-by-side product; with vmax, a pair whose vertices add up past
    it is dropped before it is built.  y's terms are checked first, so a
    zero x does not let a y from the wrong space through."""
    ys = list(_checked_terms(y, space, message))
    return _expand(x, space, message, lambda a: (
        (_side_by_side(a, b), cb) for b, cb in ys if vmax is None or a.v + b.v <= vmax))


def disjoint_union(x, y) -> DiagramVector:
    """Bilinear product of the leg space: diagrams side by side."""
    return _product(x, y, "B", "disjoint union is a leg-space product")


def connect_sum(x, y) -> DiagramVector:
    """Bilinear product of the circle space: concatenate the skeletons.

    The class of the result does not depend on where the two circles are
    cut, because skeleton-resolution relations let attached pieces slide
    past each other; the test suite checks this on examples.
    """
    return _product(x, y, "A", "connect sum is a circle-space product")


# ---------------------------------------------------------------------------
# symmetrization


def chi(x) -> DiagramVector:
    """Average over all orders of planting the legs on a circle.

    A diagram with l legs maps to 1/l! times the sum of the circle-space
    diagrams whose skeleton is one permutation of those legs; as the circle
    has no base point, the (l-1)! orders that keep the first leg first, each
    weighted 1/(l-1)!, give the same sum. Grading is preserved: (v, l)
    lands in total v + l. With no legs the result is the diagram floating
    beside a bare circle.
    """
    def planted(d):
        first, rest = d.legs[:1], d.legs[1:]
        w = Fraction(1, math.factorial(len(rest)))
        return ((Diagram._new("A", d.triples, (), first + perm, d.pairing, d.free_loops), w)
                for perm in itertools.permutations(rest))

    return _expand(x, "B", "symmetrization starts from leg-space diagrams", planted)


# ---------------------------------------------------------------------------
# gluing


def _glue(d: Diagram, pairs) -> Diagram:
    """Glue the given disjoint pairs of legs of one diagram: each glued
    pair fuses its two incident edges into one; chains closing entirely
    among glued legs become free loops."""
    mate = {}
    for x, y in pairs:
        mate[x] = y
        mate[y] = x
    pmap = d.partner_map
    new_pairs = []
    seen = set()
    for h in d.half_edges():
        if h in mate or h in seen:
            continue
        p = pmap[h]
        while p in mate:
            seen.add(p)
            q = mate[p]
            seen.add(q)
            p = pmap[q]
        seen.add(p)
        new_pairs.append((h, p))
    loops = d.free_loops
    for x in mate:
        if x in seen:
            continue
        # a cycle of glued legs: follow it, record one loop
        cur = x
        while cur not in seen:
            seen.add(cur)
            nxt = mate[cur]
            seen.add(nxt)
            cur = pmap[nxt]
        loops += 1
    legs = tuple(g for g in d.legs if g not in mate)
    return Diagram._new(d.space, d.triples, legs, d.skeleton, new_pairs, loops)


def closure(x, pair_weight=1) -> DiagramVector:
    """Sum over all pairwise gluings of each diagram's legs.

    Each perfect matching of the legs contributes the glued diagram with
    coefficient pair_weight^(pairs). Diagrams with an odd number of legs
    contribute nothing. A term with l legs is charged its (l-1)!!
    matchings times its half-edges, and ``ResourceLimitError`` is raised
    before any gluing when the charge passes ``DEFAULT_MAX_STEPS``.
    """
    w = Fraction(pair_weight)

    def glued(d):
        if d.l % 2:
            return ()
        f = w ** (d.l // 2)
        return ((_glue(d, m), f) for m in _perfect_matchings(d.legs))

    return _expand(x, "B", "closure acts on leg-space diagrams", glued, _closure_steps)


def _closure_steps(d: Diagram) -> int:
    """The (l-1)!! matchings of d's l legs times its half-edges; 0 for odd l."""
    matchings = 0 if d.l % 2 else _capped_product(range(d.l - 1, 0, -2), DEFAULT_MAX_STEPS)
    return matchings * (3 * d.v + d.l)


def cap(x, y) -> DiagramVector:
    """Pair the first argument's legs into the second's.

    For each pair of terms C (with j legs) and D (with k legs), sum over
    all j-element injections of C's legs into D's legs, gluing matched
    pairs; k - j legs survive. Terms with j > k contribute zero. A pair is
    charged its k!/(k-j)! injections times its half-edges, and
    ``ResourceLimitError`` is raised before any gluing when the charge
    passes ``DEFAULT_MAX_STEPS``.
    """
    message = "capping acts on leg-space diagrams"
    ys = list(_checked_terms(y, "B", message))  # checked even when x is zero

    def capped(c):
        for d, cd in ys:
            u = _side_by_side(d, c)
            for image in itertools.permutations(d.legs, c.l):
                yield _glue(u, list(zip(u.legs[d.l:], image))), cd

    def steps(c):
        return sum(_cap_steps(c, d) for d, _ in ys)

    return _expand(x, "B", message, capped, steps)


def _cap_steps(c: Diagram, d: Diagram) -> int:
    """The k!/(k-j)! injections of c's j legs into d's k legs times the
    half-edges of the pair; 0 when j > k."""
    if c.l > d.l:
        return 0
    return (_capped_product(range(d.l, d.l - c.l, -1), DEFAULT_MAX_STEPS)
            * (3 * (c.v + d.v) + c.l + d.l))


# ---------------------------------------------------------------------------
# wheels


_mb_cache: list = []


def modified_bernoulli(i: int) -> Fraction:
    """Coefficient of y^(2i) in (1/2) log(sinh(y/2)/(y/2)).

    Computed by exact series arithmetic in the variable t = y^2:
    sinh(y/2)/(y/2) = sum_n t^n / (4^n (2n+1)!), and for A(t) with constant
    term 1 the log series L satisfies n*L_n = n*A_n - sum_k k*L_k*A_(n-k).
    First values: 1/48, -1/5760, 1/362880.
    """
    if i < 1:
        raise ValueError("modified Bernoulli coefficients start at i = 1")
    while len(_mb_cache) < i:
        n = len(_mb_cache) + 1
        a = [Fraction(1, 4 ** m * math.factorial(2 * m + 1)) for m in range(n + 1)]
        ln = a[n] - sum((k * _mb_cache[k - 1] * a[n - k]
                         for k in range(1, n)), Fraction(0)) / n
        _mb_cache.append(ln)
    return _mb_cache[i - 1] / 2


def wheels_vector(vmax: int) -> DiagramVector:
    """Sum of modified-Bernoulli multiples of even wheels up to vmax
    internal vertices (odd wheels are antisymmetry-zero and omitted)."""
    _require_non_negative(vmax=vmax)
    return DiagramVector((wheel(2 * i), modified_bernoulli(i))
                         for i in range(1, vmax // 2 + 1))


def exp_disjoint(x, vmax: int) -> DiagramVector:
    """exp of a leg-space vector under disjoint union, truncated to at most
    vmax internal vertices. Every term of x must have at least one vertex
    (otherwise the series would not terminate)."""
    _require_non_negative(vmax=vmax)
    if any(d.v == 0 for d, _ in _terms(x)):
        raise ValueError("exp needs every term to carry internal vertices")
    out = term = DiagramVector.single(empty_diagram())
    k = 0
    while term:
        k += 1
        term = Fraction(1, k) * _product(
            term, x, "B", "disjoint union is a leg-space product", vmax)
        out = out + term
    return out


def _partition_counts():
    """p(0), p(1), p(2), ... by Euler's pentagonal-number recurrence."""
    p = [1]
    while True:
        yield p[-1]
        n, total, k = len(p), 0, 1
        while (g := k * (3 * k - 1) // 2) <= n:
            s = 1 if k % 2 else -1
            total += s * p[n - g] + (s * p[n - g - k] if g + k <= n else 0)
            k += 1
        p.append(total)


def _omega_half_edges(vmax: int) -> int:
    """Half-edges of omega(vmax)'s terms, counted until they pass
    ``DEFAULT_MAX_STEPS``.

    A term with 2m vertices is a product of even wheels, one per part of a
    partition of m, and has 8m half-edges; so the count runs over m and
    stops at the first m that passes the bound. Every term is canonicalized
    once at least, so this is a lower bound on omega's work."""
    count = 0
    for m, pm in zip(range(vmax // 2 + 1), _partition_counts()):
        count += 8 * m * pm
        if count > DEFAULT_MAX_STEPS:
            break
    return count


def omega(vmax: int) -> DiagramVector:
    """The wheels element: exp (disjoint union) of the modified-Bernoulli
    wheel series, truncated to diagrams with at most vmax vertices.

    Raises ``ResourceLimitError`` before any wheel is built when the terms
    would hold more than ``DEFAULT_MAX_STEPS`` half-edges."""
    if _omega_half_edges(vmax) > DEFAULT_MAX_STEPS:
        raise ResourceLimitError(
            f"omega exceeded {DEFAULT_MAX_STEPS} steps (half-edges of its terms)")
    return exp_disjoint(wheels_vector(vmax), vmax)
