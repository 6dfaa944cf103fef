"""Exact linear algebra on diagrams: vectors, relations, quotient bases.

A :class:`DiagramVector` is a finite rational combination of canonical
diagrams; inserting any diagram first canonicalizes it and folds the
antisymmetry sign into the coefficient, so antisymmetry holds by
construction. The further local relations are generated explicitly:

* the edge-rewrite family valid in both spaces (from the Jacobi identity:
  writing F(a,b,c,d) for the two-vertex tensor with the shared edge, the
  combination F(a,b,c,d) - F(a,c,b,d) + F(b,c,a,d) vanishes), and
* in A-space additionally the skeleton-resolution family: a vertex hooked
  to the circle equals the difference of the two ways of planting its
  remaining half-edges directly on the circle, in circle order minus in
  swapped order.

Quotient bases are computed by exact Gauss-Jordan elimination over
Fraction entries in the coordinates of the deterministic enumeration
order; reduction rewrites any vector over the surviving basis diagrams.

Free-loop components never enter relations: a vector splits by loop count,
each part is reduced with loops stripped, and loops are reattached.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from . import cache as cache_mod
from .diagrams import (
    Diagram,
    _automorphisms,
    _canonical_form,
    _canonical_labels,
    _edge_image,
    _orbit_firsts,
    _require_non_negative,
    _require_piece,
    _split_components,
    canonicalize,
    diagram_from_json,
    diagram_to_json,
    enumerate_diagrams,
)
from .errors import DiagramError, GradingMismatchError, ResourceLimitError

__all__ = [
    "DiagramVector",
    "vector_from_json",
    "vector_to_json",
    "ihx_generators",
    "stu_generators",
    "QuotientBasis",
    "quotient_basis",
    "reduce_vector",
    "equal_mod_relations",
]

_ZERO = Fraction(0)


def _combine(forms) -> dict:
    """Terms of the sum of c * form over (canonical form, coefficient)
    pairs, zero coefficients dropped."""
    acc = {}
    for cf, c in forms:
        if cf.sign:
            acc[cf.diagram] = acc.get(cf.diagram, _ZERO) + cf.sign * c
    return {k: v for k, v in acc.items() if v}


class DiagramVector:
    """A rational linear combination of diagrams, stored over canonical
    representatives with antisymmetry signs folded in."""

    __slots__ = ("_terms",)

    def __init__(self, items=(), _raw=None):
        if _raw is not None:
            self._terms = _raw
            return
        coeffs = ((d, Fraction(c)) for d, c in items)
        self._terms = _combine((canonicalize(d), c) for d, c in coeffs if c)

    @classmethod
    def single(cls, d: Diagram, coeff=1) -> "DiagramVector":
        return cls([(d, coeff)])

    @classmethod
    def zero(cls) -> "DiagramVector":
        return cls()

    def items(self):
        """(diagram, coefficient) pairs in the deterministic diagram order."""
        return [(d, self._terms[d]) for d in sorted(self._terms, key=Diagram.sort_key)]

    def coefficient(self, d: Diagram) -> Fraction:
        cf = canonicalize(d)
        if cf.sign == 0:
            return _ZERO
        return cf.sign * self._terms.get(cf.diagram, _ZERO)

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, DiagramVector) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        if not isinstance(other, DiagramVector):
            return NotImplemented
        acc = dict(self._terms)
        for d, c in other._terms.items():
            nv = acc.get(d, _ZERO) + c
            if nv:
                acc[d] = nv
            elif d in acc:
                del acc[d]
        return DiagramVector(_raw=acc)

    def __sub__(self, other):
        if not isinstance(other, DiagramVector):
            return NotImplemented
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar):
        c = Fraction(scalar)
        if not c:
            return DiagramVector()
        return DiagramVector(_raw={d: c * v for d, v in self._terms.items()})

    def __mul__(self, scalar):
        return self.__rmul__(scalar)

    def graded_parts(self) -> dict:
        """Split by (space, grading, free loops); each part is homogeneous."""
        parts: dict = {}
        for d, c in self._terms.items():
            parts.setdefault(d.grading_key(), {})[d] = c
        return {k: DiagramVector(_raw=v) for k, v in parts.items()}

    def key(self):
        """Hashable normal form: leading coefficient scaled to 1."""
        items = self.items()
        if not items:
            return ()
        lead = items[0][1]
        return tuple((d._key, c / lead) for d, c in items)

    def __repr__(self):
        body = " + ".join(f"({c})*{d!r}" for d, c in self.items())
        return f"DiagramVector({body or '0'})"


def _terms(x):
    """(diagram, coefficient) pairs of x: a lone Diagram as labeled, a
    vector's stored terms as stored.  A weight system already respects
    antisymmetry and the relations, and every structural map commutes with
    relabeling and canonicalizes its output, so no canonical form is needed."""
    if isinstance(x, Diagram):
        return ((x, 1),)
    if isinstance(x, DiagramVector):
        return x._terms.items()
    raise TypeError("expected a Diagram or DiagramVector")


# ---------------------------------------------------------------------------
# JSON


def _rational(x, error) -> Fraction:
    """An exact rational read from JSON: an integer, a Fraction, or a
    string such as '3', '-2/5', '0.5' or '1e3'.  Floats, booleans, other
    types and malformed strings raise ``error``; digit underscores, which
    ``Fraction`` reads from Python 3.11 on, are malformed on every version.
    A string whose exponent, or whose digits, pass the interpreter's
    integer conversion limit raises ``ResourceLimitError``, the exponent
    before any arithmetic."""
    if isinstance(x, (bool, float)) or not isinstance(x, (int, str, Fraction)):
        raise error(f"expected an exact rational (an integer or a 'p/q' string), got {x!r}")
    if not isinstance(x, str):
        return Fraction(x)
    limit = sys.get_int_max_str_digits()
    try:
        if "_" in x:
            raise ValueError
        _, e, exp = x.lower().partition("e")
        if e and limit and abs(int(exp)) >= limit:
            raise ResourceLimitError(
                f"a rational literal's exponent names more than {limit} digits")
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        if "integer string conversion" in str(exc):
            raise ResourceLimitError(
                f"a rational literal has more than {limit} digits") from None
        raise error(f"bad rational literal {x!r}") from None


def vector_from_json(obj) -> DiagramVector:
    """Accepts a bare array of {"coeff","diagram"} entries or an object
    wrapping that array under "terms"."""
    if isinstance(obj, dict) and "terms" in obj:
        obj = obj["terms"]
    if not isinstance(obj, list):
        raise DiagramError("vector JSON must be an array of coeff/diagram entries")
    items = []
    for entry in obj:
        if not isinstance(entry, dict) or "coeff" not in entry or "diagram" not in entry:
            raise DiagramError("vector entries need 'coeff' and 'diagram' fields")
        items.append((diagram_from_json(entry["diagram"]),
                      _rational(entry["coeff"], DiagramError)))
    return DiagramVector(items)


def vector_to_json(vec: DiagramVector) -> list:
    return [{"coeff": str(c), "diagram": diagram_to_json(d)} for d, c in vec.items()]


# ---------------------------------------------------------------------------
# relation generators


def _distinct(vectors) -> list:
    """The nonzero vectors, in order, each kept once up to scale."""
    seen = set()
    out = []
    for vec in vectors:
        if vec and (key := vec.key()) not in seen:
            seen.add(key)
            out.append(vec)
    return out


def ihx_generators(diagrams) -> list:
    """Edge-rewrite relation vectors based at each given diagram.

    For an edge joining internal vertices u and w (half-edges k at u, p at
    w), rotate u to (a, b, k) and w to (p, c, d). The relation is
    D(a,b|c,d) - D(a,c|b,d) + D(b,c|a,d) = 0, where D(x,y|z,t) has
    u = (x, y, k) and w = (p, z, t) and all pairings unchanged. Each
    internal edge is taken once, from its lower-indexed vertex: read from
    w, the same rule gives the same three diagrams with the same signs
    (swap the roles of u and w, then exchange k and p, which reverses both
    vertices). An isomorphism, vertex reversals included, maps an edge's
    vector to +/- that of the image edge, so one edge per orbit of the base
    diagram's automorphisms is taken. The list is that of the distinct
    vectors, up to scale, of every internal edge of every given diagram in
    order; two kinds of edge whose vector is zero or repeats an earlier one
    are never built:

    * Parallel edges. If u and w share another edge, one rewritten term
      has a self-edge and is zero, and the other is D relabeled with a sign
      that cancels it: for a-c, D(b,c|a,d) with a and c swapped is D with u
      reversed; for b-c, D(a,c|b,d) with b and c swapped is D; for b-d
      (a-d), D(b,c|a,d) (D(a,c|b,d)) with both shared edges' ends swapped
      and u, w exchanged is D with one (two) vertices reversed.
    * Later members of a triple. Read at its edge k-p, D(a,c|b,d) gives
      D(a,c|b,d) - D(a,b|c,d) + D(c,b|a,d), minus the vector of D since
      D(c,b|a,d) = -D(b,c|a,d); likewise D(b,c|a,d) gives plus it. So each
      nonzero rewritten term marks its class at the canonical labels of
      k and p, and an edge orbit of a later diagram holding a marked edge
      gives a vector that is zero or already found.

    A circle-space basis passes only its diagrams with no vertex on the
    circle; with skeleton resolutions at all its diagrams, these span every
    relation. (1) Modulo them, by induction on vertices, each diagram is a
    sum of chord diagrams beside closed parts K: one with a vertex on the
    circle is zero-sign, so zero, or T - U by its own resolution. (2) They
    hold each four-term relation beside K, the resolutions at two legs of a
    tripod (one vertex, three legs on the circle) beside chords and K. Its
    automorphisms turn the legs cyclically, as a rotation fixing one leg
    fixes all, so it is zero-sign only if K is, and then every term is zero.
    (3) They hold each edge rewrite of K beside chords: its base is passed,
    or is zero-sign and gives +/- the vector read at another term, or zero.
    These present A on chords beside K (Bar-Natan, Topology 1995, Thm 6),
    so G is every relation, and no step used a relation at a zero-sign base.
    """
    marks = {}
    return _distinct(vec for d in diagrams for vec in _ihx_vectors(d, marks))


def _relation(base, f2, f3) -> DiagramVector:
    """base - f2 + f3, given the canonical forms of the three diagrams."""
    one = Fraction(1)
    return DiagramVector(_raw=_combine(((base, one), (f2, -one), (f3, one))))


def _ihx_vectors(d, marks):
    """The edge-rewrite vectors based at d, one per orbit, under d's
    automorphisms, of the internal edges between two vertices that share
    no other edge, zeros and repeats included.  ``marks`` maps a class to
    the canonical edges already rewritten in it: orbits holding one are
    skipped, and each nonzero rewritten term adds its own."""
    pmap = d.partner_map
    where = {h: (i, j) for i, t in enumerate(d.triples) for j, h in enumerate(t)}
    across = {h: where[pmap[h]][0] for h in where if pmap[h] in where}
    ends = {}  # each internal edge (x < y) -> its half-edge at the lower vertex
    for k, (i, _) in where.items():
        w = across.get(k, -1)
        # a parallel edge (vertices i and w share another) gives zero
        shared = [across.get(h) for h in d.triples[i]].count(w)
        if w > i and shared == 1:
            p = pmap[k]
            ends[(k, p) if k < p else (p, k)] = k
    if not ends:
        return
    comps = _split_components(d)
    base = _canonical_form(d, comps)
    done = ()
    if marks and base.diagram in marks:
        lab = _canonical_labels(d, comps)
        done = [e for e in ends if _edge_image(lab, e) in marks[base.diagram]]
    # listed first, the marked edges head their orbits, which are skipped
    for edge in _orbit_firsts([*done, *ends], _automorphisms(d, comps), _edge_image):
        if edge in done:
            continue
        k = ends[edge]
        p = pmap[k]
        (i, j), (w, js) = where[k], where[p]
        t, tw = d.triples[i], d.triples[w]
        a, b = t[(j + 1) % 3], t[(j + 2) % 3]
        c, dd = tw[(js + 1) % 3], tw[(js + 2) % 3]
        forms = []
        for x, y in ((a, b), (b, a)):
            trips = list(d.triples)
            trips[i] = (x, c, k)
            trips[w] = (p, y, dd)
            term = Diagram._new(d.space, trips, d.legs, d.skeleton, d.pairing, d.free_loops)
            tcomps = _split_components(term)
            form = _canonical_form(term, tcomps)
            if form.sign:
                lab = _canonical_labels(term, tcomps)
                marks.setdefault(form.diagram, set()).add(_edge_image(lab, (k, p)))
            forms.append(form)
        yield _relation(base, *forms)


def stu_generators(diagrams) -> list:
    """Skeleton-resolution relation vectors based at each given diagram.

    For a vertex rotated to (h, ha, hb) whose half-edge h is paired with
    skeleton point p: remove the vertex and the h-p edge and plant the two
    remaining half-edges on the circle at p's position, in order (ha, hb)
    for the first resolution and (hb, ha) for the second. The relation is
    S - T + U = 0 with S the vertex form, T the in-order planting, U the
    swapped planting. An automorphism of the base diagram maps h's vector
    to +/- that of its image, so one h per orbit is taken.
    """
    return _distinct(vec for d in diagrams for vec in _stu_vectors(d))


def _stu_vectors(d):
    """The skeleton-resolution vectors based at d, one per orbit of vertex
    half-edges on the circle under d's automorphisms, zeros and repeats
    included."""
    if d.space != "A":
        raise GradingMismatchError("skeleton-resolution relations need A-space diagrams")
    pmap = d.partner_map
    skpos = {h: idx for idx, h in enumerate(d.skeleton)}
    hooked = {h: (i, j) for i, t in enumerate(d.triples) for j, h in enumerate(t)
              if pmap[h] in skpos}
    if not hooked:
        return
    comps = _split_components(d)
    base, perms = _canonical_form(d, comps), _automorphisms(d, comps)
    for h in _orbit_firsts(hooked, perms, lambda perm, x: perm.get(x, x)):
        i, j = hooked[h]
        t = d.triples[i]
        ha, hb = t[(j + 1) % 3], t[(j + 2) % 3]
        idx = skpos[pmap[h]]
        trips = d.triples[:i] + d.triples[i + 1:]
        pairing = tuple(pr for pr in d.pairing if h not in pr)
        sk = d.skeleton
        yield _relation(base, *(
            canonicalize(Diagram._new("A", trips, (), sk[:idx] + planted + sk[idx + 1:],
                                      pairing, d.free_loops))
            for planted in ((ha, hb), (hb, ha))))


# ---------------------------------------------------------------------------
# row reduction (exact, reduced row echelon form)


def _subtract(row: dict, f, prow: dict, c) -> None:
    """row -= f * prow in place, skipping column c; zero entries are dropped."""
    for cc, vv in prow.items():
        if cc != c:
            nv = row.get(cc, _ZERO) - f * vv
            if nv:
                row[cc] = nv
            elif cc in row:
                del row[cc]


def _reduce(row: dict, pivots: dict) -> dict:
    """``row`` with every pivot column cleared, in place.  Pivot-row tails
    hold free columns only, so one sweep clears them all; a row of the
    pivots' span reduces to ``{}``."""
    for c in [c for c in row if c in pivots]:
        _subtract(row, row.pop(c), pivots[c], c)
    return row


def _coordinates(index: dict, terms) -> dict:
    """The row of (diagram, coefficient) pairs over a piece's positions,
    ``index`` mapping each class key to its position; loops are stripped,
    and a diagram outside the piece raises ``DiagramError``."""
    row: dict = {}
    for d, c in terms:
        i = index.get(d.with_loops(0)._key)
        if i is None:
            raise DiagramError("diagram does not belong to this graded piece's enumeration")
        row[i] = row.get(i, _ZERO) + c
    return row


def _rref(rows: list) -> dict:
    """Reduced row echelon form of sparse Fraction rows.

    Rows are dicts column->Fraction. Returns {pivot_column: row} with each
    row normalized to 1 at its pivot and fully reduced against all other
    pivots (so every non-pivot entry of a pivot row sits in a free column).
    """
    pivots: dict = {}
    for row in rows:
        row = _reduce({c: f for c, f in row.items() if f}, pivots)
        if not row:
            continue
        c = min(row)
        f = row.pop(c)
        newrow = {c: Fraction(1)}
        for cc, vv in row.items():
            newrow[cc] = vv / f
        for prow in pivots.values():
            if c in prow:
                _subtract(prow, prow.pop(c), newrow, c)
        pivots[c] = newrow
    return pivots


class QuotientBasis:
    """Basis data of one graded piece of a diagram space modulo relations.

    ``diagrams`` is the full enumeration of the piece in deterministic
    order; ``pivots`` maps eliminated coordinate -> its reduced relation
    row; ``basis`` lists the surviving diagrams (free coordinates).
    """

    __slots__ = ("space", "grading", "diagrams", "pivots", "basis", "_index")

    def __init__(self, space, grading, diagrams, pivots):
        self.space = space
        self.grading = dict(grading)
        self.diagrams = list(diagrams)
        self.pivots = pivots
        self._index = {d._key: i for i, d in enumerate(self.diagrams)}
        self.basis = [d for i, d in enumerate(self.diagrams) if i not in pivots]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec: DiagramVector) -> DiagramVector:
        """Canonical coset representative of ``vec`` (which must live in
        this graded piece; free loops are allowed and carried through)."""
        loops = {d.free_loops for d in vec._terms} or {0}
        if len(loops) != 1:
            raise GradingMismatchError("mixed loop counts inside one reduction call")
        k = loops.pop()
        row = _reduce(_coordinates(self._index, vec._terms.items()), self.pivots)
        return DiagramVector(_raw={self.diagrams[i].with_loops(k): v for i, v in row.items()})

    def coordinates(self, vec: DiagramVector) -> list:
        """Coefficients of ``reduce(vec)`` over ``basis`` (loop-stripped)."""
        red = self.reduce(vec)
        cols = {d.with_loops(0)._key: c for d, c in red._terms.items()}
        return [cols.get(b._key, _ZERO) for b in self.basis]

    # --- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "space": self.space,
            "grading": self.grading,
            "diagrams": [diagram_to_json(d) for d in self.diagrams],
            "pivots": {str(c): {str(cc): str(vv) for cc, vv in row.items()}
                       for c, row in self.pivots.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "QuotientBasis":
        diagrams = [diagram_from_json(o) for o in payload["diagrams"]]
        pivots = {int(c): {int(cc): _rational(vv, ValueError) for cc, vv in row.items()}
                  for c, row in payload["pivots"].items()}
        if not all(0 <= i < len(diagrams) for c, row in pivots.items() for i in (c, *row)):
            raise ValueError("a pivot indexes no diagram of the piece")
        # as _rref leaves them: 1 at the pivot, every other entry in a
        # later free column, which one sweep of _reduce relies on
        if not all(row.get(c) == 1 and all(i == c or (i > c and i not in pivots) for i in row)
                   for c, row in pivots.items()):
            raise ValueError("a pivot row is not in reduced form")
        return cls(payload["space"], payload["grading"], diagrams, pivots)


_basis_memo: dict = {}


def quotient_basis(space, v=None, l=None, total=None, cache_dir=None,
                   max_steps=None) -> QuotientBasis:
    """The quotient basis of one graded piece, computed or loaded.

    In-memory results are memoized per process. With ``cache_dir`` set, a
    versioned JSON copy is loaded if compatible, else computed and saved.
    A copy is compatible only if it names this piece and each of its
    diagrams lies in it.
    """
    _require_piece(space, v=v, l=l, total=total)
    _require_non_negative(max_steps=max_steps)
    key = ("B", v, l) if space == "B" else ("A", total)
    grading = {"v": v, "l": l} if space == "B" else {"total": total}
    qb = _basis_memo.get(key)
    if qb is not None:
        return qb
    if cache_dir:
        payload = cache_mod.load_basis(cache_dir, key)
        if (payload is not None and payload.get("space") == space
                and payload.get("grading") == grading):
            try:
                qb = QuotientBasis.from_payload(payload)
            except (KeyError, TypeError, ValueError, AttributeError, ResourceLimitError):
                pass  # an undecodable payload is a miss: recomputed and overwritten
            if qb is not None and all(d.grading_key() == (*key, 0) for d in qb.diagrams):
                _basis_memo[key] = qb
                return qb
    if space == "B":
        diagrams = enumerate_diagrams("B", v=v, l=l, max_steps=max_steps)
        gens = ihx_generators(diagrams)
    else:
        diagrams = enumerate_diagrams("A", total=total, max_steps=max_steps)
        chords_only = [d for d in diagrams
                       if {d.partner_map[h] for h in d.skeleton} == set(d.skeleton)]
        gens = ihx_generators(chords_only) + stu_generators(diagrams)
    index = {d._key: i for i, d in enumerate(diagrams)}
    rows = [_coordinates(index, g._terms.items()) for g in gens]
    # the reduced form is unique, so the row order changes only the time
    qb = QuotientBasis(space, grading, diagrams, _rref(sorted(rows, key=len)))
    _basis_memo[key] = qb
    if cache_dir:
        cache_mod.save_basis(cache_dir, key, qb.to_payload())
    return qb


def reduce_vector(vec: DiagramVector, cache_dir=None, max_steps=None) -> DiagramVector:
    """Canonical coset representative of an arbitrary vector: split by
    space, grading and loop count, reduce each part, reassemble."""
    _require_non_negative(max_steps=max_steps)
    out = DiagramVector()
    for gkey, part in vec.graded_parts().items():
        if gkey[0] == "B":
            qb = quotient_basis("B", v=gkey[1], l=gkey[2], cache_dir=cache_dir,
                                max_steps=max_steps)
        else:
            qb = quotient_basis("A", total=gkey[1], cache_dir=cache_dir,
                                max_steps=max_steps)
        out = out + qb.reduce(part)
    return out


def equal_mod_relations(v1: DiagramVector, v2: DiagramVector, cache_dir=None) -> bool:
    """Whether two vectors agree modulo antisymmetry and the local relations."""
    return not reduce_vector(v1 - v2, cache_dir=cache_dir)
