"""Metric Lie algebras, their structure tensors, and exact weight-system
evaluation of diagrams by tensor-network contraction.

Conventions (frozen): each internal vertex contributes the totally
antisymmetric tensor f_{ijk} = b([e_i, e_j], e_k) with indices read in the
vertex's stored cyclic order; each edge contributes the inverse metric
b^{ij}; each skeleton point contributes its representation matrix, the
matrices being multiplied around the circle in skeleton order and traced;
every free loop contributes a factor dim g.  The bare circle therefore
evaluates to dim V.  All arithmetic is exact rational.

The network has one node per vertex and per skeleton point.  An edge's
inverse metric is folded into one of its endpoints, whose axis for that
edge is raised; the edge then joins the two slots directly.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .algebra import _rational, _rref, _terms
from .diagrams import DEFAULT_MAX_STEPS, Diagram, _require_non_negative
from .errors import LieAlgebraError, ResourceLimitError, SpaceMismatchError
from .tensor import (ContractionPlan, SharedMerges, SparseTensor, _contract_pair,
                     contract_network, network_keys, plan_contraction)

_ZERO = Fraction(0)
_ONE = Fraction(1)

DEFAULT_MAX_COST = 50_000_000


def _matrix(rows, n, m, what):
    if not (isinstance(rows, (list, tuple)) and len(rows) == n
            and all(isinstance(r, (list, tuple)) and len(r) == m for r in rows)):
        raise LieAlgebraError(f"{what} must be {n}x{m}")
    return tuple(tuple(_rational(x, LieAlgebraError) for x in r) for r in rows)


class _Value:
    """An immutable value: its fields are set once, by ``__init__``.  It
    compares and hashes by the fields named in ``_compared``, and its hash
    is computed on first use and kept, as the memo keys of evaluation hash
    an algebra on every call."""

    __slots__ = ("_hash",)
    _compared: tuple = ()

    def _init(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _key(self):
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._init(_hash=hash(self._key()))
            return self._hash

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):  # copy and pickle call the constructor
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={x!r}" for name, x in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"


class Representation(_Value):
    """A Lie-algebra representation: one square matrix per basis element."""

    __slots__ = ("dim_V", "action")
    _compared = __slots__

    def __init__(self, dim_V: int, action: tuple):
        # action: dim matrices, each dim_V x dim_V
        self._init(dim_V=dim_V, action=action)


class MetricLieAlgebra(_Value):
    """Structure constants c^k_{ij}, an invariant metric, and named reps.
    Equality and hash read the first three fields only."""

    __slots__ = ("dim", "structure_constants", "metric", "representations", "name")
    _compared = ("dim", "structure_constants", "metric")

    def __init__(self, dim: int, structure_constants: tuple, metric: tuple,
                 representations: dict | None = None, name: str = ""):
        # structure_constants: c[k][i][j]; metric: b[i][j]
        self._init(dim=dim, structure_constants=structure_constants, metric=metric,
                   representations={} if representations is None else representations,
                   name=name)


class StructureTensors(NamedTuple):
    """The covariant bracket tensor and the inverse metric."""

    f: dict      # (i, j, k) -> Fraction, totally antisymmetric
    c_up: tuple  # b^{ij}


# ---------------------------------------------------------------------------
# validation


def check_lie(g: MetricLieAlgebra):
    """(True, None) when all invariants hold, else (False, description)."""
    n = g.dim
    c = g.structure_constants
    b = g.metric
    if n <= 0:
        return False, "dim must be positive"
    if len(c) != n or any(len(ck) != n or any(len(r) != n for r in ck) for ck in c):
        return False, "structure constants must be dim^3"
    if len(b) != n or any(len(r) != n for r in b):
        return False, "metric must be dim x dim"
    ct = _structure(g)  # (m, i, j) -> c^m_{ij}
    bad = _least_unantisymmetric(ct)
    if bad is not None:
        return False, "antisymmetry fails at c^{}_{{{}{}}}".format(*bad)
    for i in range(n):
        for j in range(n):
            if b[i][j] != b[j][i]:
                return False, f"metric not symmetric at ({i},{j})"
    if _inverse_metric(g) is None:
        return False, "metric is singular"
    # Jacobi: the cyclic sum over (i, j, k) of sum over m of c^m_{ij} c^l_{mk},
    # the entry (i, j, l, k) of c contracted with c over m; only whether a
    # sum is zero is read, so the numerators over one denominator are summed
    jac = defaultdict(int)
    for (i, j, l, k), v in _contract_pair(ct, ct, (0,), (1,)).nums.items():
        for key in ((i, j, k, l), (k, i, j, l), (j, k, i, l)):
            jac[key] += v
    bad = min((key for key, v in jac.items() if v), default=None)
    if bad is not None:
        return False, "Jacobi fails at (i,j,k,l)=({},{},{},{})".format(*bad)
    # invariance, b being symmetric: f_{ijk} = sum over m of c^m_{ij} b_{mk}
    # is antisymmetric in j, k
    bad = _least_unantisymmetric(_lowered(g))
    if bad is not None:
        return False, "metric invariance fails at ({},{},{})".format(*bad)
    return True, None


def check_representation(g: MetricLieAlgebra, rep: Representation):
    """(True, None) when rho([x,y]) = rho(x)rho(y) - rho(y)rho(x)."""
    n, m = g.dim, rep.dim_V
    if len(rep.action) != n:
        return False, "representation needs one matrix per basis element"
    for mat in rep.action:
        if len(mat) != m or any(len(r) != m for r in mat):
            return False, "representation matrices must be dim_V square"
    # (i, j, r, s) -> entry (r, s) of rho_i rho_j - rho_j rho_i - sum over k of
    # c^k_{ij} rho_k for i < j, read off rho rho, whose (i, r, j, s) is
    # (rho_i rho_j)[r, s], and off c rho, whose (i, j, r, s) is the sum
    rho = _action(rep)
    acc = defaultdict(int)
    for (i, r, j, s), v in _contract_pair(rho, rho, (2,), (1,)).data.items():
        if i != j:
            acc[min(i, j), max(i, j), r, s] += v if i < j else -v
    for (i, j, r, s), v in _contract_pair(_structure(g), rho, (0,), (0,)).data.items():
        if i < j:
            acc[i, j, r, s] -= v
    bad = min((key[:2] for key, v in acc.items() if v), default=None)
    if bad is not None:
        return False, "representation fails on bracket ({},{})".format(*bad)
    return True, None


def _sparse(shape, rows) -> SparseTensor:
    """The nested tuple ``rows`` of ``shape`` as a SparseTensor, built from
    its nonzero entries only."""
    data = {(): rows}
    for _ in shape:
        data = {k + (i,): x for k, row in data.items() for i, x in enumerate(row) if x}
    return SparseTensor(shape, data)


# One algebra's tensors, each built once: memoized by value and read by the
# checks and by ``_node_tensors`` alike, once the structure constants are
# known to be dim^3 and the metric dim x dim.  ``_node_tensors`` is the one
# memo that checks an algebra, or a representation of it, and holds the
# node tensors of evaluations against them; it raises the axes of f once
# per entry, so each (g, rep) entry raises them again for itself.


@lru_cache(maxsize=None)
def _structure(g: MetricLieAlgebra) -> SparseTensor:
    """g's structure constants, (m, i, j) -> c^m_{ij}."""
    return _sparse((g.dim,) * 3, g.structure_constants)


@lru_cache(maxsize=None)
def _lowered(g: MetricLieAlgebra) -> SparseTensor:
    """f_{ijk} = sum over m of c^m_{ij} b_{mk}."""
    return _contract_pair(_structure(g), _sparse((g.dim,) * 2, g.metric), (0,), (0,))


@lru_cache(maxsize=None)
def _inverse_metric(g: MetricLieAlgebra):
    """The inverse of g's metric, or None when it is singular."""
    return _invert(g.metric)


@lru_cache(maxsize=None)
def _action(rep: Representation) -> SparseTensor:
    """rep's matrices, (i, r, s) -> entry (r, s) of rho_i, once they are
    known to be one dim_V square matrix per basis element."""
    return _sparse((len(rep.action), rep.dim_V, rep.dim_V), rep.action)


def _least_unantisymmetric(t: SparseTensor):
    """The least index (x, y, z) with t[x, y, z] + t[x, z, y] nonzero, or
    None.  Such indices come in swapped pairs, one of them held by t.  The
    sums are of t's numerators over its one denominator."""
    nums = t.nums
    return min((min(k, (k[0], k[2], k[1])) for k, v in nums.items()
                if v + nums.get((k[0], k[2], k[1]), 0)), default=None)


def _invert(m):
    """Exact inverse read off the reduced rows of [m | I], or None when
    singular (some column of m has no pivot)."""
    n = len(m)
    rows = _rref([{**dict(enumerate(r)), n + i: _ONE} for i, r in enumerate(m)])
    if any(c not in rows for c in range(n)):
        return None
    return tuple(tuple(rows[c].get(n + j, _ZERO) for j in range(n)) for c in range(n))


# ---------------------------------------------------------------------------
# structure tensors


def derive_tensors(g: MetricLieAlgebra) -> StructureTensors:
    """f_{ijk} = b([e_i, e_j], e_k) and the inverse metric of a valid g."""
    _node_tensors(g, None)
    # f keyed in sorted (i, j, k) order
    return StructureTensors(f=dict(sorted(_lowered(g).data.items())),
                            c_up=_inverse_metric(g))


# ---------------------------------------------------------------------------
# built-in algebras


def sl2() -> MetricLieAlgebra:
    """sl2 over the rationals: basis (h, e, f), trace-form metric, and its
    two-dimensional fundamental representation."""
    n = 3
    c = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]

    def setb(i, j, k, v):
        c[k][i][j] = Fraction(v)
        c[k][j][i] = Fraction(-v)

    setb(0, 1, 1, 2)    # [h, e] = 2e
    setb(0, 2, 2, -2)   # [h, f] = -2f
    setb(1, 2, 0, 1)    # [e, f] = h
    metric = ((Fraction(2), _ZERO, _ZERO),
              (_ZERO, _ZERO, _ONE),
              (_ZERO, _ONE, _ZERO))
    fund = Representation(2, (
        ((_ONE, _ZERO), (_ZERO, Fraction(-1))),
        ((_ZERO, _ONE), (_ZERO, _ZERO)),
        ((_ZERO, _ZERO), (_ONE, _ZERO)),
    ))
    return MetricLieAlgebra(
        dim=3,
        structure_constants=tuple(tuple(tuple(r) for r in ck) for ck in c),
        metric=metric,
        representations={"fundamental": fund},
        name="sl2")


def abelian(dim: int) -> MetricLieAlgebra:
    """The abelian algebra of a given dimension with the identity metric
    and a one-dimensional trivial representation."""
    if dim < 1:
        raise LieAlgebraError("dim must be positive")
    zero3 = tuple(tuple(tuple(_ZERO for _ in range(dim))
                        for _ in range(dim)) for _ in range(dim))
    metric = tuple(tuple(_ONE if i == j else _ZERO for j in range(dim))
                   for i in range(dim))
    triv = Representation(1, tuple(((_ZERO,),) for _ in range(dim)))
    return MetricLieAlgebra(dim=dim, structure_constants=zero3, metric=metric,
                            representations={"trivial": triv},
                            name=f"abelian{dim}")


def builtin_algebra(name: str) -> MetricLieAlgebra:
    """Resolve a built-in algebra name: 'sl2' or 'abelian<k>'.  An
    'abelian<k>' whose k^3 dense structure constants (all scanned by
    ``check_lie``) pass ``DEFAULT_MAX_STEPS`` raises ``ResourceLimitError``
    before anything is built."""
    if name == "sl2":
        return sl2()
    if name.startswith("abelian"):
        digits = name[len("abelian"):] or "1"
        k = int(digits) if digits.isdecimal() else 0
        if k ** 3 > DEFAULT_MAX_STEPS:
            raise ResourceLimitError(
                f"{name} has more than {DEFAULT_MAX_STEPS} structure constants")
        if k:
            return abelian(k)
    raise LieAlgebraError(f"unknown built-in algebra {name!r}")


# ---------------------------------------------------------------------------
# JSON loader


def lie_algebra_from_json(obj) -> MetricLieAlgebra:
    """Read {"dim", "structure_constants", "metric", "representations"} with
    every scalar an integer or an exact 'p/q' string; floats are rejected."""
    if not isinstance(obj, dict):
        raise LieAlgebraError("algebra file must hold a JSON object")
    try:
        dim = obj["dim"]
    except KeyError as exc:
        raise LieAlgebraError("missing field 'dim'") from exc
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise LieAlgebraError("'dim' must be a positive integer")
    sc = obj.get("structure_constants")
    if not isinstance(sc, list) or len(sc) != dim:
        raise LieAlgebraError("'structure_constants' must list dim matrices")
    structure = tuple(_matrix(ck, dim, dim, "each structure constant slice")
                      for ck in sc)
    metric = _matrix(obj.get("metric", ()), dim, dim, "'metric'")
    entries = obj.get("representations", {})
    if not isinstance(entries, dict):
        raise LieAlgebraError("'representations' must be an object")
    reps = {}
    for name, entry in entries.items():
        if not isinstance(entry, dict):
            raise LieAlgebraError(f"representation {name!r} must be an object")
        dv = entry.get("dim")
        if not isinstance(dv, int) or isinstance(dv, bool) or dv < 1:
            raise LieAlgebraError(f"representation {name!r} needs a positive 'dim'")
        action = entry.get("action")
        if not isinstance(action, list) or len(action) != dim:
            raise LieAlgebraError(
                f"representation {name!r} needs one matrix per basis element")
        reps[name] = Representation(
            dv, tuple(_matrix(m, dv, dv, f"representation {name!r} matrix")
                      for m in action))
    g = MetricLieAlgebra(dim=dim, structure_constants=structure, metric=metric,
                         representations=reps, name=str(obj.get("name", "")))
    _node_tensors(g, None)
    for name, rep in reps.items():
        try:
            _node_tensors(g, rep)
        except LieAlgebraError as exc:
            raise LieAlgebraError(f"{name}: {exc}") from None
    return g


def resolve_algebra(source) -> MetricLieAlgebra:
    """A MetricLieAlgebra as given, else the algebra in the file at path
    ``source``, else the built-in algebra of that name."""
    if isinstance(source, MetricLieAlgebra):
        return source
    if not isinstance(source, str):
        raise LieAlgebraError("expected an algebra name, file path or MetricLieAlgebra")
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise LieAlgebraError(
                f"cannot read algebra file {source!r}: {exc.strerror}") from None
        return lie_algebra_from_json(obj)
    return builtin_algebra(source)


def resolve_representation(g: MetricLieAlgebra,
                           name: str | None = None) -> Representation | None:
    """The representation of g called ``name``; with no name, the one
    called 'fundamental', else the first by name, else None."""
    reps = g.representations
    if name is None:
        if not reps:
            return None
        name = "fundamental" if "fundamental" in reps else min(reps)
    if name not in reps:
        raise LieAlgebraError(f"unknown representation {name!r}")
    return reps[name]


def _scalar_text(x: Fraction) -> object:
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def lie_algebra_to_json(g: MetricLieAlgebra) -> dict:
    """Emit the exact-rational file format read by lie_algebra_from_json."""
    out = {
        "dim": g.dim,
        "structure_constants": [[[_scalar_text(x) for x in row] for row in ck]
                                for ck in g.structure_constants],
        "metric": [[_scalar_text(x) for x in row] for row in g.metric],
    }
    if g.name:
        out["name"] = g.name
    if g.representations:
        out["representations"] = {
            name: {"dim": rep.dim_V,
                   "action": [[[_scalar_text(x) for x in row] for row in mat]
                              for mat in rep.action]}
            for name, rep in g.representations.items()}
    return out


# ---------------------------------------------------------------------------
# the tensor network of a diagram


def _network(d: Diagram, dim_g: int, dim_V: int):
    """Nodes and wiring for one diagram: f per vertex, rho per skeleton
    point, and one direct edge per pairing (h1, h2).  The edge's inverse
    metric b^{ij} is folded into the node holding h2, whose axis for h2 is
    raised.  Returns (shapes, edges, kinds), where kinds[n] is
    ("f" or "rho", raised axes of node n), so planning can happen without
    materializing tensors."""
    slot_owner = {}
    shapes = []
    for t in d.triples:
        for ax, h in enumerate(t):
            slot_owner[h] = (len(shapes), ax)
        shapes.append((dim_g, dim_g, dim_g))
    skeleton = d.skeleton or ()
    for h in skeleton:
        slot_owner[h] = (len(shapes), 0)
        shapes.append((dim_g, dim_V, dim_V))
    raised = [[] for _ in shapes]
    edges = []
    for h1, h2 in d.pairing:
        node, ax = slot_owner[h2]
        raised[node].append(ax)
        edges.append((slot_owner[h1], (node, ax)))
    nv, nsk = len(d.triples), len(skeleton)
    for pos in range(nsk):
        edges.append(((nv + pos, 2), (nv + (pos + 1) % nsk, 1)))
    kinds = [("f" if node < nv else "rho", tuple(sorted(axes)))
             for node, axes in enumerate(raised)]
    return shapes, edges, kinds


class _NodeTensors(dict):
    """A kind of ``_network`` -> its SparseTensor, each built on first
    lookup from ``base``: f, and rho when a representation is given, with
    the axes the kind lists raised by ``up``, the tensor of b^{ij}."""

    def __init__(self, up: SparseTensor, base: dict):
        super().__init__()
        self.up = up
        self.base = base

    def __missing__(self, kind):
        name, raised = kind
        t = self.base[name]
        for ax in raised:
            # raising axis ax sums it against b^{ij}: the raised axis comes
            # out last and is moved back to ax
            up = _contract_pair(t, self.up, (ax,), (0,))
            t = SparseTensor(t.shape, {k[:ax] + k[-1:] + k[ax:-1]: v
                                       for k, v in up.data.items()})
        self[kind] = t
        return t


@lru_cache(maxsize=None)
def _node_tensors(g: MetricLieAlgebra, rep: Representation | None) -> _NodeTensors:
    """The node tensors of evaluations against g, and rep when not None,
    after checking them: g by ``check_lie``; rep by the (g, None) entry
    first, then ``check_representation``.  The one memo of checked
    algebras, by value, as validity reads only frozen, compared fields;
    failures raise LieAlgebraError on every call.  f, b^{ij} and rho are
    built once per algebra or representation; a raised f is built once
    per entry."""
    if rep is not None:
        plain = _node_tensors(g, None)
        ok, detail = check_representation(g, rep)
    else:
        ok, detail = check_lie(g)
    if not ok:
        raise LieAlgebraError(detail)
    if rep is not None:
        return _NodeTensors(plain.up, {**plain.base, "rho": _action(rep)})
    return _NodeTensors(_sparse((g.dim,) * 2, _inverse_metric(g)), {"f": _lowered(g)})


@lru_cache(maxsize=4096)
def _plan(d: Diagram, dim_g: int, dim_V: int):
    """``(kinds, plan, keys)`` of the network of ``d``: its node kinds, its
    plan and its ``network_keys``, the nodes named by their kinds, so that
    equal kinds stand for equal node tensors.  The network is planned and
    compiled here, once per term as labeled, with no canonical search, so
    a vector evaluated again builds, plans and compiles nothing.  The
    bound is a few times the distinct terms of a weights pass."""
    shapes, edges, kinds = _network(d, dim_g, dim_V)
    plan = plan_contraction(shapes, edges)
    return kinds, plan, network_keys(kinds, shapes, edges, plan)


def contraction_plan(d: Diagram, dims) -> ContractionPlan:
    """Plan the contraction of one diagram's network, as evaluation does.

    ``dims`` is exactly (dim_g,) for a leg-space diagram and (dim_g, dim_V)
    for a circle-space one, with positive integers; anything else raises
    ValueError.
    """
    dims = tuple(dims)
    want = 2 if d.space == "A" else 1
    if len(dims) != want or not all(type(x) is int and x > 0 for x in dims):
        shape = "(dim_g, dim_V)" if want == 2 else "(dim_g,)"
        raise ValueError(f"a {d.space}-space diagram is planned with dims "
                         f"{shape}, not {dims!r}")
    return _plan(d, dims[0], dims[1] if want == 2 else 1)[1]


def _evaluate_vector(x, space: str, g: MetricLieAlgebra,
                     rep: Representation | None, max_cost: int) -> Fraction:
    """Weight of x, each term's network planned and contracted as labeled.
    Every term is checked and planned before any is contracted.  Each
    network runs its merges in order, bottom-up.  When two or more terms
    have networks, they share one ``SharedMerges``, so a merge they have
    in common is contracted at its first visit in this call and read back
    at the others."""
    _require_non_negative(max_cost=max_cost)
    nodes = _node_tensors(g, rep)
    dim_V = rep.dim_V if rep else 1
    limit = sys.get_int_max_str_digits()
    total = _ZERO
    networks = []
    for d, coeff in _terms(x):
        if d.space != space:
            what = "circle-space" if space == "A" else "leg-space"
            raise SpaceMismatchError(f"this evaluation acts on {what} diagrams")
        if d.l:
            raise SpaceMismatchError("closed evaluation needs all legs closed off"
                                     if space == "B" else
                                     "weights are defined for legless diagrams")
        if d.free_loops and limit and g.dim > 1 and d.free_loops >= limit / math.log10(g.dim):
            raise ResourceLimitError(
                f"dim g to the power of the free-loop count has more than {limit} digits")
        # with no circle point the circle's trace is that of the identity
        value = Fraction(dim_V) if space == "A" and not d.skeleton else _ONE
        value *= coeff * Fraction(g.dim) ** d.free_loops
        if not d.pairing:
            total += value
            continue
        kinds, plan, keys = _plan(d, g.dim, dim_V)
        if plan.cost > max_cost:
            raise ResourceLimitError(
                f"planned contraction cost {plan.cost} exceeds the bound {max_cost}")
        networks.append((value, kinds, keys))
    memo = None
    if len(networks) > 1:
        memo = SharedMerges([keys for _, _, keys in networks])
    for n, (value, kinds, keys) in enumerate(networks):
        shared = None if memo is None else (memo, n)
        weight = contract_network([nodes[k] for k in kinds], keys, shared)
        total += value * weight.item()
    return total


def evaluate(x, g: MetricLieAlgebra, rep: Representation, *,
             max_cost: int = DEFAULT_MAX_COST) -> Fraction:
    """Weight of a circle-space diagram or vector against (g, rep)."""
    if rep is None:
        raise LieAlgebraError("circle-space evaluation needs a representation")
    return _evaluate_vector(x, "A", g, rep, max_cost)


def evaluate_closed(x, g: MetricLieAlgebra, *,
                    max_cost: int = DEFAULT_MAX_COST) -> Fraction:
    """Weight of a closed leg-space diagram or vector against g alone."""
    return _evaluate_vector(x, "B", g, None, max_cost)
