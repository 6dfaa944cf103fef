"""Seeded inputs for the benchmark: random diagrams, an exact sl3 and the
CLI script.  Everything here is a pure function of the seed it is given.

The diagrams are one fixed population, drawn once from POPULATION_SEED (for
the weights workload in a fixed rotation of shapes: total grading and
vertex count); the run's seed relabels every one of them and draws every
coefficient.  Seeds therefore change every label the program sees, and so
the order of its searches and contraction plans, but not which classes it
evaluates: wiring drawn afresh per seed moved the medians by more than the
benchmark's bounds.
"""

from __future__ import annotations

import random
from fractions import Fraction

import weightsys as ws

# (total grading, vertices) of the circle diagrams: one in twenty-five has
# no skeleton point, the rest have at least two.
CIRCLE_SHAPES = [(t, v) for t in (8, 10, 12) for v in range(1, t - 1)] + [(8, 8)]
CLOSED_VERTICES = (6, 8, 10)
POPULATION_SEED = 20010


def flip_first_vertex(d):
    """The same diagram with its first vertex's cyclic order reversed."""
    t = [tuple(x) for x in d.triples]
    a, b, c = t[0]
    t[0] = (b, a, c)
    return ws.validate(d.space, internal=t, legs=d.legs, skeleton=d.skeleton,
                       pairing=d.pairing, free_loops=d.free_loops)


def random_diagram(rng, space, e=0, v=0, l=0):
    """A diagram with e skeleton points (A) or l legs (B) and v vertices,
    wired by a uniformly random perfect matching of its half-edges and
    written with random labels.  Draws that are zero by antisymmetry are
    rejected and redrawn."""
    n = e + 3 * v + l
    while True:
        labels = rng.sample(range(4 * n), n)
        halves = rng.sample(labels, n)
        pairing = [(halves[i], halves[i + 1]) for i in range(0, n, 2)]
        internal = [tuple(labels[e + 3 * i:e + 3 * i + 3]) for i in range(v)]
        d = ws.validate(space, internal=internal,
                        legs=labels[e + 3 * v:] if space == "B" else (),
                        skeleton=labels[:e] if space == "A" else None,
                        pairing=pairing)
        if ws.canonicalize(d).sign != 0:
            return d


def rational(rng):
    """A nonzero rational with small numerator and denominator."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))


def relabel(rng, d):
    """An isomorphic copy of ``d`` with fresh random labels, rotated
    vertices, shuffled vertex and leg order and a rotated circle."""
    halves = list(d.half_edges())
    new = dict(zip(halves, rng.sample(range(4 * len(halves)), len(halves))))
    triples = []
    for t in d.triples:
        k = rng.randrange(3)
        triples.append(tuple(new[h] for h in t[k:] + t[:k]))
    rng.shuffle(triples)
    legs = [new[h] for h in d.legs]
    rng.shuffle(legs)
    skeleton = None
    if d.skeleton is not None:
        k = rng.randrange(len(d.skeleton)) if d.skeleton else 0
        skeleton = [new[h] for h in d.skeleton[k:] + d.skeleton[:k]]
    return ws.validate(d.space, internal=triples, legs=legs, skeleton=skeleton,
                       pairing=[(new[a], new[b]) for a, b in d.pairing],
                       free_loops=d.free_loops)


def weight_diagrams(rng, count):
    """``count`` legless diagrams of the fixed population, relabeled by
    ``rng``: three circle diagrams (rotating through CIRCLE_SHAPES) to one
    closed diagram (rotating through CLOSED_VERTICES)."""
    pop = random.Random(POPULATION_SEED)
    out = []
    for i in range(count):
        if i % 4 == 3:
            d = random_diagram(pop, "B", v=CLOSED_VERTICES[(i // 4) % 3])
        else:
            total, v = CIRCLE_SHAPES[(i - i // 4) % len(CIRCLE_SHAPES)]
            d = random_diagram(pop, "A", e=total - v, v=v)
        out.append(relabel(rng, d))
    return out


def batch_vectors(rng, diagrams):
    """The two sums the batch pattern evaluates: random multiples of the
    skeleton-resolution generators of one rotation of circle diagrams, and
    of the edge-rewrite generators of one rotation of closed diagrams.
    Every weight system kills both."""
    circle = [d for d in diagrams if d.space == "A"][:len(CIRCLE_SHAPES)]
    closed = [d for d in diagrams if d.space == "B"][:len(CLOSED_VERTICES)]
    stu = ws.DiagramVector()
    for g in ws.stu_generators(circle):
        stu = stu + rational(rng) * g
    ihx = ws.DiagramVector()
    for g in ws.ihx_generators(closed):
        ihx = ihx + rational(rng) * g
    return stu, ihx


def chord():
    """One chord on the circle; its sl2 weight is 3."""
    return ws.validate("A", skeleton=(0, 1), pairing=[(0, 1)])


def cli_script(rng, sl3_path):
    """One pass of the CLI workload: twenty-five calls as (argv, stdin
    object or None).  Like the weights population, the diagrams are fixed
    and relabeled by ``rng``, which also draws the coefficients.  Three of
    the calls are sl3 evaluations, by far the slowest, so the 90th
    percentile of call time falls inside their group, not on its edge."""
    pop = random.Random(POPULATION_SEED)

    def diagram(space, e=0, v=0, l=0):
        return relabel(rng, random_diagram(pop, space, e, v, l))

    def vector(*shapes):
        return ws.vector_to_json(ws.DiagramVector(
            (diagram(*shape), rational(rng)) for shape in shapes))

    script = [
        (["basis", "--space", "A", "--total", "6"], None),
        (["basis", "--space", "B", "--v", "6", "--l", "0"], None),
        (["basis", "--space", "B", "--v", "4", "--l", "2"], None),
    ]
    for shape in [("A", 4, 2), ("A", 3, 3), ("A", 2, 4), ("B", 0, 6), ("B", 0, 6),
                  ("B", 0, 4, 2), ("B", 0, 4, 2), ("B", 0, 4, 2)]:
        script.append((["reduce"], vector(shape, shape, shape)))
    legs = [("B", 0, 2, 4), ("B", 0, 4, 2)]
    for _ in range(2):
        script += [(["chi"], vector(*legs)), (["close"], vector(*legs))]
    script += [
        (["cap"], {"left": vector(("B", 0, 2, 2)), "right": vector(("B", 0, 2, 4))}),
        (["connect-sum"], {"left": vector(("A", 2, 2)), "right": vector(("A", 2, 2))}),
        (["omega", "--vmax", "6"], None),
        (["eval", "--algebra", "sl2"], ws.diagram_to_json(diagram("A", 4, 4))),
        (["eval", "--algebra", "sl2"], ws.diagram_to_json(diagram("B", 0, 6))),
    ]
    for shape in [("A", 2, 2), ("A", 4, 2), ("A", 2, 4)]:
        script.append((["eval", "--algebra", sl3_path], ws.diagram_to_json(diagram(*shape))))
    script += [
        (["verify", "closure-omega", "--vmax", "4"], None),
        (["verify", "wheeling"], None),
    ]
    return script


# ---------------------------------------------------------------------------
# sl3 over the rationals


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _sl3_basis():
    """E_ij for i != j, then H1 = E_11 - E_22 and H2 = E_22 - E_33."""
    basis = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = [[0] * 3 for _ in range(3)]
                m[i][j] = 1
                basis.append(m)
    basis.append([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    basis.append([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    return basis


def _sl3_coords(m):
    """Coordinates of a traceless 3x3 matrix in ``_sl3_basis``."""
    return [m[i][j] for i in range(3) for j in range(3) if i != j] + [m[0][0], -m[2][2]]


def sl3_json() -> dict:
    """sl3 in the exact-rational algebra file format: structure constants
    from commutators, the trace form as metric, and the fundamental
    representation by the basis matrices themselves."""
    basis = _sl3_basis()
    n = len(basis)
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ab, ba = _matmul(basis[i], basis[j]), _matmul(basis[j], basis[i])
            comm = [[ab[r][s] - ba[r][s] for s in range(3)] for r in range(3)]
            for k, x in enumerate(_sl3_coords(comm)):
                c[k][i][j] = x
    metric = [[sum(_matmul(x, y)[r][r] for r in range(3)) for y in basis]
              for x in basis]
    return {"name": "sl3", "dim": n, "structure_constants": c, "metric": metric,
            "representations": {"fundamental": {"dim": 3, "action": basis}}}
