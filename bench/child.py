"""One pass of a benchmark workload, in a fresh interpreter started by run.py.

usage: child.py setup|basis|weights CONFIG.json RESULT.json [SPANS.json]
       child.py cli SPANS.json VERB [options]

Every time taken here is CPU time of this process (``process_time``): on
a shared virtual machine the wall clock also counts the time the CPU is
given to other guests, which moved repeated measurements by tens of
percent.  Each pass runs a ``speed.Ticker`` and returns the times of its
operations at reference speed.  With SPANS.json the layer bindings are traced (see spans.py) and the spans are
written there when the pass ends.  ``cli`` is the launcher of traced
CLI calls: it runs ``weightsys.cli.main`` on the remaining arguments with
stdin and stdout untouched and exits with its status.
"""

from __future__ import annotations

import json
import sys
from time import process_time

import spans
from speed import Ticker, tick_scale


def setup(ws, cfg):
    """The workload's set-up: the import (already done), plus the sl3
    build for weights and the cache warm-up for cli-warm."""
    if cfg["workload"] == "weights":
        ws.lie_algebra_from_json(cfg["sl3"])
    elif cfg["workload"] == "cli-warm":
        for space, v, l, total in cfg["pieces"]:
            ws.quotient_basis(space, v=v, l=l, total=total,
                              cache_dir=cfg["cache_dir"])
        ws.run_suite("closure-omega", vmax=4, cache_dir=cfg["cache_dir"])
        ws.run_suite("wheeling", cache_dir=cfg["cache_dir"])
    return {}


def basis(ws, cfg):
    """Quotient bases of the ladder, in order, into an empty cache."""
    pieces, times = [], []
    with spans.phase("ladder"), Ticker() as ticker:
        for space, v, l, total in cfg["ladder"]:
            t0 = process_time()
            qb = ws.quotient_basis(space, v=v, l=l, total=total,
                                   cache_dir=cfg["cache_dir"])
            times.append((t0, process_time()))
            pieces.append([None, qb.dim,
                           [ws.diagram_to_json(d) for d in qb.basis]])
    for piece, (t0, t1) in zip(pieces, times):
        piece[0] = ticker.at_reference(t0, t1)
    return {"pieces": pieces, "scale": tick_scale(ticker.ticks)}


def weights(ws, cfg):
    """sl2 weights one call per diagram, then the two sl3 batch sums,
    repeated for at least ``batch_seconds`` and ``min_batches`` times."""
    g2 = ws.sl2()
    rep2 = g2.representations["fundamental"]
    g3 = ws.lie_algebra_from_json(cfg["sl3"])
    rep3 = g3.representations["fundamental"]
    diagrams = [ws.diagram_from_json(o) for o in cfg["calls"]]
    stu, ihx = (ws.vector_from_json(o) for o in cfg["batch"])
    calls, batches = [], []
    with Ticker() as ticker:
        with spans.phase("per-call"):
            for d in diagrams:
                t0 = process_time()
                if d.space == "A":
                    w = ws.evaluate(d, g2, rep2)
                else:
                    w = ws.evaluate_closed(d, g2)
                calls.append([(t0, process_time()), str(w)])
        with spans.phase("batch"):
            start = process_time()
            while (len(batches) < cfg["min_batches"]
                   or process_time() - start < cfg["batch_seconds"]):
                t0 = process_time()
                a = ws.evaluate(stu, g3, rep3)
                b = ws.evaluate_closed(ihx, g3)
                batches.append([(t0, process_time()), str(a), str(b)])
    for op in calls + batches:
        op[0] = ticker.at_reference(*op[0])
    return {"calls": calls, "batches": batches, "scale": tick_scale(ticker.ticks)}


def launch_cli(spans_path, argv):
    import weightsys.cli
    spans.install()
    try:
        return weightsys.cli.main(argv)
    finally:
        sys.stdout.flush()
        spans.dump(spans_path)


def main(argv):
    if argv[0] == "cli":
        return launch_cli(argv[1], argv[2:])
    mode, cfg_path, out_path = argv[:3]
    spans_path = argv[3] if len(argv) > 3 else None
    with open(cfg_path) as fh:
        cfg = json.load(fh)
    import weightsys as ws
    if spans_path:
        spans.install()
    if mode == "setup":
        with Ticker() as ticker:
            result = setup(ws, cfg)
        # CPU seconds from interpreter start, at reference speed
        result["done"] = ticker.at_reference(0, process_time())
    else:
        result = {"basis": basis, "weights": weights}[mode](ws, cfg)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    if spans_path:
        spans.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
