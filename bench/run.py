"""The weightsys benchmark: one workload per run, every answer checked exactly.

usage: python3 bench/run.py --workload {basis-cold,weights,cli-warm}
                            --seed N --seconds S --trace {0,1}

Run it from any directory of a source checkout; the package is taken from
``src/`` beside this directory.  Each pass of a workload runs in a fresh
interpreter (``child.py``, or ``python -m weightsys.cli``), one process at
a time, with an empty cache directory under ``.bench_tmp/`` passed to it
explicitly.  Inputs come from ``inputs.py`` and the seed, and are made
before anything is timed.

Times are CPU seconds of the measured process, scaled to a reference speed
by the ticks of a ``speed.Ticker`` that runs in it (see speed.py): this
benchmark was built on a virtual machine whose CPUs are shared with other
guests, where the wall clock of one fixed computation spread by 40% within
a minute, and even its CPU time moved by 20-30% between runs a few minutes
apart.  CLI calls get their ticker from ``clisite/sitecustomize.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json.  With ``--trace 1`` every pass
runs once untraced and once traced, and the metrics are the per-layer ones.
README.md defines every metric.  The lines before the JSON are a report
for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
CLISITE = BENCH / "clisite"
CHILD_TIMEOUT = 150

# The ladder of basis-cold, in the order it runs: the in-process memos are
# shared across pieces, so the order is part of the workload.  Pieces with
# v + l odd are empty by parity and left out.
LADDER = ([("A", None, None, t) for t in (0, 2, 4, 6)]
          + [("B", v, n - v, None) for n in range(0, 9, 2)
             for v in range(0, min(6, n) + 1)])
# Dimensions of the ladder's pieces, pinned from the seed.
DIMS = {("A", 0): 1, ("A", 2): 2, ("A", 4): 5, ("A", 6): 10,
        ("B", 0, 0): 1, ("B", 0, 2): 1, ("B", 1, 1): 0, ("B", 2, 0): 1,
        ("B", 0, 4): 1, ("B", 1, 3): 0, ("B", 2, 2): 2, ("B", 3, 1): 0,
        ("B", 4, 0): 2, ("B", 0, 6): 1, ("B", 1, 5): 0, ("B", 2, 4): 2,
        ("B", 3, 3): 0, ("B", 4, 2): 4, ("B", 5, 1): 0, ("B", 6, 0): 3,
        ("B", 0, 8): 1, ("B", 1, 7): 0, ("B", 2, 6): 2, ("B", 3, 5): 0,
        ("B", 4, 4): 6, ("B", 5, 3): 0, ("B", 6, 2): 7}
# Cold passes of the ladder in an untraced basis-cold run, at least.  The
# pieces near the median take about 5 ms, and their CPU time moves by 20%
# from one fresh interpreter to the next, even with a fixed hash seed: over
# one pass the median piece spread by up to 0.23 between runs, over two
# by 0.10.
BASIS_PASSES = 2
# Pieces the cli-warm script reads, warmed during set-up.
CLI_PIECES = [("A", None, None, 6), ("B", 6, 0, None), ("B", 4, 2, None)]
# Enough calls that the 90th percentile has ten samples beyond it.
MIN_CALLS = 100

END_TO_END = [("setup_s", "s"), ("work_cpu_s", "s"), ("op_cpu_ms.p50", "ms"),
              ("op_cpu_ms.p90", "ms"), ("peak_rss_mb", "MB")]
PER_LAYER = [
    ("diagrams.canonicalize.s", "s"), ("diagrams.canonicalize.calls", "count"),
    ("diagrams.enumerate.self_s", "s"), ("diagrams.classes_per_canon", "ratio"),
    ("algebra.generators.s", "s"), ("algebra.generators.count", "count"),
    ("algebra.eliminate.self_s", "s"), ("algebra.pivot_ratio", "ratio"),
    ("algebra.reduce.s", "s"),
    ("cache.save.s", "s"), ("cache.bytes_written", "bytes"),
    ("cache.load.s", "s"), ("cache.load.calls", "count"),
    ("cache.load.hit_ratio", "ratio"),
    ("maps.chi.self_s", "s"), ("maps.closure.self_s", "s"),
    ("maps.cap.self_s", "s"), ("maps.omega.self_s", "s"),
    ("maps.terms_out", "count"),
    ("lie.validate.s", "s"), ("lie.validate.calls", "count"),
    ("lie.derive_tensors.s", "s"),
    ("lie.evaluate.self_s", "s"), ("lie.evaluate.calls", "count"),
    ("tensor.plan.s", "s"), ("tensor.plan.calls", "count"),
    ("tensor.plan.cost_sum", "count"),
    ("tensor.contract.s", "s"), ("tensor.contract.calls", "count"),
    ("cli.main_ms", "ms"), ("cli.startup_ms", "ms"), ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
]

# One pass of a workload: whether it was traced, its CPU seconds at
# reference speed, a digest of its answers, the span lists of its
# processes, and the factor that brought its CPU times to reference speed.
Pass = namedtuple("Pass", "traced work digest spans scale")


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def strip_seconds(obj):
    """A verify report without its timing fields."""
    if isinstance(obj, dict):
        return {k: strip_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [strip_seconds(v) for v in obj]
    return obj


class Run:
    """One benchmark run: its temporary directory, its children, and the
    operations it attempted and saw fail."""

    def __init__(self, args, tmp):
        self.args = args
        self.tmp = tmp
        self.rng = random.Random(args.seed)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.rss_kb = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("WEIGHTSYS_CACHE", "XDG_CACHE_HOME", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self._n = 0

    def path(self, stem):
        self._n += 1
        return str(self.tmp / f"{self._n:04d}-{stem}")

    def fresh_dir(self):
        p = self.path("cache")
        os.mkdir(p)
        return p

    def spawn(self, argv, stdin_path=None, measured=True, env=None):
        """Run one child to its end; returns (exit status, its CPU seconds,
        its stdout).  Its peak RSS counts when ``measured``.  ``env`` is
        added to the child's environment."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(stdin_path or os.devnull, "rb") as fin, \
                open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
            proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr,
                                    env={**self.env, **(env or {})}, cwd=self.tmp)
            watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if measured:
            self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
        err = Path(err_path).read_text()
        if "Traceback" in err:
            sys.stderr.write(err)
        return proc.returncode, usage.ru_utime + usage.ru_stime, Path(out_path).read_bytes()

    def child(self, mode, cfg, traced=False, measured=True):
        """Run child.py in ``mode``; returns (result, spans or None).  A
        child that fails means a broken benchmark, not a wrong answer, and
        aborts the run."""
        cfg_path, out_path = self.path("config.json"), self.path("result.json")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        argv = [sys.executable, str(CHILD), mode, cfg_path, out_path]
        if traced:
            argv.append(self.path("spans.json"))
        status, _, _ = self.spawn(argv, measured=measured)
        if status != 0:
            raise RuntimeError(f"child {mode} exited with status {status}")
        result = json.loads(Path(out_path).read_text())
        return result, json.loads(Path(argv[-1]).read_text()) if traced else None

    def setups(self, count, cfg):
        """CPU seconds at reference speed of ``count`` fresh set-ups, each
        from interpreter start to the end of the workload's set-up, and the
        cache directory the last one used."""
        seconds = []
        for _ in range(count):
            cache = self.fresh_dir()
            result, _ = self.child("setup", dict(cfg, cache_dir=cache), measured=False)
            seconds.append(result["done"])
        return seconds, cache

    def check(self, ok, ops, what):
        """Count ``ops`` attempted operations, all failed unless ``ok``."""
        self.attempted += ops
        if not ok:
            self.failed += ops
            self.problems.append(what)


def modes(run):
    return (False, True) if run.args.trace else (False,)


# ---------------------------------------------------------------------------
# workloads: each returns (end-to-end values, report lines, passes, and
# per-layer values measured outside the spans)


def basis_cold(run):
    setups = [] if run.args.trace else run.setups(5, {"workload": "basis-cold"})[0]
    passes, piece_ms = [], []
    min_passes = 1 if run.args.trace else BASIS_PASSES
    start = perf_counter()
    for traced in modes(run):
        while True:
            cfg = {"ladder": LADDER, "cache_dir": run.fresh_dir()}
            res, spans = run.child("basis", cfg, traced)
            seconds = [p[0] for p in res["pieces"]]
            dims = {}
            for (space, v, l, total), (_, dim, _) in zip(LADDER, res["pieces"]):
                key = (space, total) if space == "A" else (space, v, l)
                dims[key] = dim
                run.check(dim == DIMS[key], 1, f"dimension of {key}")
            for n in (0, 2, 4, 6):
                run.check(sum(dims[("B", v, n - v)] for v in range(n + 1))
                          == dims[("A", n)], 0, f"sum of B dimensions at total {n}")
            if not traced:
                piece_ms += [sec * 1e3 for sec in seconds]
            passes.append(Pass(traced, sum(seconds), digest([p[1:] for p in res["pieces"]]),
                               [spans] if traced else [], res["scale"]))
            # another cold pass while an untraced run has fewer than
            # BASIS_PASSES, or if it fits in the run's seconds
            if traced or (len(passes) >= min_passes and perf_counter() - start
                          + passes[-1].work > run.args.seconds):
                break
    works = [p.work for p in passes if not p.traced]
    values = {"setup_s": statistics.median(setups or [0]),
              "work_cpu_s": statistics.median(works),
              "op_cpu_ms.p50": statistics.median(piece_ms),
              "op_cpu_ms.p90": p90(piece_ms)}
    lines = [f"setup_s        median of {len(setups)} set-ups: interpreter and import",
             f"work_cpu_s     basis_ladder_s: the whole ladder, median of {len(works)} pass(es)",
             f"op_cpu_ms.*    one quotient_basis call, n={len(piece_ms)} pieces"]
    return values, lines, passes, {}


def weights(run):
    import inputs
    import weightsys as ws
    # about half of --seconds of sl2 calls, two per diagram
    count = max(8, round(7.5 * run.args.seconds))
    diagrams = inputs.weight_diagrams(run.rng, count)
    stu, ihx = inputs.batch_vectors(run.rng, diagrams)
    calls = [inputs.chord(), ws.theta()]
    for d in diagrams:
        calls += [d, inputs.flip_first_vertex(d)]
    sl3 = inputs.sl3_json()
    cfg = {"sl3": sl3, "calls": [ws.diagram_to_json(d) for d in calls],
           "batch": [ws.vector_to_json(stu), ws.vector_to_json(ihx)],
           "batch_seconds": run.args.seconds / (4 if run.args.trace else 2),
           "min_batches": 2 if run.args.trace else 3}
    setups = [] if run.args.trace else run.setups(3, {"workload": "weights", "sl3": sl3})[0]
    passes, call_ms, batch_s = [], [], []
    for traced in modes(run):
        res, spans = run.child("weights", cfg, traced)
        values = [v for _, v in res["calls"]]
        run.check(values[0] == "3", 1, "sl2 weight of the chord")
        run.check(values[1] == "-12", 1, "sl2 weight of theta")
        for i in range(2, len(values), 2):
            run.check(Fraction(values[i + 1]) == -Fraction(values[i]), 2,
                      f"weight of the reversed copy of call {i}")
        for _, a, b in res["batches"]:
            run.check(a == "0", 1, "sl3 weight of the skeleton-resolution sum")
            run.check(b == "0", 1, "sl3 weight of the edge-rewrite sum")
        calls_s = [sec for sec, _ in res["calls"]]
        batches_s = [sec for sec, _, _ in res["batches"]]
        if not traced:
            call_ms += [sec * 1e3 for sec in calls_s]
            batch_s += batches_s
        passes.append(Pass(traced, sum(calls_s) + statistics.median(batches_s),
                           digest([values, res["batches"][0][1:]]),
                           [spans] if traced else [], res["scale"]))
    values = {"setup_s": statistics.median(setups or [0]),
              "work_cpu_s": statistics.median(batch_s or [0]),
              "op_cpu_ms.p50": statistics.median(call_ms or [0]),
              "op_cpu_ms.p90": p90(call_ms) if call_ms else 0}
    lines = [f"setup_s        median of {len(setups)} set-ups: interpreter, import, sl3 build",
             f"work_cpu_s     eval_batch_s: both sl3 batch calls ({len(stu)} + {len(ihx)} "
             f"terms), median of {len(batch_s)}",
             f"op_cpu_ms.*    eval_call_ms: one sl2 evaluate call, n={len(call_ms)}"]
    return values, lines, passes, {}


def cli_warm(run):
    import inputs
    import weightsys as ws
    sl3_path = run.path("sl3.json")
    sl3 = inputs.sl3_json()
    Path(sl3_path).write_text(json.dumps(sl3))
    script = inputs.cli_script(run.rng, sl3_path)
    expected = [expected_answer(ws, argv, stdin, sl3) for argv, stdin in script]
    stdin_paths = []
    for _, stdin in script:
        stdin_paths.append(run.path("stdin.json"))
        Path(stdin_paths[-1]).write_text("" if stdin is None else json.dumps(stdin))
    setups, cache = run.setups(1 if run.args.trace else 3,
                               {"workload": "cli-warm", "pieces": CLI_PIECES})
    passes, call_ms, main_ms, startup_ms, out_bytes = [], [], [], [], []
    start = perf_counter()
    traced = False
    while (len(passes) * len(script) < MIN_CALLS
           or perf_counter() - start < run.args.seconds):
        span_lists, times, outs, ticks = [], [], [], []
        for (argv, _), want, stdin_path in zip(script, expected, stdin_paths):
            args = [*argv, "--cache-dir", cache]
            if traced:
                span_path = run.path("spans.json")
                cmd = [sys.executable, str(CHILD), "cli", span_path, *args]
            else:
                cmd = [sys.executable, "-m", "weightsys.cli", *args]
            ticks_path = run.path("ticks.json")
            status, sec, out = run.spawn(cmd, stdin_path, env={
                "PYTHONPATH": f"{SRC}{os.pathsep}{CLISITE}",
                "WEIGHTSYS_BENCH_TICKS": ticks_path})
            call_ticks = json.loads(Path(ticks_path).read_text())
            ticks += call_ticks
            own = sec - sum(b - a for a, b in call_ticks)
            try:
                got = strip_seconds(json.loads(out))
            except ValueError:
                got = None
            run.check(status == 0 and got == want, 1, f"cli {' '.join(argv[:2])}")
            outs.append(got)
            times.append(own * speed.tick_scale(call_ticks))
            if traced:
                spans = json.loads(Path(span_path).read_text())
                # the whole call becomes the root span; what the child's
                # own spans leave of it is start-up and exit
                span_lists.append([["phase.cli", 0.0, own, -1, None]]
                                  + [[u, a, b, p + 1, n] for u, a, b, p, n in spans])
                main = sum(b - a for u, a, b, p, _ in spans if u == "cli.main" and p < 0)
                main_ms.append(main * 1e3)
                startup_ms.append((own - main) * 1e3)
                out_bytes.append(len(out))
        if not traced:
            call_ms += [sec * 1e3 for sec in times]
        passes.append(Pass(traced, sum(times), digest(outs), span_lists,
                           speed.tick_scale(ticks)))
        traced = bool(run.args.trace) and not traced
    works = [p.work for p in passes if not p.traced]
    values = {"setup_s": statistics.median(setups),
              "work_cpu_s": statistics.median(works),
              "op_cpu_ms.p50": statistics.median(call_ms),
              "op_cpu_ms.p90": p90(call_ms) if len(call_ms) > 1 else 0}
    lines = [f"setup_s        median of {len(setups)} set-ups: interpreter, import, cache warm-up",
             f"work_cpu_s     one pass of the {len(script)}-call script, median of {len(works)}",
             f"op_cpu_ms.*    cli_call_ms: one CLI call, spawn to exit, n={len(call_ms)}"]
    layers = {"cli.main_ms": statistics.median(main_ms or [0]),
              "cli.startup_ms": statistics.median(startup_ms or [0]),
              "cli.stdout_bytes": statistics.mean(out_bytes or [0])}
    return values, lines, passes, layers


def expected_answer(ws, argv, stdin, sl3):
    """The library's in-process answer to one CLI call, computed without a
    cache, in the form the CLI prints."""
    verb = argv[0]
    opt = dict(zip(argv[1::2], argv[2::2]))
    as_int = {k: int(v) for k, v in opt.items() if v.isdigit()}
    tj = ws.vector_to_json
    if verb == "basis":
        qb = ws.quotient_basis(opt["--space"], v=as_int.get("--v"),
                               l=as_int.get("--l"), total=as_int.get("--total"))
        return {"dimension": qb.dim, "basis": [ws.diagram_to_json(d) for d in qb.basis]}
    if verb == "reduce":
        return {"terms": tj(ws.reduce_vector(ws.vector_from_json(stdin)))}
    if verb == "chi":
        return {"terms": tj(ws.chi(ws.vector_from_json(stdin)))}
    if verb == "close":
        return {"terms": tj(ws.closure(ws.vector_from_json(stdin)))}
    if verb in ("cap", "connect-sum"):
        fn = ws.cap if verb == "cap" else ws.connect_sum
        return {"terms": tj(fn(ws.vector_from_json(stdin["left"]),
                               ws.vector_from_json(stdin["right"])))}
    if verb == "omega":
        return {"terms": tj(ws.omega(as_int["--vmax"]))}
    if verb == "eval":
        g = ws.sl2() if opt["--algebra"] == "sl2" else ws.lie_algebra_from_json(sl3)
        d = ws.diagram_from_json(stdin)
        if d.space == "B":
            return {"value": str(ws.evaluate_closed(d, g))}
        return {"value": str(ws.evaluate(d, g, g.representations["fundamental"]))}
    if verb == "verify":
        return strip_seconds(ws.run_suite(argv[1], vmax=as_int.get("--vmax")))
    raise ValueError(f"no in-process answer for {verb}")


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(passes, layers):
    """The per-layer metrics, per traced pass, and each phase's self times."""
    import spans
    traced = [p for p in passes if p.traced]
    units, phases = spans.summarize([s for p in traced for s in p.spans])
    k = len(traced)

    def u(unit, field):
        return units[unit][field] / k if unit in units else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "diagrams.canonicalize.s": u("diagrams.canonicalize", "s"),
        "diagrams.canonicalize.calls": u("diagrams.canonicalize", "calls"),
        "diagrams.enumerate.self_s": u("diagrams.enumerate", "self_s"),
        "diagrams.classes_per_canon": ratio(u("diagrams.enumerate", "note"),
                                            u("diagrams.enumerate", "canon_calls")),
        "algebra.generators.s": u("algebra.generators", "s"),
        "algebra.generators.count": u("algebra.generators", "note"),
        "algebra.eliminate.self_s": u("algebra.eliminate", "self_s"),
        "algebra.pivot_ratio": ratio(u("algebra.eliminate", "pivots"),
                                     u("algebra.eliminate", "generator_rows")),
        "algebra.reduce.s": u("algebra.reduce", "s"),
        "cache.save.s": u("cache.save", "s"),
        "cache.bytes_written": u("cache.save", "note"),
        "cache.load.s": u("cache.load", "s"),
        "cache.load.calls": u("cache.load", "calls"),
        "cache.load.hit_ratio": ratio(u("cache.load", "note"), u("cache.load", "calls")),
        "maps.terms_out": u("maps", "terms_out"),
        "lie.validate.s": u("lie.validate", "s"),
        "lie.validate.calls": u("lie.validate", "calls"),
        "lie.derive_tensors.s": u("lie.derive_tensors", "s"),
        "lie.evaluate.self_s": u("lie.evaluate", "self_s"),
        "lie.evaluate.calls": u("lie.evaluate", "calls"),
        "tensor.plan.s": u("tensor.plan", "s"),
        "tensor.plan.calls": u("tensor.plan", "calls"),
        "tensor.plan.cost_sum": u("tensor.plan", "note"),
        "tensor.contract.s": u("tensor.contract", "s"),
        "tensor.contract.calls": u("tensor.contract", "calls"),
        "cli.main_ms": 0.0, "cli.startup_ms": 0.0, "cli.stdout_bytes": 0.0,
        "trace.overhead_ratio": ratio(statistics.median(p.work for p in traced),
                                      statistics.median(p.work for p in passes
                                                        if not p.traced)),
    }
    for name in ("chi", "closure", "cap", "omega"):
        m[f"maps.{name}.self_s"] = u(f"maps.{name}", "self_s")
    m.update(layers)
    # the spans hold raw CPU times: bring them to reference speed
    scale = statistics.mean(p.scale for p in traced)
    for name, unit in PER_LAYER:
        if unit in ("s", "ms"):
            m[name] *= scale
    return m, {ph: {unit: sec * scale / k for unit, sec in t.items()}
               for ph, t in phases.items()}


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("basis-cold", "weights", "cli-warm"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "weightsys" / "__init__.py").is_file():
        print(f"error: no weightsys package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        run = Run(args, tmp)
        workload = {"basis-cold": basis_cold, "weights": weights, "cli-warm": cli_warm}
        values, lines, passes, layers = workload[args.workload](run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    digests = sorted({p.digest for p in passes})
    run.check(len(digests) == 1, 0, "answer digests differ between passes")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  passes {len(passes)}")
    for line in lines:
        print("  " + line)
    print(f"  failed_ratio   {run.failed}/{run.attempted}   answer digest {' '.join(digests)}")
    print("  speed          CPU times scaled to reference speed by x"
          + " x".join(f"{p.scale:.3f}" for p in passes) + " (per pass)")
    for what in run.problems[:10]:
        print(f"  FAILED: {what}")
    if args.trace:
        metrics, phases = layer_metrics(passes, layers)
        names = PER_LAYER
        for ph, self_times in sorted(phases.items()):
            top = sorted(self_times.items(), key=lambda kv: -kv[1])[:4]
            # a phase's own time is the benchmark's, except in a CLI call,
            # where it is the interpreter's start-up and exit
            own = "cli.startup" if ph == "phase.cli" else "benchmark"
            print(f"  largest self CPU time per traced pass in {ph}: "
                  + ", ".join(f"{own if unit == ph else unit} {sec:.3f} s"
                              for unit, sec in top))
    else:
        metrics = dict(values, peak_rss_mb=run.rss_kb / 1024)
        names = END_TO_END
    for name, unit in names:
        print(f"  {name:30s} {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
