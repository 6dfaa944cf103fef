"""Command-line interface: JSON in, JSON out, exact rationals throughout.

Every verb reads any payload from stdin, writes a single JSON document to
stdout, and exits 0 on success.  Failures print a machine-readable
``{"error": {"code", "message"}}`` object and exit with a code that
identifies the failure class:

====  ======================  ==========================================
exit  error code              meaning
====  ======================  ==========================================
1     (verify report)         a verification check failed
1     (none)                  stdout was closed before the output was
                              written (a broken pipe); stderr stays empty
2     malformed-json          stdin or a referenced file is not JSON
3     unknown-verb            the first argument names no verb
4     resource-cutoff         a configured resource bound was exceeded,
                              or the input nests deeper than the
                              interpreter's recursion limit
5     validation              bad options, bad structure, bad algebra
====  ======================  ==========================================

Output is byte-for-byte deterministic for identical inputs and cache
state; the only exception is the ``seconds`` timing fields inside verify
reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (DiagramVector, quotient_basis, reduce_vector,
                      vector_from_json, vector_to_json)
from .cache import default_cache_dir
from .diagrams import diagram_from_json, diagram_to_json, enumerate_diagrams
from .errors import (DiagramError, GradingMismatchError, LieAlgebraError,
                     ResourceLimitError, SpaceMismatchError)
from .lie import (evaluate, evaluate_closed, resolve_algebra,
                  resolve_representation)
from .maps import cap, chi, closure, connect_sum, omega
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BROKEN_PIPE = 1
EXIT_MALFORMED_JSON = 2
EXIT_UNKNOWN_VERB = 3
EXIT_RESOURCE = 4
EXIT_VALIDATION = 5


class _ArgError(Exception):
    pass


_VALIDATION_ERRORS = (_ArgError, DiagramError, GradingMismatchError,
                      SpaceMismatchError, LieAlgebraError, KeyError, TypeError,
                      ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError(message)


def _error(code, message):
    return {"error": {"code": code, "message": message}}


def _read_stdin_json(stdin):
    text = stdin.read()
    return json.loads(text)


def _resolve_cache(ns) -> str:
    return ns.cache_dir or default_cache_dir()


def _add_common(p: _Parser):
    p.add_argument("--cache-dir", default=None,
                   help="basis cache directory (default: $WEIGHTSYS_CACHE "
                        "or the per-user cache)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="abort enumeration beyond this many search steps")


# ---------------------------------------------------------------------------
# verb handlers: each takes (namespace, stdin) and returns (payload, status)


def _cmd_enumerate(ns, stdin):
    diagrams = enumerate_diagrams(ns.space, v=ns.v, l=ns.l, e=ns.e,
                                  total=ns.total, max_steps=ns.max_steps)
    return {"count": len(diagrams),
            "diagrams": [diagram_to_json(d) for d in diagrams]}, EXIT_OK


def _cmd_basis(ns, stdin):
    qb = quotient_basis(ns.space, v=ns.v, l=ns.l, total=ns.total,
                        cache_dir=_resolve_cache(ns), max_steps=ns.max_steps)
    return {"dimension": qb.dim,
            "basis": [diagram_to_json(d) for d in qb.basis]}, EXIT_OK


def _cmd_reduce(ns, stdin):
    vec = vector_from_json(_read_stdin_json(stdin))
    red = reduce_vector(vec, cache_dir=_resolve_cache(ns),
                        max_steps=ns.max_steps)
    return {"terms": vector_to_json(red)}, EXIT_OK


def _cmd_chi(ns, stdin):
    vec = vector_from_json(_read_stdin_json(stdin))
    return {"terms": vector_to_json(chi(vec))}, EXIT_OK


def _cmd_close(ns, stdin):
    vec = vector_from_json(_read_stdin_json(stdin))
    out = closure(vec, pair_weight=ns.pair_weight)
    return {"terms": vector_to_json(out)}, EXIT_OK


def _two_vectors(obj):
    if not isinstance(obj, dict) or "left" not in obj or "right" not in obj:
        raise DiagramError("expected an object with 'left' and 'right' vectors")
    return vector_from_json(obj["left"]), vector_from_json(obj["right"])


def _cmd_cap(ns, stdin):
    left, right = _two_vectors(_read_stdin_json(stdin))
    return {"terms": vector_to_json(cap(left, right))}, EXIT_OK


def _cmd_connect_sum(ns, stdin):
    left, right = _two_vectors(_read_stdin_json(stdin))
    return {"terms": vector_to_json(connect_sum(left, right))}, EXIT_OK


def _cmd_omega(ns, stdin):
    return {"terms": vector_to_json(omega(ns.vmax))}, EXIT_OK


def _cmd_eval(ns, stdin):
    obj = _read_stdin_json(stdin)
    if isinstance(obj, dict) and "space" in obj:
        vec = DiagramVector.single(diagram_from_json(obj))
    else:
        vec = vector_from_json(obj)
    spaces = {d.space for d, _ in vec.items()}
    if len(spaces) > 1:
        raise SpaceMismatchError("cannot evaluate a mixed-space vector")
    g = resolve_algebra(ns.algebra)
    kwargs = {}
    if ns.max_cost is not None:
        kwargs["max_cost"] = ns.max_cost
    if spaces == {"B"}:
        value = evaluate_closed(vec, g, **kwargs)
    else:
        value = evaluate(vec, g, resolve_representation(g, ns.rep), **kwargs)
    return {"value": str(value)}, EXIT_OK


def _cmd_verify(ns, stdin):
    report = run_suite(ns.suite, max_total=ns.max_total, vmax=ns.vmax,
                       algebra=ns.algebra, rep=ns.rep,
                       cache_dir=_resolve_cache(ns), max_cost=ns.max_cost)
    return report, EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parsers


def _build_parser(verb: str) -> _Parser:
    p = _Parser(prog=f"weightsys {verb}", add_help=True)
    _add_common(p)
    if verb in ("enumerate", "basis"):
        p.add_argument("--space", required=True, choices=("A", "B"))
        p.add_argument("--v", type=int, default=None)
        p.add_argument("--l", type=int, default=None)
        p.add_argument("--total", type=int, default=None)
        if verb == "enumerate":
            p.add_argument("--e", type=int, default=None)
    elif verb == "close":
        p.add_argument("--pair-weight", type=int, choices=(1, 2), default=1)
    elif verb == "omega":
        p.add_argument("--vmax", type=int, required=True)
    elif verb == "eval":
        p.add_argument("--algebra", required=True,
                       help="built-in name (sl2, abelian<k>) or JSON file path")
        p.add_argument("--rep", default=None)
        p.add_argument("--max-cost", type=int, default=None)
    elif verb == "verify":
        p.add_argument("suite", choices=SUITES)
        p.add_argument("--max-total", type=int, default=None)
        p.add_argument("--vmax", type=int, default=None)
        p.add_argument("--algebra", default="sl2")
        p.add_argument("--rep", default=None)
        p.add_argument("--max-cost", type=int, default=None)
    return p


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "basis": _cmd_basis,
    "reduce": _cmd_reduce,
    "chi": _cmd_chi,
    "close": _cmd_close,
    "cap": _cmd_cap,
    "connect-sum": _cmd_connect_sum,
    "omega": _cmd_omega,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
}

_USAGE = """usage: weightsys VERB [options] (JSON payloads on stdin/stdout)

verbs:
  enumerate    list all diagrams of one graded piece
  basis        quotient basis of one graded piece modulo relations
  reduce       canonical coset representative of a vector (stdin)
  chi          average a leg diagram vector over the circle (stdin)
  close        pair up all legs in all ways (stdin; --pair-weight)
  cap          glue all legs of 'left' onto 'right' (stdin object)
  connect-sum  circle-space product of 'left' and 'right' (stdin object)
  omega        the wheels series truncated at --vmax legs
  eval         weight of a diagram or vector against a metric Lie algebra
  verify       run a verification suite: """ + " | ".join(SUITES) + """

run 'weightsys VERB --help' for per-verb options."""


def main(argv=None, stdin=None, stdout=None) -> int:
    out = stdout or sys.stdout
    payload, status = _respond(list(sys.argv[1:]) if argv is None else list(argv),
                               stdin or sys.stdin)
    try:
        out.write(payload if isinstance(payload, str) else json.dumps(payload, indent=2))
        out.write("\n")
        out.flush()
    except BrokenPipeError:
        # The reader is gone: devnull takes the flush at interpreter exit,
        # which would fail again (the recipe in Python's ``signal`` docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return status


def _respond(argv, stdin):
    """One call's output (the usage text or a JSON object) and exit status."""
    if not argv or argv[0] in ("-h", "--help"):
        return _USAGE, EXIT_OK
    handler = _HANDLERS.get(argv[0])
    if handler is None:
        return _error("unknown-verb", f"unknown verb {argv[0]!r}"), EXIT_UNKNOWN_VERB
    try:
        return handler(_build_parser(argv[0]).parse_args(argv[1:]), stdin)
    except json.JSONDecodeError as exc:
        return _error("malformed-json", str(exc)), EXIT_MALFORMED_JSON
    except (ResourceLimitError, RecursionError) as exc:
        return _error("resource-cutoff", str(exc)), EXIT_RESOURCE
    except _VALIDATION_ERRORS as exc:
        return _error("validation", str(exc)), EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
