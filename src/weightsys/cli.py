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
2     malformed-json          stdin or a referenced file is not UTF-8
                              JSON
3     unknown-verb            the first argument names no verb
4     resource-cutoff         a configured resource bound was exceeded,
                              or the input nests deeper than the
                              interpreter's recursion limit, or a number
                              read or written has more digits than it
                              converts
5     validation              bad options (one the verb or suite does
                              not read, or a cache directory that
                              cannot be written), bad structure, bad
                              algebra
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

from .algebra import (_terms, quotient_basis, reduce_vector, vector_from_json,
                      vector_to_json)
from .cache import default_cache_dir
from .diagrams import (DEFAULT_MAX_STEPS, diagram_from_json, diagram_to_json,
                       enumerate_diagrams)
from .errors import (DiagramError, GradingMismatchError, LieAlgebraError,
                     ResourceLimitError, SpaceMismatchError)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BROKEN_PIPE = 1
EXIT_MALFORMED_JSON = 2
EXIT_UNKNOWN_VERB = 3
EXIT_RESOURCE = 4
EXIT_VALIDATION = 5


class _ArgError(Exception):
    pass


# Bad input, as opposed to a bug: a bad option, diagram, grading, space or
# algebra, or a path (such as the cache directory) that cannot be used.
_VALIDATION_ERRORS = (_ArgError, DiagramError, GradingMismatchError,
                      SpaceMismatchError, LieAlgebraError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgError(message)


def _error(code, message):
    return {"error": {"code": code, "message": message}}


def _resolve_cache(ns) -> str:
    return ns.cache_dir or default_cache_dir()


def _given(**options) -> dict:
    """The options given on the command line, so the callee's defaults
    apply to the rest."""
    return {k: x for k, x in options.items() if x is not None}


# ---------------------------------------------------------------------------
# verb handlers: each takes (namespace, stdin) and returns (payload, status),
# and reads exactly the options its entry in _VERBS declares.  A handler
# imports the map, weight and verify layers itself, so a call loads only
# the layers its verb runs.


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
    vec = vector_from_json(json.loads(stdin.read()))
    red = reduce_vector(vec, cache_dir=_resolve_cache(ns),
                        max_steps=ns.max_steps)
    return {"terms": vector_to_json(red)}, EXIT_OK


def _cmd_chi(ns, stdin):
    from .maps import chi
    vec = vector_from_json(json.loads(stdin.read()))
    return {"terms": vector_to_json(chi(vec))}, EXIT_OK


def _cmd_close(ns, stdin):
    from .maps import closure
    vec = vector_from_json(json.loads(stdin.read()))
    out = closure(vec, **_given(pair_weight=ns.pair_weight))
    return {"terms": vector_to_json(out)}, EXIT_OK


def _two_vectors(obj):
    if not isinstance(obj, dict) or "left" not in obj or "right" not in obj:
        raise DiagramError("expected an object with 'left' and 'right' vectors")
    return vector_from_json(obj["left"]), vector_from_json(obj["right"])


def _cmd_cap(ns, stdin):
    from .maps import cap
    left, right = _two_vectors(json.loads(stdin.read()))
    return {"terms": vector_to_json(cap(left, right))}, EXIT_OK


def _cmd_connect_sum(ns, stdin):
    from .maps import connect_sum
    left, right = _two_vectors(json.loads(stdin.read()))
    return {"terms": vector_to_json(connect_sum(left, right))}, EXIT_OK


def _cmd_omega(ns, stdin):
    from .maps import omega
    return {"terms": vector_to_json(omega(ns.vmax))}, EXIT_OK


def _cmd_eval(ns, stdin):
    from .lie import (evaluate, evaluate_closed, resolve_algebra,
                      resolve_representation)
    obj = json.loads(stdin.read())
    if isinstance(obj, dict) and "space" in obj:
        x = diagram_from_json(obj)  # as labeled, as the library evaluates it
    else:
        x = vector_from_json(obj)
    spaces = {d.space for d, _ in _terms(x)}
    if len(spaces) > 1:
        raise SpaceMismatchError("cannot evaluate a mixed-space vector")
    g = resolve_algebra(ns.algebra)
    rep = resolve_representation(g, ns.rep)  # a named one must exist, read or not
    kwargs = _given(max_cost=ns.max_cost)
    if spaces <= {"B"}:  # the zero vector is worth 0 in either space
        value = evaluate_closed(x, g, **kwargs)
    else:
        value = evaluate(x, g, rep, **kwargs)
    return {"value": str(value)}, EXIT_OK


def _cmd_verify(ns, stdin):
    from .verify import run_suite
    # the suite refuses any bound it does not take
    bounds = dict(vars(ns), cache_dir=_resolve_cache(ns))
    report = run_suite(bounds.pop("suite"), **bounds)
    return report, EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# the verbs: handler, summary and options, each option declared once per verb.
# Every verb also takes --cache-dir; an option a verb does not declare is
# refused with exit 5.  The suite names of verify stay in verify.SUITES,
# read only by verify's parser and the usage text ({suites} below).

_INT = {"type": int}
_PIECE = (("--space", {"required": True, "choices": ("A", "B")}),
          ("--v", _INT), ("--l", _INT), ("--total", _INT))
_MAX_STEPS = ("--max-steps", dict(_INT, help="abort enumeration beyond this many "
                                              "steps, one per half-edge of each candidate "
                                              f"diagram (default {DEFAULT_MAX_STEPS:,})"))

_VERBS = {
    "enumerate": (_cmd_enumerate, "list all diagrams of one graded piece",
                  _PIECE + (("--e", _INT), _MAX_STEPS)),
    "basis": (_cmd_basis, "quotient basis of one graded piece modulo relations",
              _PIECE + (_MAX_STEPS,)),
    "reduce": (_cmd_reduce, "canonical coset representative of a vector (stdin)",
               (_MAX_STEPS,)),
    "chi": (_cmd_chi, "average a leg diagram vector over the circle (stdin)", ()),
    "close": (_cmd_close, "pair up all legs in all ways (stdin; --pair-weight)",
              (("--pair-weight", {"type": int, "choices": (1, 2)}),)),
    "cap": (_cmd_cap, "glue all legs of 'left' onto 'right' (stdin object)", ()),
    "connect-sum": (_cmd_connect_sum,
                    "circle-space product of 'left' and 'right' (stdin object)", ()),
    "omega": (_cmd_omega, "the wheels series truncated at --vmax legs",
              (("--vmax", {"type": int, "required": True}),)),
    "eval": (_cmd_eval, "weight of a diagram or vector against a metric Lie algebra",
             (("--algebra", {"required": True, "help": "built-in name (sl2, "
                             "abelian<k>) or JSON file path"}),
              ("--rep", {}), ("--max-cost", _INT))),
    "verify": (_cmd_verify, "run a verification suite: {suites}",
               (("--max-total", _INT),
                ("--vmax", _INT), ("--algebra", {}), ("--rep", {}),
                ("--max-cost", _INT))),
}


def _build_parser(verb: str) -> _Parser:
    p = _Parser(prog=f"weightsys {verb}")
    p.add_argument("--cache-dir", help="basis cache directory (default: "
                                       "$WEIGHTSYS_CACHE or the per-user cache)")
    if verb == "verify":
        from .verify import SUITES
        p.add_argument("suite", choices=SUITES)
    for flag, kwargs in _VERBS[verb][2]:
        p.add_argument(flag, **kwargs)
    return p


def _usage() -> str:
    from .verify import SUITES
    return ("usage: weightsys VERB [options] (JSON payloads on stdin/stdout)\n\n"
            "verbs:\n"
            + "".join(f"  {verb:<12} {summary.format(suites=' | '.join(SUITES))}\n"
                      for verb, (_, summary, _) in _VERBS.items())
            + "\nrun 'weightsys VERB --help' for per-verb options.")


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
        return _usage(), EXIT_OK
    if argv[0] not in _VERBS:
        return _error("unknown-verb", f"unknown verb {argv[0]!r}"), EXIT_UNKNOWN_VERB
    try:
        return _VERBS[argv[0]][0](_build_parser(argv[0]).parse_args(argv[1:]), stdin)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _error("malformed-json", str(exc)), EXIT_MALFORMED_JSON
    except (ResourceLimitError, RecursionError) as exc:
        return _error("resource-cutoff", str(exc)), EXIT_RESOURCE
    except _VALIDATION_ERRORS as exc:
        return _error("validation", str(exc)), EXIT_VALIDATION
    except ValueError as exc:
        # the interpreter's bound on the digits of an integer it converts
        if "integer string conversion" not in str(exc):
            raise
        return _error("resource-cutoff", str(exc)), EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
