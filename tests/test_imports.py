"""Import boundaries: a command-line call loads only the layers its verb runs.

``import weightsys`` loads the enumeration core (errors, diagrams, algebra,
cache); the weight, map and verify layers load on first use.  Each call is
run in a fresh interpreter, so the modules it leaves loaded are its own.
"""

import json
import os
import subprocess
import sys

import pytest

import oracles
import weightsys
from weightsys.algebra import DiagramVector, vector_to_json

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(weightsys.__file__)))
CORE = {"weightsys", "weightsys.errors", "weightsys.diagrams", "weightsys.algebra",
        "weightsys.cache"}
LAYERS = {"weightsys.lie", "weightsys.tensor", "weightsys.maps", "weightsys.verify"}
# Standard modules no call needs, each several milliseconds of start-up
# (``dataclasses`` imports ``inspect``): any call that loads one fails.
UNNEEDED = ("dataclasses", "inspect")

# Imports the package (and, with arguments, runs one call through cli.main),
# then prints the exit status and the weightsys and UNNEEDED modules loaded.
CHILD = """
import io, json, sys
import weightsys
status = None
if len(sys.argv) > 1:
    from weightsys import cli
    status = cli.main(json.loads(sys.argv[1]), io.StringIO(sys.argv[2]), io.StringIO())
print(json.dumps([status, sorted(m for m in sys.modules
                                 if m.startswith("weightsys") or m in %r)]))
""" % (UNNEEDED,)


def loaded_modules(*call):
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    env.pop("WEIGHTSYS_CACHE", None)
    proc = subprocess.run([sys.executable, "-c", CHILD, *call], env=env,
                          capture_output=True, text=True, check=True)
    status, modules = json.loads(proc.stdout)
    return status, set(modules)


def vector(d):
    return json.dumps(vector_to_json(DiagramVector.single(d)))


def test_import_loads_the_core_only():
    assert loaded_modules() == (None, CORE)


def pair(d):
    return json.dumps({"left": json.loads(vector(d)), "right": json.loads(vector(d))})


# verb -> (its options, its stdin, the layers it loads beyond the core)
CALLS = {
    "enumerate": (["--space", "B", "--v", "2", "--l", "0"], "", set()),
    "basis": (["--space", "B", "--v", "2", "--l", "0"], "", set()),
    "reduce": ([], vector(oracles.chord()), set()),
    "chi": ([], vector(oracles.strut()), {"weightsys.maps"}),
    "close": ([], vector(oracles.strut()), {"weightsys.maps"}),
    "cap": ([], pair(oracles.strut()), {"weightsys.maps"}),
    "connect-sum": ([], pair(oracles.chord()), {"weightsys.maps"}),
    "omega": (["--vmax", "2"], "", {"weightsys.maps"}),
    "eval": (["--algebra", "sl2"], vector(oracles.chord()),
             {"weightsys.lie", "weightsys.tensor"}),
    "verify": (["relations", "--max-total", "2"], "", LAYERS),
}


@pytest.mark.parametrize("verb", CALLS)
def test_a_call_loads_the_core_and_the_layers_its_verb_runs(tmp_path, verb):
    options, stdin, layers = CALLS[verb]
    argv = [verb, *options, "--cache-dir", str(tmp_path)]
    assert loaded_modules(json.dumps(argv), stdin) == (0, CORE | {"weightsys.cli"} | layers)


# suite -> (its options, the layers it loads beyond the core): only the
# relations suite evaluates weights
SUITES = {
    "wheeling": ([], {"weightsys.verify", "weightsys.maps"}),
    "closure-omega": (["--vmax", "2"], {"weightsys.verify", "weightsys.maps"}),
}


@pytest.mark.parametrize("suite", SUITES)
def test_a_verify_suite_loads_the_layers_it_runs(tmp_path, suite):
    options, layers = SUITES[suite]
    argv = ["verify", suite, *options, "--cache-dir", str(tmp_path)]
    assert loaded_modules(json.dumps(argv), "") == (0, CORE | {"weightsys.cli"} | layers)


def test_every_public_name_resolves():
    names = {}
    exec("from weightsys import *", names)
    for name in weightsys.__all__:
        assert names[name] is getattr(weightsys, name)
    assert set(weightsys.__all__) <= set(dir(weightsys))
    with pytest.raises(AttributeError):
        weightsys.no_such_name
