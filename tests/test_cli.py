"""End-to-end command-line tests: real subprocesses, JSON pipes, exit codes.

The cache always points into a per-test temporary directory so runs are
hermetic; byte-determinism is asserted by comparing raw stdout.
"""

import json
import os
import resource
import subprocess
import sys

import pytest

import oracles
import weightsys
from weightsys.algebra import DiagramVector, vector_from_json, vector_to_json
from weightsys.diagrams import diagram_to_json, enumerate_diagrams, validate
from weightsys.lie import lie_algebra_to_json, sl2
from weightsys.maps import cap, chi, closure, connect_sum, omega

PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(weightsys.__file__)))


def cli_env(cache=None, extra_env=None):
    # The child runs with cwd=tests/, where a relative PYTHONPATH entry (such
    # as the documented PYTHONPATH=src) would not resolve; putting the absolute
    # root of the package this process imported first makes the child run the
    # same code the in-process assertions compare against.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    env.pop("WEIGHTSYS_CACHE", None)
    if cache is not None:
        env["WEIGHTSYS_CACHE"] = str(cache)
    if extra_env:
        env.update(extra_env)
    return env


def run_cli(args, stdin_text="", cache=None, extra_env=None, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "weightsys.cli", *args],
                          input=stdin_text, capture_output=True, text=True,
                          env=cli_env(cache, extra_env),
                          cwd=os.path.dirname(__file__), timeout=timeout)
    return proc


def chord_json():
    return {"space": "A", "internal": [], "legs": [], "pairing": [[0, 1]],
            "free_loops": 0, "skeleton": [0, 1]}


# ---------------------------------------------------------------------------
# the documented command examples


def test_basis_of_two_vertex_closed_piece(tmp_path):
    proc = run_cli(["basis", "--space", "B", "--v", "2", "--l", "0"],
                   cache=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert out["dimension"] == 1
    assert out["basis"] == [diagram_to_json(oracles.theta_closed())]


def test_omega_vmax_2_terms(tmp_path):
    proc = run_cli(["omega", "--vmax", "2"], cache=tmp_path)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert vector_from_json(out) == omega(2)
    coeffs = sorted(t["coeff"] for t in out["terms"])
    assert coeffs == ["-1/48", "1"]  # unit, then the canonical 2-wheel class


def test_eval_chord_against_fundamental(tmp_path):
    proc = run_cli(["eval", "--algebra", "sl2", "--rep", "fundamental"],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"value": "3"}


# ---------------------------------------------------------------------------
# exit codes: one distinct code per failure class


def test_unknown_verb_exit_code(tmp_path):
    proc = run_cli(["frobnicate"], cache=tmp_path)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["code"] == "unknown-verb"


def test_malformed_json_exit_code(tmp_path):
    proc = run_cli(["reduce"], stdin_text="{not json", cache=tmp_path)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["code"] == "malformed-json"


def test_validation_exit_code_for_bad_options_and_bad_payload(tmp_path):
    proc = run_cli(["basis", "--space", "Q"], cache=tmp_path)
    assert proc.returncode == 5
    assert json.loads(proc.stdout)["error"]["code"] == "validation"

    bad = chord_json()
    bad["pairing"] = [[0, 9]]
    proc = run_cli(["eval", "--algebra", "sl2"], stdin_text=json.dumps(bad),
                   cache=tmp_path)
    assert proc.returncode == 5
    assert json.loads(proc.stdout)["error"]["code"] == "validation"


def test_resource_cutoff_exit_code(tmp_path):
    proc = run_cli(["enumerate", "--space", "A", "--total", "6",
                    "--max-steps", "3"], cache=tmp_path)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error"]["code"] == "resource-cutoff"

    # The chord's plan costs 1: a bound of 0 refuses it, a bound of 1 does not.
    proc = run_cli(["eval", "--algebra", "sl2", "--max-cost", "0"],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error"]["code"] == "resource-cutoff"

    proc = run_cli(["eval", "--algebra", "sl2", "--max-cost", "1"],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "3"


def test_grading_too_deep_for_the_recursion_limit_is_a_resource_cutoff(tmp_path):
    # 2,100 half-edges, far past the default enumeration budget.
    proc = run_cli(["enumerate", "--space", "B", "--v", "700", "--l", "0"],
                   cache=tmp_path)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "resource-cutoff"
    assert proc.stderr == ""


@pytest.mark.parametrize("grading", [
    ["B", "--v", "300", "--l", "0"],
    ["B", "--v", "100000000000000000000", "--l", "0"],
    ["B", "--v", "0", "--l", "100000000000000000000"],
    ["A", "--total", "100000000000000000000"],
], ids=["v300", "v1e20", "l1e20", "total1e20"])
def test_grading_past_the_default_budget_is_a_prompt_resource_cutoff(tmp_path, grading):
    # The child's address space is capped, so a regression that tries to
    # build the whole grading fails inside the cap and not on the host.
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "weightsys.cli", "enumerate",
                           "--space", *grading], capture_output=True, text=True,
                          env=cli_env(tmp_path), preexec_fn=cap_memory, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "resource-cutoff"
    assert proc.stderr == ""
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert cpu < 2, cpu


def test_omega_past_the_default_budget_is_a_prompt_resource_cutoff(tmp_path):
    # capped and timed out as above, so a regression that builds the wheels
    # fails here and not on the host
    proc = subprocess.run([sys.executable, "-m", "weightsys.cli", "omega", "--vmax",
                           "100000000000000000000"], capture_output=True, text=True,
                          env=cli_env(tmp_path), timeout=60, preexec_fn=lambda: (
                              resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))))
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "resource-cutoff"
    assert proc.stderr == ""


def test_close_and_cap_past_the_default_budget_are_prompt_resource_cutoffs(tmp_path):
    # 19!! matchings of 20 legs, and 20!/8! injections of 12 legs into 20
    def struts(legs):
        return [{"coeff": "1", "diagram": {
            "space": "B", "legs": list(range(legs)),
            "pairing": [[g, g + 1] for g in range(0, legs, 2)]}}]

    for verb, payload in (("close", struts(20)),
                          ("cap", {"left": struts(12), "right": struts(20)})):
        proc = run_cli([verb], stdin_text=json.dumps(payload), cache=tmp_path, timeout=10)
        assert proc.returncode == 4, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["error"]["code"] == "resource-cutoff"
        assert proc.stderr == ""


@pytest.mark.parametrize("args", [
    ["enumerate", "--space", "B", "--v", "-2", "--l", "0"],
    ["enumerate", "--space", "B", "--v", "2", "--l", "-2"],
    ["enumerate", "--space", "A", "--e", "-1", "--v", "1"],
    ["enumerate", "--space", "A", "--total", "-2"],
    ["basis", "--space", "A", "--total", "-2"],
    ["basis", "--space", "B", "--v", "-2", "--l", "2"],
    # a negative bound would otherwise pass an empty verification
    ["verify", "chi-iso", "--max-total", "-2"],
    ["verify", "closure-omega", "--vmax", "-4"],
    ["verify", "relations", "--max-total", "-2"],
    ["omega", "--vmax", "-2"],
    # a negative resource bound would otherwise be reported as exceeded
    ["basis", "--space", "A", "--total", "4", "--max-steps", "-1"],
    ["eval", "--algebra", "sl2", "--max-cost", "-1"],
    ["enumerate", "--space", "B", "--v", "2", "--l", "0", "--max-steps", "-1"],
    ["verify", "relations", "--max-cost", "-1"],
    # reduce reads the empty vector, which names no piece to bound
    ["reduce", "--max-steps", "-1"],
])
def test_negative_grading_is_a_validation_error_and_writes_no_cache(tmp_path, args):
    cache = tmp_path / "cache"
    # eval reads its diagram before it evaluates against the bound
    stdin = [] if args[0] == "reduce" else chord_json()
    proc = run_cli(args, stdin_text=json.dumps(stdin), cache=cache)
    assert proc.returncode == 5, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "validation"
    assert proc.stderr == ""
    assert not cache.exists()


@pytest.mark.parametrize("verb", [["eval"], ["verify", "relations"]])
def test_algebra_path_that_is_a_directory_is_a_validation_error(tmp_path, verb):
    proc = run_cli([*verb, "--algebra", str(tmp_path)],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 5, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "validation"
    assert proc.stderr == ""


def test_algebra_file_with_non_object_representations_is_a_validation_error(tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 1, "structure_constants": [[[0]]],
                                "metric": [[1]], "representations": [1]}),
                    encoding="utf-8")
    proc = run_cli(["eval", "--algebra", str(path)],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 5, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "validation"
    assert proc.stderr == ""


def test_closed_stdout_exits_1_without_a_traceback(tmp_path):
    proc = subprocess.Popen([sys.executable, "-m", "weightsys.cli", "chi"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=cli_env(tmp_path),
                            cwd=os.path.dirname(__file__))
    proc.stdout.close()
    strut = DiagramVector.single(oracles.strut())
    _, err = proc.communicate(json.dumps(vector_to_json(strut)).encode())
    assert proc.returncode == 1
    assert err == b""


def test_help_exits_cleanly(tmp_path):
    proc = run_cli(["--help"], cache=tmp_path)
    assert proc.returncode == 0
    assert "verbs:" in proc.stdout


# ---------------------------------------------------------------------------
# transforms agree with the library and round-trip through their readers


def test_chi_close_cap_connect_sum_match_library(tmp_path):
    s = DiagramVector.single(oracles.strut())
    s_json = json.dumps({"terms": [{"coeff": "1",
                                    "diagram": diagram_to_json(oracles.strut())}]})

    proc = run_cli(["chi"], stdin_text=s_json, cache=tmp_path)
    assert vector_from_json(json.loads(proc.stdout)) == chi(s)

    proc = run_cli(["close", "--pair-weight", "2"], stdin_text=s_json,
                   cache=tmp_path)
    assert vector_from_json(json.loads(proc.stdout)) == closure(s, pair_weight=2)

    pair = json.dumps({"left": json.loads(s_json)["terms"],
                       "right": json.loads(s_json)["terms"]})
    proc = run_cli(["cap"], stdin_text=pair, cache=tmp_path)
    assert vector_from_json(json.loads(proc.stdout)) == cap(s, s)

    chord_vec = [{"coeff": "1", "diagram": chord_json()}]
    pair = json.dumps({"left": chord_vec, "right": chord_vec})
    proc = run_cli(["connect-sum"], stdin_text=pair, cache=tmp_path)
    c = vector_from_json(chord_vec)
    assert vector_from_json(json.loads(proc.stdout)) == connect_sum(c, c)


@pytest.mark.parametrize("verb, right", [("cap", chord_json()),
                                         ("connect-sum", diagram_to_json(oracles.strut()))])
def test_a_zero_left_argument_still_checks_the_right_ones_space(tmp_path, verb, right):
    pair = json.dumps({"left": [], "right": [{"coeff": "1", "diagram": right}]})
    proc = run_cli([verb], stdin_text=pair, cache=tmp_path)
    assert proc.returncode == 5, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "validation"
    assert proc.stderr == ""


def test_emitted_json_is_accepted_back_unchanged(tmp_path):
    proc1 = run_cli(["omega", "--vmax", "4"], cache=tmp_path)
    proc2 = run_cli(["reduce"], stdin_text=proc1.stdout, cache=tmp_path)
    assert proc2.returncode == 0
    proc3 = run_cli(["reduce"], stdin_text=proc2.stdout, cache=tmp_path)
    assert proc3.stdout == proc2.stdout  # reducer accepts and fixes its output

    enum = run_cli(["enumerate", "--space", "B", "--v", "2", "--l", "2"],
                   cache=tmp_path)
    listing = json.loads(enum.stdout)
    assert listing["count"] == len(listing["diagrams"]) == 2
    as_vec = [{"coeff": "1", "diagram": d} for d in listing["diagrams"]]
    back = run_cli(["reduce"], stdin_text=json.dumps(as_vec), cache=tmp_path)
    assert back.returncode == 0


def test_eval_closed_diagram_and_vector_forms(tmp_path):
    theta_json = diagram_to_json(oracles.theta_closed())
    proc = run_cli(["eval", "--algebra", "sl2"],
                   stdin_text=json.dumps(theta_json), cache=tmp_path)
    assert json.loads(proc.stdout) == {"value": "-12"}

    vec = [{"coeff": "-2", "diagram": theta_json}]
    proc = run_cli(["eval", "--algebra", "sl2"], stdin_text=json.dumps(vec),
                   cache=tmp_path)
    assert json.loads(proc.stdout) == {"value": "24"}


def test_eval_of_a_zero_diagram_agrees_with_the_library(tmp_path):
    # The tripod is zero by antisymmetry but has legs, which closed
    # evaluation refuses, as evaluate_closed does.
    tripod = {"space": "B", "internal": [[0, 1, 2]], "legs": [3, 4, 5],
              "pairing": [[0, 3], [1, 4], [2, 5]]}
    proc = run_cli(["eval", "--algebra", "sl2"], stdin_text=json.dumps(tripod),
                   cache=tmp_path)
    assert proc.returncode == 5, proc.stdout
    assert json.loads(proc.stdout)["error"]["code"] == "validation"

    # The dumbbell is closed and zero by antisymmetry: alone or as a
    # one-term vector it is worth 0, with no representation to ask for.
    dumbbell = {"space": "B", "internal": [[0, 1, 2], [3, 4, 5]],
                "pairing": [[0, 1], [3, 4], [2, 5]]}
    algebra = lie_algebra_to_json(sl2())
    del algebra["representations"]
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(algebra), encoding="utf-8")
    for payload in (dumbbell, [{"coeff": "1", "diagram": dumbbell}]):
        proc = run_cli(["eval", "--algebra", str(path)], stdin_text=json.dumps(payload),
                       cache=tmp_path)
        assert proc.returncode == 0, proc.stdout
        assert json.loads(proc.stdout) == {"value": "0"}


def test_eval_with_algebra_file_and_named_rep(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(lie_algebra_to_json(sl2())), encoding="utf-8")
    proc = run_cli(["eval", "--algebra", str(path), "--rep", "fundamental"],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert json.loads(proc.stdout) == {"value": "3"}

    proc = run_cli(["eval", "--algebra", "abelian4", "--rep", "trivial"],
                   stdin_text=json.dumps(diagram_to_json(validate("A", skeleton=()))),
                   cache=tmp_path)
    assert json.loads(proc.stdout) == {"value": "1"}

    proc = run_cli(["eval", "--algebra", str(path), "--rep", "missing"],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 5

    # a named representation is resolved even where the weight does not read it
    for payload in (diagram_to_json(oracles.theta_closed()), chord_json()):
        proc = run_cli(["eval", "--algebra", "sl2", "--rep", "nope"],
                       stdin_text=json.dumps(payload), cache=tmp_path)
        assert proc.returncode == 5, proc.stdout
        assert json.loads(proc.stdout)["error"]["code"] == "validation"


# ---------------------------------------------------------------------------
# determinism and the cache


def test_cold_and_warm_cache_outputs_are_byte_identical(tmp_path):
    cold = run_cli(["basis", "--space", "A", "--total", "4"], cache=tmp_path)
    warm = run_cli(["basis", "--space", "A", "--total", "4"], cache=tmp_path)
    assert cold.returncode == warm.returncode == 0
    assert cold.stdout == warm.stdout
    assert any(tmp_path.iterdir())  # the cache was actually written

    fresh = run_cli(["basis", "--space", "A", "--total", "4"],
                    cache=tmp_path / "elsewhere")
    assert fresh.stdout == cold.stdout


@pytest.mark.parametrize("corrupt", [
    lambda p: p.pop("diagrams"),
    lambda p: p.update(diagrams=[7]),
    lambda p: p.update(pivots=[]),
    lambda p: p.update(pivots={"0": {"0": "1/0"}}),
    lambda p: p.update(pivots={"0": {"0": "1e5000"}}),
    lambda p: p.update(pivots={"1": {"1": "1"}}),
    lambda p: p.update(pivots={"0": {"0": "2"}}),
    lambda p: p.update(grading={"l": 0, "v": 4}),
    lambda p: p.update(diagrams=[diagram_to_json(d) for d in enumerate_diagrams("B", v=4, l=0)]),
    "[" * 100000 + "]" * 100000,  # raw text: json.dumps cannot nest this deep
], ids=["no-diagrams", "diagram-not-object", "pivots-not-object",
        "zero-denominator", "exponent-past-digit-limit", "pivot-out-of-range",
        "pivot-entry-not-one", "other-grading", "other-piece-diagrams", "nested-past-recursion-limit"])
def test_undecodable_cache_file_is_recomputed_and_rewritten(tmp_path, corrupt):
    args = ["basis", "--space", "B", "--v", "2", "--l", "0"]
    cold = run_cli(args, cache=tmp_path)
    assert cold.returncode == 0
    path = tmp_path / "basis_B_v2_l0.json"
    good = path.read_bytes()
    if isinstance(corrupt, str):
        path.write_text(corrupt, encoding="utf-8")
    else:
        payload = json.loads(good)
        corrupt(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")

    proc = run_cli(args, cache=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == cold.stdout
    assert path.read_bytes() == good


def test_cache_file_whose_pivot_row_indexes_no_diagram_is_a_miss(tmp_path):
    args = ["basis", "--space", "B", "--v", "2", "--l", "2"]
    cold = run_cli(args, cache=tmp_path)
    path = tmp_path / "basis_B_v2_l2.json"
    good = path.read_bytes()
    payload = json.loads(good)
    first = json.dumps([{"coeff": "1", "diagram": payload["diagrams"][0]}])
    cold_reduced = run_cli(["reduce"], stdin_text=first, cache=tmp_path)
    assert cold.returncode == cold_reduced.returncode == 0
    assert json.loads(cold.stdout)["dimension"] == 2
    payload["pivots"] = {"0": {"0": "1", "99": "1"}}
    for call, want in ((["reduce"], cold_reduced), (args, cold)):
        path.write_text(json.dumps(payload), encoding="utf-8")
        proc = run_cli(call, stdin_text=first, cache=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == want.stdout
        assert path.read_bytes() == good


@pytest.mark.parametrize("pivots, i", [
    # row 2 has no entry at its pivot, and row 3 one in column 2, below it
    # and a pivot: trusted, reduce sent diagram 3 to 2 x (diagram 2)
    ({"2": {"5": "-2"}, "3": {"3": "1", "2": "-2"}, "4": {"4": "1", "6": "-2"}}, 3),
    # row 2 has an entry in column 3, a later pivot: trusted, reduce sent
    # diagram 2 to 2 x (diagram 3)
    ({"2": {"2": "1", "3": "-2"}, "3": {"3": "1", "6": "-2"}, "4": {"4": "1", "6": "-2"}}, 2),
    # row 3 has an entry in column 1, free but below it: trusted, reduce
    # sent diagram 3 to 2 x (diagram 1), which is not the reduced form
    ({"2": {"2": "1", "5": "-2"}, "3": {"3": "1", "1": "-2"}, "4": {"4": "1", "6": "-2"}}, 3),
], ids=["pivot-missing-and-below", "later-pivot", "free-column-below"])
def test_cache_file_whose_pivot_rows_are_not_reduced_is_a_miss(tmp_path, pivots, i):
    args = ["basis", "--space", "B", "--v", "4", "--l", "2"]
    listed = run_cli(["enumerate", *args[1:]], cache=tmp_path)
    term = json.dumps([{"coeff": "1", "diagram": json.loads(listed.stdout)["diagrams"][i]}])
    cold_reduced = run_cli(["reduce"], stdin_text=term, cache=tmp_path / "cold")
    cold = run_cli(args, cache=tmp_path)
    assert listed.returncode == cold_reduced.returncode == cold.returncode == 0
    path = tmp_path / "basis_B_v4_l2.json"
    good = path.read_bytes()
    payload = json.loads(good)
    payload["pivots"] = pivots
    for call, want in ((["reduce"], cold_reduced), (args, cold)):
        path.write_text(json.dumps(payload), encoding="utf-8")
        proc = run_cli(call, stdin_text=term, cache=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == want.stdout
        assert path.read_bytes() == good


def test_cache_dir_flag_overrides_environment(tmp_path):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    proc = run_cli(["basis", "--space", "B", "--v", "2", "--l", "0",
                    "--cache-dir", str(flag_dir)], cache=env_dir)
    assert proc.returncode == 0
    assert flag_dir.exists() and any(flag_dir.iterdir())
    assert not env_dir.exists() or not any(env_dir.iterdir())


# ---------------------------------------------------------------------------
# the verify verb


def test_verify_suite_reports_and_exit_status(tmp_path):
    proc = run_cli(["verify", "closure-omega", "--vmax", "2"], cache=tmp_path)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["suite"] == "closure-omega"
    assert report["pass"] is True
    assert report["checks"] and all("seconds" in c for c in report["checks"])

    proc = run_cli(["verify", "chi-iso", "--max-total", "2"], cache=tmp_path)
    report = json.loads(proc.stdout)
    assert proc.returncode == 0 and report["pass"]
    assert [row["total"] for row in report["rank_table"]] == [0, 1, 2]

    proc = run_cli(["verify", "nonsense"], cache=tmp_path)
    assert proc.returncode == 5


def test_verify_relations_with_algebra_file(tmp_path):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(lie_algebra_to_json(sl2())), encoding="utf-8")
    proc = run_cli(["verify", "relations", "--max-total", "2",
                    "--algebra", str(path)], cache=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


# ---------------------------------------------------------------------------
# every option is read or refused


@pytest.mark.parametrize("args", [
    ["verify", "wheeling", "--vmax", "-2"],
    ["verify", "relations", "--max-total", "2", "--vmax", "-2"],
    ["verify", "chi-iso", "--algebra", "sl2"],
    ["chi", "--max-steps", "1"],  # reads the strut vector below
    ["eval", "--algebra", "sl2", "--max-steps", "1"],  # reads the chord
    ["enumerate", "--space", "A", "--total", "4", "--v", "3"],
    ["enumerate", "--space", "B", "--v", "2", "--l", "0", "--total", "4"],
    ["basis", "--space", "B", "--v", "2", "--l", "0", "--total", "9"],
])
def test_option_the_verb_or_suite_does_not_read_is_refused(tmp_path, args):
    cache = tmp_path / "cache"
    diagram = oracles.strut() if args[0] == "chi" else oracles.chord()
    proc = run_cli(args, cache=cache, stdin_text=json.dumps(
        vector_to_json(DiagramVector.single(diagram))))
    assert proc.returncode == 5, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "validation"
    assert proc.stderr == ""
    assert not cache.exists()


@pytest.mark.parametrize("field, value", [
    ("internal", 0), ("internal", [5]), ("legs", 3),
    ("pairing", 0), ("pairing", [0]), ("skeleton", 0),
])
def test_diagram_field_that_is_not_an_array_is_a_validation_error(tmp_path, field,
                                                                  value):
    diagram = {"space": "A" if field == "skeleton" else "B", field: value}
    proc = run_cli(["eval", "--algebra", "sl2"], stdin_text=json.dumps(diagram),
                   cache=tmp_path)
    assert proc.returncode == 5, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "validation"
    assert proc.stderr == ""


@pytest.mark.parametrize("change", [
    {"metric": [5]}, {"metric": None}, {"structure_constants": [5]},
    {"representations": {"fundamental": {"dim": 1, "action": [7]}}},
], ids=["metric-row-not-array", "metric-null", "slice-not-array",
        "action-not-array"])
def test_algebra_file_with_a_malformed_matrix_is_a_validation_error(tmp_path,
                                                                    change):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 1, "structure_constants": [[[0]]],
                                "metric": [[1]], **change}), encoding="utf-8")
    proc = run_cli(["eval", "--algebra", str(path)],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 5, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "validation"
    assert proc.stderr == ""


def test_unwritable_cache_directory_is_a_validation_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    cache = blocker / "cache"
    proc = run_cli(["basis", "--space", "B", "--v", "2", "--l", "0",
                    "--cache-dir", str(cache)], cache=tmp_path / "unused")
    assert proc.returncode == 5, proc.stdout + proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["code"] == "validation"
    assert str(cache) in error["message"]
    assert proc.stderr == ""
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("literal", ["1e5000", "1e-5000"])
def test_algebra_file_with_an_exponent_past_the_digit_limit_is_a_resource_cutoff(
        tmp_path, literal):
    blob = lie_algebra_to_json(sl2())
    blob["metric"][0][0] = literal
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    proc = run_cli(["eval", "--algebra", str(path)],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "resource-cutoff"
    assert proc.stderr == ""


def test_algebra_file_that_is_not_utf8_is_malformed_json(tmp_path):
    path = tmp_path / "algebra.json"
    path.write_bytes(b"\xff\xfe{")
    proc = run_cli(["eval", "--algebra", str(path)],
                   stdin_text=json.dumps(chord_json()), cache=tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "malformed-json"
    assert proc.stderr == ""


@pytest.mark.parametrize("payload", [
    '{"space": "B", "free_loops": 10000}',  # the weight 3^10000 has 4,772 digits
    '{"space": "B", "free_loops": ' + "1" * 5000 + "}",
    # refused before 3^100000000 is computed, which would take minutes
    '{"space": "B", "free_loops": 100000000}',
], ids=["written", "read", "power"])
def test_number_past_the_interpreter_digit_limit_is_a_resource_cutoff(tmp_path,
                                                                      payload):
    proc = run_cli(["eval", "--algebra", "sl2"], stdin_text=payload,
                   cache=tmp_path, timeout=10)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"]["code"] == "resource-cutoff"
    assert proc.stderr == ""
