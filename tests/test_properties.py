"""Property tests: arbitrary JSON on the stdin of the CLI verbs."""

import io
import json

import pytest

from weightsys import cli

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Arbitrary JSON, often shaped like a diagram, a vector or a pair, so that
# payloads reach the checks past the first one.  Integers stay small:
# half-edge labels then often match, and a large loop count or grading is
# unbounded work that no budget caps yet.
_SCALARS = (st.none() | st.booleans() | st.integers(-2, 9) | st.floats()
            | st.sampled_from(("A", "B", "1/2", "1/0")) | st.text(max_size=3))


def _diagram(inner):
    part = _SCALARS | inner
    parts = dict.fromkeys(("internal", "legs", "pairing", "free_loops"), part)
    return (st.fixed_dictionaries({"space": st.just("B")}, optional=parts)
            | st.fixed_dictionaries({"space": st.just("A"), "skeleton": part},
                                    optional=parts))


def _shapes(inner):
    return (st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3)
            | _diagram(inner)
            | st.fixed_dictionaries({"coeff": inner, "diagram": inner})
            | st.fixed_dictionaries({"left": inner, "right": inner}))


_JSON = st.recursive(_SCALARS, _shapes, max_leaves=24)
_VECTOR = st.lists(st.fixed_dictionaries({"coeff": _JSON, "diagram": _diagram(_JSON)}),
                   max_size=3)
_PAYLOADS = _JSON | _diagram(_JSON) | _VECTOR | st.fixed_dictionaries(
    {"left": _VECTOR, "right": _VECTOR})
_VERBS = (["reduce"], ["chi"], ["close"], ["cap"], ["connect-sum"],
          ["eval", "--algebra", "sl2"])


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache"))


@settings(max_examples=200, deadline=None, database=None)
@given(verb=st.sampled_from(_VERBS), payload=_PAYLOADS)
def test_any_json_on_stdin_exits_with_a_documented_status(cache, verb, payload):
    out, status = cli._respond([*verb, "--cache-dir", cache],
                               io.StringIO(json.dumps(payload)))
    assert status in range(6)
    if status:
        assert set(out["error"]) == {"code", "message"}
