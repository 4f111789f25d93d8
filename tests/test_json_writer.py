"""The CLI's JSON writer against ``json.dumps`` with the same settings.

``cli._write_json`` writes the text itself, piece by piece, instead of
running json's pure-Python indenting encoder, and ``cli._json_text`` is
the text it writes; it must give the same bytes as
``json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\\n"`` on
every result the CLI writes and on arbitrary nested data.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uconvex import curves, sequences, verify
from uconvex.cli import _json_text, _jsonable, _write_json
from uconvex.spaces import SpaceSpec


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n"


def _results():
    l2, l3 = SpaceSpec(2.0, 8), SpaceSpec(3.0, 12)
    x = sequences.unit_basis_seed(l2, 1)[0]
    basis = sequences.unit_basis_seed(l2, 8)
    yield "curve-clarkson", curves.build_curve(2.0, [0.5, 1.0, 2.0],
                                                "clarkson")
    yield "curve-empirical", curves.build_curve(1.5, [0.5, 1.9], "empirical",
                                                 d=3, budget=400, rng_seed=1)
    yield "trace-low", sequences.theorem3_construct(
        l3, sequences.shifted_basis_seed(l3, 11), 11, "shifted")
    yield "trace-high", sequences.theorem3_construct(l2, basis, 8, "basis")
    yield "theorem1", sequences.theorem1_extract(l2, basis, x, None)
    yield "baseline", sequences.baseline_extract(l2, basis, x, 0.01)
    yield "reports", verify.run_grid("lemma23", [1.5, 3.0], [2], [1.0], 50, 3)
    curve = curves.build_curve(3.0, [0.5, 1.0], "clarkson")
    yield "modulus-props", [curves.check_modulus_properties(curve)]


@pytest.mark.parametrize("name, result", list(_results()))
def test_writer_equals_json_dumps_on_every_result(name, result):
    assert _json_text(result) == _dumps(result)


def test_writer_equals_json_dumps_on_violation_records(monkeypatch):
    monkeypatch.setattr(verify, "lp_delta", lambda p, eps: 3.0)
    reports = verify.run_grid("lemma23", [1.5], [4], [0.5], 20, 2)
    assert reports[0].violations
    assert _json_text(reports) == _dumps(reports)


def test_writer_special_floats_and_containers():
    obj = {"v": [1.5, -0.0, math.nan, math.inf, -math.inf, 1e-310],
           "t": (1, True, None, "é\"\\\n"), "e": [], "d": {},
           "a": np.arange(3.0), "big": -(10 ** 40), "f": np.float64(0.1),
           "nested": [[], [{}], [[0.5, 2]]]}
    assert _json_text(obj) == _dumps(obj)
    for scalar in (None, True, False, 0, 2.5, math.nan, "x", [], {}):
        assert _json_text(scalar) == _dumps(scalar)


_scalars = (st.none() | st.booleans()
            | st.integers(min_value=-(10 ** 30), max_value=10 ** 30)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from([-0.0, math.inf, -math.inf, math.nan])
            | st.text())
_nested = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=5)
                   | st.lists(st.floats(), max_size=8)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_nested)
def test_writer_equals_json_dumps_on_nested_data(obj):
    assert _json_text(obj) == _dumps(obj)


def test_writer_lists_a_matrix_one_row_at_a_time(peak_bytes, tmp_path):
    """A (124, 250) array with two nonzeros a row, the shape and pattern of
    the normalized differences in Theorem 3's trace output in l^3_250: the
    text equals ``json.dumps`` of ``A.tolist()``, and the writer never holds
    that list, whose floats alone outweigh the text here.  Writing the
    file holds no copy of the text either, only a row's text and the
    file's buffers at a time: at most a quarter of the text (as one
    string, the text and the pieces it is joined from are about twice
    its size)."""
    A = np.zeros((124, 250))
    rows = np.arange(124)
    A[rows, 2 * rows + 1] = 2.0 ** (-1.0 / 3.0)
    A[rows, 2 * rows + 2] = -(2.0 ** (-1.0 / 3.0))
    want = json.dumps({"a": A.tolist()}, indent=2, sort_keys=True) + "\n"
    assert _json_text({"a": A}) == want
    assert peak_bytes(lambda: _json_text({"a": A})) < peak_bytes(A.tolist)
    path = tmp_path / "a.json"

    def write():
        with open(path, "w") as out:
            _write_json(out, {"a": A})
    assert peak_bytes(write) <= len(want) / 4
    assert path.read_text() == want
