"""Plan files: golden bytes, round trips, corrupt input, and the cell map
they store."""

import copy
import json
import random
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyres.action_matrix import amplan_from_json, amplan_to_json, res_to_am
from polyres.linalg import PRIMES
from polyres.plan import PlanFormatError, TemplateMatrix, plan_from_json, plan_to_json
from polyres.poly import HIDDEN_SLOT, PolynomialTemplate, SystemTemplate, Term
from polyres.problems import get

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)


@pytest.mark.parametrize(
    "name, seen, reasons",
    [
        ("two_conics", 40, {"row_count": 32, "coverage": 106}),
        ("three_quadrics", 102, {"row_count": 432, "coverage": 375, "column_rank": 522, "empty_lattice": 18}),
        (
            "rel_pose_f_lambda_8pt",
            85,
            {
                "coverage": 3532,
                "row_count": 176,
                "column_rank": 516,
                "empty_lattice": 165,
                "a12_rank": 285,
                "unrecoverable_b1": 11,
            },
        ),
    ],
)
def test_golden_plan_bytes(name, seen, reasons, request):
    # the session fixtures use the configurations the golden plans were generated with
    outcome = request.getfixturevalue("rel_pose_outcome" if name.startswith("rel_pose") else f"{name}_outcome")
    assert plan_to_json(outcome.plan) == (GOLDEN / f"{name}.plan").read_text(encoding="utf-8")
    assert outcome.candidates_seen == seen
    assert outcome.reasons == reasons


@cache
def _plan_texts():
    """(text, loader, writer) of the golden two_conics plan and of its
    action-matrix rewrite."""
    text = (GOLDEN / "two_conics.plan").read_text(encoding="utf-8")
    am_text = amplan_to_json(res_to_am(plan_from_json(text), get("two_conics").root_count))
    return (text, plan_from_json, plan_to_json), (am_text, amplan_from_json, amplan_to_json)


def _paths(node, path=()):
    """Every section and leaf of a JSON document, the document itself included."""
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _paths(item, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


JUNK = st.one_of(
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(-2, 9), st.floats(), st.text(max_size=2)), max_size=4),
    st.none(),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)


@FUZZ
@given(data=st.data())
def test_corrupt_plan_loads_or_raises_format_error(data):
    text, load, _ = data.draw(st.sampled_from(_plan_texts()))
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    bad = json.dumps(_replaced(doc, path, data.draw(JUNK)))
    try:
        load(bad)
    except PlanFormatError:
        pass


# (plan: 0 resultant, 1 action-matrix; path; replacement): a value of the
# wrong JSON type, an unknown version or order, or a cell map that disagrees
JUNK_SECTIONS = [
    (0, ("meta", "order"), "bogus"),
    (0, ("meta", "subset_mask"), "x"),
    (0, ("meta", "subset_mask"), 1.5),
    (0, ("meta", "origin"), 7),
    (0, ("meta", "seed"), 1.5),
    (0, ("meta", "seed"), "1"),
    (0, ("meta", "x_k"), 1.0),
    (0, ("monomials", "n_b1"), 4.0),
    (0, ("blocks", "n_upper"), 5.0),
    (0, ("meta", "delta", 0), -0.1),
    (0, ("rows", 0, 0), 0.0),
    (0, ("rows", 8, 1, 0), 0.0),
    (0, ("monomials", "b", 0, 0), 2.0),
    (0, ("deleted_rows", 0, 0), 2.5),
    (0, ("meta", "root_transform"), "-1/lambda"),
    (0, ("meta", "n_solutions"), 99),
    (0, ("meta", "n_solutions"), 4.0),
    (1, ("version",), 99),
    (1, ("cells",), []),
    (1, ("meta", "n_excess"), 2.0),
    (1, ("monomials", "cols", 0, 1), 1.0),
]


@pytest.mark.parametrize(
    "plan, path, value",
    JUNK_SECTIONS,
    ids=[f"{('resultant', 'am')[p]}-{'.'.join(map(str, path))}-{v!r}" for p, path, v in JUNK_SECTIONS],
)
def test_junk_section_rejected(plan, path, value):
    text, load, _ = _plan_texts()[plan]
    with pytest.raises(PlanFormatError):
        load(json.dumps(_replaced(json.loads(text), path, value)))


def _keys_reversed(node):
    if isinstance(node, dict):
        return {key: _keys_reversed(node[key]) for key in reversed(node)}
    if isinstance(node, list):
        return [_keys_reversed(item) for item in node]
    return node


@FUZZ
@given(data=st.data())
def test_unmodified_plan_round_trips(data):
    text, load, dump = data.draw(st.sampled_from(_plan_texts()))
    # the same document in another key order and layout reads back to the same bytes
    doc = json.loads(text)
    if data.draw(st.booleans()):
        doc = _keys_reversed(doc)
    respelled = json.dumps(doc, indent=data.draw(st.sampled_from([None, 0, 2])))
    assert dump(load(respelled)) == text


LINE = SystemTemplate(1, ("x",), (PolynomialTemplate((Term("a", (1,)), Term("b", (0,)))),))


def test_cell_map():
    tm = TemplateMatrix(LINE, ((2,), (1,), (0,)), ((0, (1,)), (0, (0,))))
    assert tm.cells == ((0, 0, 0, 0), (0, 1, 0, 1), (1, 1, 0, 0), (1, 2, 0, 1))
    projected = TemplateMatrix(LINE, ((1,),), ((0, (0,)),), project_missing=True)
    assert projected.cells == ((0, 0, 0, 0),)


def test_zero_hidden_value_zeroes_exactly_the_hidden_cells():
    tm = plan_from_json(_plan_texts()[0][0]).layout.template
    p = PRIMES[0]
    rng = random.Random(0)
    values = {s: rng.randrange(1, p) for s in tm.system.slots()}
    m = tm.instantiate_modp(p, {**values, HIDDEN_SLOT: 0})
    kinds = {}
    for r, j, poly, t in tm.cells:
        term = tm.system.polys[poly].terms[t]
        kind = term.slot if term.slot in (None, HIDDEN_SLOT) else "slot"
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == HIDDEN_SLOT:
            assert m[r, j] == 0
        elif kind is None:
            assert m[r, j] == int(term.const) % p  # a literal keeps its constant
        else:
            assert m[r, j] == int(term.const) * values[term.slot] % p
    assert kinds[None] == kinds[HIDDEN_SLOT] > 0 and kinds["slot"] > 0
    assert np.count_nonzero(m) == len(tm.cells) - kinds[HIDDEN_SLOT]


@pytest.mark.parametrize("poly_idx", [1, -1])
def test_row_naming_no_polynomial_rejected(poly_idx):
    with pytest.raises(ValueError, match="names no polynomial"):
        TemplateMatrix(LINE, ((1,), (0,)), ((poly_idx, (0,)),))
