"""Plan files: golden bytes, round trips, corrupt input, and the cell map
they store."""

import copy
import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from helpers import REL_POSE_CONFIG
from hypothesis import given, settings
from hypothesis import strategies as st

from polyres.action_matrix import am_to_res, res_to_am
from polyres.generate import SearchConfig, generate_plan
from polyres.linalg import PRIMES
from polyres.plan import PlanFormatError, TemplateMatrix, build_layout, plan_from_json, plan_to_json
from polyres.poly import HIDDEN_SLOT, PolynomialTemplate, SystemTemplate, Term
from polyres.problems import get

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
FUZZ = settings(max_examples=200)


GOLDEN_COUNTS = {
    "two_conics": (1, {"row_count": 32, "coverage": 106}),
    "three_quadrics": (10, {"row_count": 432, "coverage": 375, "column_rank": 9, "empty_lattice": 18}),
    "rel_pose_f_lambda_8pt": (
        30,
        {
            "coverage": 3532,
            "row_count": 176,
            "column_rank": 26,
            "empty_lattice": 165,
            "a12_rank": 2,
            "unrecoverable_b1": 1,
        },
    ),
}


@pytest.mark.parametrize("name", GOLDEN_COUNTS)
def test_golden_plan_bytes(name, request):
    # the session fixtures use the configurations the golden plans were generated with;
    # the search checks candidates best first, so it stops at the first plan
    seen, reasons = GOLDEN_COUNTS[name]
    outcome = request.getfixturevalue("rel_pose_outcome" if name.startswith("rel_pose") else f"{name}_outcome")
    assert plan_to_json(outcome.plan) == (GOLDEN / f"{name}.plan").read_text(encoding="utf-8")
    assert outcome.candidates_seen == seen
    assert outcome.reasons == reasons


def test_rel_pose_full_sweep_writes_the_golden_plan():
    # the golden rel_pose configuration without its caps: every subset and
    # both displacement magnitudes reach the same plan, later
    cfg = replace(REL_POSE_CONFIG, max_subset_size=None, delta_magnitudes=SearchConfig().delta_magnitudes)
    assert cfg.delta_magnitudes == (Fraction(1, 10), Fraction(1, 1000))
    outcome = generate_plan(get("rel_pose_f_lambda_8pt").system, cfg)
    assert plan_to_json(outcome.plan) == (GOLDEN / "rel_pose_f_lambda_8pt.plan").read_text(encoding="utf-8")
    assert outcome.candidates_seen == 30
    assert outcome.reasons == {
        "coverage": 9172,
        "row_count": 370,
        "empty_lattice": 330,
        "column_rank": 26,
        "a12_rank": 2,
        "unrecoverable_b1": 1,
    }


def test_variant_order_does_not_change_the_plan(rel_pose_outcome):
    # candidates are taken in selection-key order, whatever order the
    # variants are named in
    cfg = replace(REL_POSE_CONFIG, variants=("v1", "v2"))
    outcome = generate_plan(get("rel_pose_f_lambda_8pt").system, cfg)
    assert plan_to_json(outcome.plan) == plan_to_json(rel_pose_outcome.plan)
    assert outcome.candidates_seen == rel_pose_outcome.candidates_seen
    assert list(outcome.reasons.items()) == list(rel_pose_outcome.reasons.items())


@cache
def _plan_text() -> str:
    """The golden two_conics plan."""
    return (GOLDEN / "two_conics.plan").read_text(encoding="utf-8")


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
    doc = json.loads(_plan_text())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    bad = json.dumps(_replaced(doc, path, data.draw(JUNK)))
    try:
        plan_from_json(bad)
    except PlanFormatError:
        pass


# (path, replacement): a value of the wrong JSON type, an unknown version or
# order, a cell map or metadata that disagrees with the layout, provenance
# that fits no augmented system (here three polynomials in two variables),
# and deleted rows that are no distinct removed rows
JUNK_SECTIONS = [
    (("version",), 99),
    (("version",), 1.0),
    (("version",), True),
    (("blocks", "projected"), "yes"),
    (("blocks", "projected"), 1),
    (("cells",), []),
    (("meta", "order"), "bogus"),
    (("meta", "order"), "lex"),
    (("system", "variables"), ["x", "x"]),
    (("meta", "subset_mask"), "x"),
    (("meta", "subset_mask"), 1.5),
    (("meta", "origin"), 7),
    (("meta", "seed"), 1.5),
    (("meta", "seed"), "1"),
    (("meta", "x_k"), 1.0),
    (("monomials", "n_b1"), 4.0),
    (("blocks", "n_upper"), 5.0),
    (("meta", "delta", 0), -0.1),
    (("rows", 0, 0), 0.0),
    (("rows", 8, 1, 0), 0.0),
    (("monomials", "b", 0, 0), 2.0),
    (("deleted_rows", 0, 0), 2.5),
    (("meta", "root_transform"), "-1/lambda"),
    (("meta", "n_solutions"), 99),
    (("meta", "n_solutions"), 4.0),
    (("meta", "delta"), ["-1/10"]),
    (("deleted_rows", 0, 0), 99),
    (("deleted_rows", 0, 0), -1),
    (("deleted_rows", 0, 1), [1]),
    (("deleted_rows", 0, 1), [1, -1]),
    (("meta", "subset_mask"), -5),
    (("meta", "subset_mask"), 8),
    # a deleted row the layout keeps, and one deleted twice
    (("deleted_rows",), [[2, [1, 1]], [2, [0, 0]], [0, [1, 0]]]),
    (("deleted_rows",), [[2, [1, 1]], [2, [0, 0]], [2, [1, 1]]]),
]


@pytest.mark.parametrize(
    "path, value", JUNK_SECTIONS, ids=[f"resultant-{'.'.join(map(str, path))}-{v!r}" for path, v in JUNK_SECTIONS]
)
def test_junk_section_rejected(path, value):
    with pytest.raises(PlanFormatError):
        plan_from_json(json.dumps(_replaced(json.loads(_plan_text()), path, value)))


def test_largest_subset_mask_loads():
    # every polynomial of the augmented system, x_k - u0 too
    doc = json.loads(_plan_text())
    doc["meta"]["subset_mask"] = 7
    assert plan_from_json(json.dumps(doc)).subset_mask == 7


@pytest.mark.parametrize("name", GOLDEN_COUNTS)
def test_golden_and_bridge_plans_round_trip(name):
    # a golden plan, and the plan the action-matrix bridge rewrites it to,
    # read back to the same bytes
    text = (GOLDEN / f"{name}.plan").read_text(encoding="utf-8")
    plan = plan_from_json(text)
    assert plan_to_json(plan) == text
    if name != "rel_pose_f_lambda_8pt":
        bridged = plan_to_json(am_to_res(res_to_am(plan, get(name).root_count)))
        assert plan_to_json(plan_from_json(bridged)) == bridged


@pytest.mark.parametrize("n_upper, n_b1", [(-4, 13), (9, 0), (10, -1)])
def test_block_sizes_outside_the_matrix_rejected(n_upper, n_b1):
    # each edit keeps n_upper + n_b1 = 9 rows and n_solutions = n_b1, so only
    # the block bounds can tell: the upper block must lie within the matrix,
    # and a plan needs an eigenvalue block
    doc = json.loads(_plan_text())
    doc["blocks"]["n_upper"] = n_upper
    doc["monomials"]["n_b1"] = doc["meta"]["n_solutions"] = n_b1
    with pytest.raises(PlanFormatError):
        plan_from_json(json.dumps(doc))


def _keys_reversed(node):
    if isinstance(node, dict):
        return {key: _keys_reversed(node[key]) for key in reversed(node)}
    if isinstance(node, list):
        return [_keys_reversed(item) for item in node]
    return node


@FUZZ
@given(data=st.data())
def test_unmodified_plan_round_trips(data):
    text = _plan_text()
    # the same document in another key order and layout reads back to the same bytes
    doc = json.loads(text)
    if data.draw(st.booleans()):
        doc = _keys_reversed(doc)
    respelled = json.dumps(doc, indent=data.draw(st.sampled_from([None, 0, 2])))
    assert plan_to_json(plan_from_json(respelled)) == text


LINE = SystemTemplate(1, ("x",), (PolynomialTemplate((Term("a", (1,)), Term("b", (0,)))),))


def test_cell_map():
    tm = TemplateMatrix(LINE, ((2,), (1,), (0,)), ((0, (1,)), (0, (0,))))
    assert tm.cells == ((0, 0, 0, 0), (0, 1, 0, 1), (1, 1, 0, 0), (1, 2, 0, 1))
    projected = TemplateMatrix(LINE, ((1,),), ((0, (0,)),), project_missing=True)
    assert projected.cells == ((0, 0, 0, 0),)


@pytest.mark.parametrize("use", ["instantiate", "instantiate_modp", "cells"])
def test_cell_encoding_built_on_first_use(use):
    # the offline search keeps every candidate's layout alive until its turn,
    # so a layout holds no cell encoding before a matrix or cell map is asked for
    lay = plan_from_json(_plan_text()).layout
    tm = build_layout(lay.template.system, lay.hidden_var, lay.variant, lay.template.cols,
                      lay.multiplier_sets()).template
    assert "_encoding" not in vars(tm)
    values = {s: 1 for s in (*tm.system.slots(), HIDDEN_SLOT)}
    {
        "instantiate": lambda: tm.instantiate(values, 1.0, 0.5),
        "instantiate_modp": lambda: tm.instantiate_modp(PRIMES[0], values),
        "cells": lambda: tm.cells,
    }[use]()
    assert "_encoding" in vars(tm)


def test_zero_hidden_value_zeroes_exactly_the_hidden_cells():
    tm = plan_from_json(_plan_text()).layout.template
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
