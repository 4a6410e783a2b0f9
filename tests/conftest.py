from __future__ import annotations

import numpy as np
import pytest
from helpers import REL_POSE_CONFIG
from hypothesis import settings

from polyres.generate import SearchConfig, generate_plan
from polyres.problems import get

# property tests draw the same examples on every run and keep no example database
settings.register_profile("polyres", derandomize=True, database=None, deadline=None)
settings.load_profile("polyres")


def unit_normal_instance(system, rng):
    return {s: float(rng.standard_normal()) for s in system.slots()}


@pytest.fixture(scope="session")
def univariate_linear_plan():
    return generate_plan(get("univariate_linear").system, SearchConfig(seed=1)).plan


@pytest.fixture(scope="session")
def univariate_quadratic_plan():
    return generate_plan(get("univariate_quadratic").system, SearchConfig(seed=1)).plan


@pytest.fixture(scope="session")
def two_conics_outcome():
    return generate_plan(get("two_conics").system, SearchConfig(seed=1, variants=("v1",)))


@pytest.fixture(scope="session")
def two_conics_plan(two_conics_outcome):
    return two_conics_outcome.plan


@pytest.fixture(scope="session")
def two_conics_plan_v2():
    return generate_plan(get("two_conics").system, SearchConfig(seed=1, variants=("v2",))).plan


@pytest.fixture(scope="session")
def three_quadrics_outcome():
    return generate_plan(get("three_quadrics").system, SearchConfig(seed=1, variants=("v1",)))


@pytest.fixture(scope="session")
def three_quadrics_plan(three_quadrics_outcome):
    return three_quadrics_outcome.plan


@pytest.fixture(scope="session")
def rel_pose_outcome():
    """The stretch problem, generated as its golden plan was."""
    return generate_plan(get("rel_pose_f_lambda_8pt").system, REL_POSE_CONFIG)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
