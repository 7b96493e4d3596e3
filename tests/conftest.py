import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from shellswitch.search import SearchConfig, find_meeting_radius, solve_switch_configuration

REFERENCE = dict(m=1.9999, M=3.0, R2=4.0, r_i=12.0, p=9, q=10,
             R1_min=9.0, R1_max=11.5)


@pytest.fixture(scope="session")
def ref_config() -> SearchConfig:
    return SearchConfig(grid=120, **REFERENCE)


@pytest.fixture(scope="session")
def ref_solution(ref_config):
    return solve_switch_configuration(ref_config)


@pytest.fixture(scope="session")
def ref_meeting(ref_solution, ref_config):
    return find_meeting_radius(ref_solution, ref_config)
