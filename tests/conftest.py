import sys
from pathlib import Path

import numpy as np
import pytest

# The tests' helpers, and the benchmark's workloads, which build the scaled case study.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from drcopt.problem import case_study_instance


@pytest.fixture(scope="session")
def case_study():
    return case_study_instance()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
