import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles module

from oracles import example_stream


@pytest.fixture(scope="session")
def sample_stream():
    """The 12-link example stream plus its key table, the key of each
    handle."""
    return example_stream()
