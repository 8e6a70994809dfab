"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture(scope="session")
def cpu_features() -> dict:
    """numpy's map of CPU feature name to whether its dispatch uses it in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x keeps it under numpy.core
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__
