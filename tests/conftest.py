"""Fixtures shared by the test modules."""

import pytest
import scipy.sparse.linalg

from splr import conic


@pytest.fixture
def splu_calls(monkeypatch):
    """The sparse LU factorizations a test makes, counted from a solver
    that keeps no earlier setup."""
    calls = []
    splu = scipy.sparse.linalg.splu

    def counted(*args, **kwargs):
        calls.append(1)
        return splu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    monkeypatch.setattr(conic, "_last_setup", None)
    return calls
