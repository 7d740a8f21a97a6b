"""Shared pytest configuration: keep hypothesis runs bounded and repeatable,
and record the runs of the colength ladder.

derandomize keeps the example sets (and so the suite runtime) identical
across runs; the exact division engine has rare slow inputs that random
draws would otherwise hit once in a while.
"""

import importlib

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def colength_runs(monkeypatch):
    """(module, truncate_degree, extending, basis) of every standard basis
    that local_colength runs, in order."""
    # the package re-exports the function under the submodule's name
    sb = importlib.import_module("germlab.standard_basis")
    real = sb.standard_basis
    recorded = []

    def recorder(module, **kwargs):
        basis = real(module, **kwargs)
        recorded.append((module, kwargs.get("truncate_degree"), kwargs.get("extending"), basis))
        return basis

    monkeypatch.setattr(sb, "standard_basis", recorder)
    return recorded
