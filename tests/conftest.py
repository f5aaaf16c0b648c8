import pytest

from poissonlab import poisson_core


@pytest.fixture
def summation_calls(monkeypatch):
    """The functionals passed to the batched summation entry,
    poisson_core._batched_moments, one per functional summed."""
    calls = []
    original = poisson_core._batched_moments

    def counted(fs, *args, **kwargs):
        calls.extend(fs)
        return original(fs, *args, **kwargs)

    monkeypatch.setattr(poisson_core, "_batched_moments", counted)
    return calls
