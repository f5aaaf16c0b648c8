import pytest

from poissonlab import poisson_core


@pytest.fixture
def summation_calls(monkeypatch):
    """The functionals passed to the batched summation entry,
    poisson_core._batched_moments, one (rate, row of caps) per functional
    summed."""
    calls = []
    original = poisson_core._batched_moments

    def counted(lams, caps_a, *args, **kwargs):
        calls.extend((lam, j) for lam in lams for j in range(len(caps_a)))
        return original(lams, caps_a, *args, **kwargs)

    monkeypatch.setattr(poisson_core, "_batched_moments", counted)
    return calls
