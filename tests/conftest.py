import pytest

from poissonlab import poisson_core


@pytest.fixture
def summation_calls(monkeypatch):
    """The functionals passed to poisson_core._certified_sums, one per pass."""
    calls = []
    original = poisson_core._certified_sums

    def counted(f, *args, **kwargs):
        calls.append(f)
        return original(f, *args, **kwargs)

    monkeypatch.setattr(poisson_core, "_certified_sums", counted)
    return calls
