import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import coughmae.tensor as T

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=[1, 2], ids=["1cpu", "2cpu"])
def cpus(request, monkeypatch):
    """Usable CPU count the worker pools see; they run min(cpus, 2) threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
    return request.param


@pytest.fixture
def record_softmax(monkeypatch):
    """Call it to start recording; it returns the list that then receives the
    value of every coughmae.tensor.softmax call, in call order. Model code
    calls T.softmax through the module, so each attention call's
    (batch, heads, tokens, tokens) weights land there."""
    def start() -> list:
        outputs = []
        original = T.softmax

        def recording(*args, **kwargs):
            out = original(*args, **kwargs)
            outputs.append(out.data)
            return out

        monkeypatch.setattr(T, "softmax", recording)
        return outputs

    return start
