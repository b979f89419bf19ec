import numpy as np
import pytest

from dmagma.groups import parse_group_spec
from dmagma.rings import parse_ring_spec
from dmagma.suite import DEFAULT_GROUPS, DEFAULT_RINGS


@pytest.fixture(scope="session")
def corpus_groups():
    """The default group corpus, parsed once per session."""
    return [(spec, parse_group_spec(spec)) for spec in DEFAULT_GROUPS]


@pytest.fixture(scope="session")
def corpus_rings():
    return [(spec, parse_ring_spec(spec)) for spec in DEFAULT_RINGS]


@pytest.fixture
def drawn_seeds(monkeypatch):
    """The seed of every sample stream (`np.random.default_rng`) created during the test."""
    seeds, real = [], np.random.default_rng

    def default_rng(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return seeds


@pytest.fixture
def no_sample_stream(monkeypatch):
    """Fail the test if it creates a sample stream (`np.random.default_rng`)."""

    def default_rng(seed):
        raise AssertionError(f"drew the sample stream of seed {seed}")

    monkeypatch.setattr(np.random, "default_rng", default_rng)
