import numpy as np
import pytest

from ucp_locality.dataset import Dataset, Project, generate_synthetic


def make_project(pid, env=(3, 3, 3, 3, 3, 3, 3, 3), uaw=10.0, uucw=100.0,
                 tcf=1.0, ef=1.0, effort=2000.0, source="industrial"):
    return Project(id=pid, source=source, uaw=uaw, uucw=uucw, tcf=tcf,
                   ef=ef, env=tuple(env), effort=effort)


def make_dataset(projects, name="fixture"):
    return Dataset(tuple(projects), name=name)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_synthetic():
    return generate_synthetic(7, 24)


@pytest.fixture
def bench_synthetic():
    return generate_synthetic(42, 40)


def stepwise_fallback_set():
    """12 rows whose column 0 has its unique minimum, 0, in row 0.  Without
    row 0 the column is positive and skewed, so that fold's stepwise model
    log-scales it, keeps it, and cannot evaluate row 0."""
    c0 = np.concatenate([[0.0], 2.0 ** -np.arange(10, -1, -1)])
    c1 = np.array([0.3, 0.9, 0.1, 0.5, 0.7, 0.2, 1.0, 0.0, 0.6, 0.4, 0.8, 0.35])
    y = 20 + np.log2(np.maximum(c0, 2.0 ** -11)) + 0.1 * np.sin(np.arange(12))
    return np.column_stack([c0, c1]), y
