import os
import sys

import numpy as np
import pytest

from nwacal import GenConfig, generate_population, montecarlo, poisson_design, srs_design

_RUN_BLOCKS = montecarlo._run_blocks
#: The file that _logged_run_blocks appends to (set by the pool_tasks fixture).
_TASK_LOG = None


def _logged_run_blocks(args):
    """montecarlo._run_blocks, after appending "pid first last" to _TASK_LOG.
    A module-level function, so that the worker pool can pickle it."""
    with open(_TASK_LOG, "a") as fh:
        fh.write(f"{os.getpid()} {args[1]} {args[2]}\n")
    return _RUN_BLOCKS(args)


@pytest.fixture
def pool_tasks(monkeypatch, tmp_path):
    """Logs every _run_blocks task of run_study. Returns a reader of the
    tasks since its last call: (ran in a worker process, first block, last
    block) for each, in block order."""
    log = tmp_path / "run_blocks.log"
    monkeypatch.setattr(sys.modules[__name__], "_TASK_LOG", str(log))
    monkeypatch.setattr(montecarlo, "_run_blocks", _logged_run_blocks)

    def read():
        lines = log.read_text().splitlines() if log.exists() else []
        log.unlink(missing_ok=True)
        tasks = [[int(v) for v in line.split()] for line in lines]
        return sorted((pid != os.getpid(), first, last) for pid, first, last in tasks)

    return read


def assert_pool_ran(tasks, n_blocks):
    """The tasks of pool_tasks ran in worker processes, at least two of them,
    and together they took blocks 0..n_blocks-1 once each."""
    assert len(tasks) >= 2 and all(in_worker for in_worker, _, _ in tasks), tasks
    assert [k for _, first, last in tasks for k in range(first, last)] == list(range(n_blocks)), tasks


@pytest.fixture(scope="session")
def study_population():
    """Default-settings population: N=1000, mu=(4,4), rho=0.6, lam=(0.1,0.4)."""
    return generate_population(GenConfig(N=1000, seed=42))


@pytest.fixture(scope="session")
def small_population():
    """Small population for fast replicate loops."""
    return generate_population(GenConfig(N=200, seed=7))


@pytest.fixture(scope="session")
def study_srs(study_population):
    return srs_design(study_population.size, 100)


@pytest.fixture(scope="session")
def study_poisson(study_population):
    return poisson_design(study_population, 100.0)


def random_instance(seed: int, n: int = 20, q: int = 2):
    """A small sample-level dataset: x with intercept, pi, r, y."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(4.0, 1.0, size=(n, q - 1))
    x = np.column_stack([np.ones(n), x1])
    pi = rng.uniform(0.2, 0.9, size=n)
    p = 1.0 / (1.0 + np.exp(-(x @ np.linspace(0.1, 0.4, q))))
    r = (rng.random(n) < p).astype(np.int64)
    y = x @ rng.normal(1.0, 0.5, size=q) + rng.normal(0, 0.5, size=n)
    return x, pi, r, y
