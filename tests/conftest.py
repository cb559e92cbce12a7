import sys
import tracemalloc

import numpy as np
import pytest

import consensus_irl as ci


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance checklist so its PASS/FAIL lines survive capture."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "REPORT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def make_set(blocks, ids=None, tags=None, died=None, n_states=None, n_actions=None):
    """The TrajectorySet of these per-trajectory triple blocks, in order.

    ids default to t0, t1, ...; tags is one {tag: value} dict per trajectory
    (a tag a trajectory lacks is missing), died one flag per trajectory.
    """
    blocks = [np.asarray(block, dtype=np.int64) for block in blocks]
    ids = [f"t{i}" for i in range(len(blocks))] if ids is None else ids
    tags = [{}] * len(blocks) if tags is None else tags
    names = {t for carried in tags for t in carried}
    return ci.TrajectorySet(
        np.concatenate(blocks) if blocks else np.empty((0, 3)),
        [len(block) for block in blocks],
        ids,
        n_states,
        n_actions,
        {t: [carried.get(t) for carried in tags] for t in names},
        died,
    )


def traced_peak(call):
    """The peak of tracemalloc's traced memory while call runs, after one untraced warm-up."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

@pytest.fixture(scope="session")
def rows_400k():
    """A seeded 100-state set of 20,000 trajectories of 20 steps, the large_world
    benchmark's 400,000 rows, for the guards on per-step working sets."""
    world = ci.generate_world(100, 4, 5, seed=3, horizon=20)
    config = ci.PopulationConfig(n_trajectories=20_000, corrupted_fraction=0.3, seed=3)
    return ci.generate_population(world, config).trajectories


@pytest.fixture(scope="session")
def small_world():
    return ci.generate_world(20, 3, 4, seed=11, horizon=8)


@pytest.fixture(scope="session")
def small_population(small_world):
    cfg = ci.PopulationConfig(n_trajectories=80, corrupted_fraction=0.3, seed=5)
    return ci.generate_population(small_world, cfg)


@pytest.fixture(scope="session")
def two_state():
    """2-state MDP: at s0, a0 self-loops (reward -1) and a1 jumps to s1 (+1)."""
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 1.0
    probs[0, 1, 1] = 1.0
    probs[1, 0, 1] = 1.0
    probs[1, 1, 1] = 1.0
    transitions = ci.TransitionModel.from_dense(probs, np.ones((2, 2), dtype=np.int64))
    reward = ci.RewardModel(np.array([-1.0, 1.0]))
    return transitions, reward
