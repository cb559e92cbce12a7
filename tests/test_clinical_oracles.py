"""Columnar kernels, visitation, scores and subsets against per-trajectory loops.

The set is shaped like the clinical path's output: lengths 1-24, state ids
with gaps (including the highest id, as when k-means drops its top
clusters), (s, a) pairs never seen, one fully off-policy trajectory and one
on-policy step the scoring kernel gives probability zero. Every comparison
is exact: the columnar code must reproduce the reference loops bit for bit.
"""

import numpy as np
import pytest

import oracles
from consensus_irl import (
    RewardModel,
    TrajectorySet,
    TransitionModel,
    empirical_state_visitation,
    estimate_transitions,
    greedy_policy,
    initial_state_distribution,
    score_trajectories,
)
from consensus_irl.analyze import _reward_deltas

from conftest import make_set

N_STATES, N_ACTIONS = 30, 4
COLUMNS = ("L", "C", "log_likelihood", "end_state_reward", "fully_off_policy")
UNUSED_STATES = (3, 11, 29)
USED_STATES = [s for s in range(N_STATES) if s not in UNUSED_STATES]


def _chain(rng, length, pick_action):
    triples = np.empty((length, 3), dtype=np.int64)
    s = int(rng.choice(USED_STATES))
    for t in range(length):
        sp = int(rng.choice(USED_STATES))
        triples[t] = (s, pick_action(s), sp)
        s = sp
    return triples


def clinical_shaped():
    """(set, scoring kernel, reward, policy) for the clinical-shaped set."""
    rng = np.random.default_rng(2024)
    blocks, ids, tags, died = [], [], [], []
    for i in range(150):
        # action 3 is never taken, so every (s, 3) pair is unseen
        blocks.append(_chain(rng, 1 + i % 24, lambda s: int(rng.integers(3))))
        tags.append({"sex": str(rng.choice(["f", "m"]))})
        if i % 5:
            tags[-1]["site"] = str(rng.choice(["north", "south"]))
        ids.append(f"p{i:03d}")
        died.append(bool(rng.random() < 0.2))
    base = make_set(blocks, ids, tags, died, N_STATES, N_ACTIONS)
    reward = RewardModel(rng.uniform(-1, 1, N_STATES))
    policy = greedy_policy(estimate_transitions(base), reward)

    off = _chain(rng, 7, lambda s: next(a for a in range(3) if a != policy.actions[s]))
    tset = make_set(
        blocks + [off], ids + ["off"], tags + [{"sex": "f"}], died + [False], N_STATES, N_ACTIONS
    )
    # zero out one observed on-policy transition in the scoring kernel
    kernel = estimate_transitions(tset)
    probs = kernel.probs.copy()
    s, a, sp = next(
        (s, a, sp)
        for s, a, sp in tset.triples
        if a == policy.actions[s] and np.count_nonzero(probs[s, a]) > 1
    )
    probs[s, a, sp] = 0.0
    probs[s, a] /= probs[s, a].sum()
    return tset, TransitionModel.from_dense(probs, kernel.visit_counts), reward, policy


@pytest.fixture(scope="module")
def clinical():
    return clinical_shaped()


def test_set_has_the_clinical_shape(clinical):
    tset, _, _, _ = clinical
    assert set(tset.lengths.tolist()) == set(range(1, 25))
    visited = set(tset.triples[:, [0, 2]].ravel().tolist())
    assert visited.isdisjoint(UNUSED_STATES)
    assert not (tset.triples[:, 1] == 3).any()


def test_kernel_matches_reference(clinical):
    tset = clinical[0]
    for dims in ((None, None), (N_STATES + 2, N_ACTIONS + 1)):
        model = estimate_transitions(tset, *dims)
        probs, visits = oracles.reference_estimate_transitions(
            tset, dims[0] or N_STATES, dims[1] or N_ACTIONS
        )
        assert np.array_equal(model.probs, probs)
        assert np.array_equal(model.visit_counts, visits)
    assert (model.visit_counts == 0).any()


def test_visitation_and_initial_distribution_match_reference(clinical):
    tset = clinical[0]
    for n_states in (N_STATES, N_STATES + 2):
        got = empirical_state_visitation(tset, n_states)
        assert np.array_equal(got, oracles.reference_state_visitation(tset, n_states))
        d0 = initial_state_distribution(tset, n_states)
        assert np.array_equal(d0, oracles.reference_initial_distribution(tset, n_states))
    assert got[list(UNUSED_STATES)].tolist() == [0.0, 0.0, 0.0]


def test_every_score_field_matches_reference(clinical):
    tset, kernel, reward, policy = clinical
    scores = score_trajectories(tset, kernel, reward, policy)
    want = oracles.reference_scores(tset, kernel.probs, reward.rewards, policy.actions)
    got = list(zip(scores.ids, *(getattr(scores, c).tolist() for c in COLUMNS)))
    assert got == want
    assert any(ll == float("-inf") for _, _, _, ll, _, _ in got)
    assert got[-1][0] == "off" and got[-1][5] and got[-1][3] == 0.0


def test_single_trajectory_scores_match_reference(clinical):
    tset, kernel, reward, policy = clinical
    want = oracles.reference_scores(tset, kernel.probs, reward.rewards, policy.actions)
    for i, row in enumerate(want):
        one = tset.subset(np.arange(len(tset)) == i)
        sc = score_trajectories(one, kernel, reward, policy)
        assert (sc.ids[0], *(getattr(sc, c)[0].item() for c in COLUMNS)) == row


def test_reward_deltas_match_reference(clinical):
    tset = clinical[0]
    rng = np.random.default_rng(5)
    r1 = RewardModel(rng.uniform(-1, 1, N_STATES))
    r2 = RewardModel(rng.uniform(-1, 1, N_STATES))
    want = [
        oracles.reference_reward_delta(tr, r1.rewards, r2.rewards)
        for tr in oracles.reference_trajectories(tset)
    ]
    assert _reward_deltas(tset, r1, r2).tolist() == want


def test_subset_matches_reference(clinical):
    tset = clinical[0]
    ids = tset.ids[::3] + ["off"]
    sub = tset.subset(np.isin(tset.ids, ids))
    want = oracles.reference_subset(tset, ids)
    assert sub.ids == [tr.id for tr in want]
    assert (sub.n_states, sub.n_actions) == (N_STATES, N_ACTIONS)
    for got, ref in zip(oracles.reference_trajectories(sub), want):
        assert np.array_equal(got.triples, ref.triples)
        assert got.demographics == ref.demographics
        assert got.died_in_hospital == ref.died_in_hospital
    assert sub.demographic_tags() == ["sex", "site"]


def test_csv_round_trip_keeps_columns(clinical, tmp_path):
    tset = clinical[0]
    path = tmp_path / "clinical.csv"
    tset.to_csv(path)
    back = TrajectorySet.from_csv(path, N_STATES, N_ACTIONS)
    # the reader takes trajectories in id order, and "off" sorts before "p000"
    order = sorted(range(len(tset)), key=tset.ids.__getitem__)
    assert order != list(range(len(tset)))
    assert back.ids == [tset.ids[i] for i in order]
    by_id = oracles.reference_trajectories(tset)
    assert np.array_equal(back.triples, np.concatenate([by_id[i].triples for i in order]))
    assert np.array_equal(back.lengths, tset.lengths[order])
    assert np.array_equal(back.died_in_hospital, tset.died_in_hospital[order])
    # a missing tag is written as an empty cell and reads back as missing
    assert None in tset.demographics["site"].tolist()
    assert back.demographics["site"].tolist() == tset.demographics["site"][order].tolist()

