"""Deviation/likelihood scoring identities and retained-set selection rules."""

import copy
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from consensus_irl import (
    CohortEmptyError,
    InputError,
    ParameterError,
    PruneConfig,
    RewardModel,
    TrajectoryScores,
    TransitionModel,
    estimate_transitions,
    expected_reward_table,
    greedy_policy,
    read_scores_csv,
    score_trajectories,
    select_retained,
    write_scores_csv,
)

from consensus_irl.analyze import _reward_deltas
from consensus_irl.mdp import DeterministicPolicy, cell_index
from consensus_irl.prune import _log_likelihoods
from consensus_irl.trajectories import TrajectorySet
from conftest import make_set, traced_peak
from oracles import reference_trajectories

COLUMNS = ("L", "C", "log_likelihood", "end_state_reward", "fully_off_policy")


def _scores(ids, C=None, ll=None):
    """Scores with the given C and log-likelihood columns (default 1.0 and 0.0)."""
    n = len(ids)
    C = np.ones(n) if C is None else np.asarray(C, dtype=float)
    ll = np.zeros(n) if ll is None else ll
    return TrajectoryScores(ids, np.zeros(n), C, ll, np.zeros(n), np.zeros(n, dtype=bool))


def _kept(scores, config):
    """The ids select_retained keeps, and those it prunes, in the order of scores."""
    retained = select_retained(scores, config)
    assert retained.dtype == bool and retained.shape == (len(scores),)
    ids = np.array(scores.ids)
    return ids[retained].tolist(), ids[~retained].tolist()


def _score_one(triples, model, reward, policy, tid="a"):
    """score_trajectories on the one-trajectory set of these triples, as plain Python values."""
    one = make_set([triples], [tid], n_states=model.n_states, n_actions=model.n_actions)
    sc = score_trajectories(one, model, reward, policy)
    return SimpleNamespace(id=sc.ids[0], **{c: getattr(sc, c)[0].item() for c in COLUMNS})


def _model(probs):
    probs = np.asarray(probs, dtype=float)
    return TransitionModel.from_dense(probs, np.zeros(probs.shape[:2], dtype=int))


@pytest.fixture
def random_instance():
    """Random 8-state, 3-action scoring setup with 1000 chained trajectories."""
    rng = np.random.default_rng(42)
    probs = rng.dirichlet(np.ones(8), size=(8, 3))
    model = _model(probs)
    reward = RewardModel(rng.uniform(-1, 1, size=8))
    policy = greedy_policy(model, reward)
    blocks = []
    for i in range(1000):
        length = int(rng.integers(1, 7))
        triples = np.empty((length, 3), dtype=np.int64)
        s = int(rng.integers(8))
        for t in range(length):
            a = int(rng.integers(3))
            sp = int(rng.integers(8))
            triples[t] = (s, a, sp)
            s = sp
        blocks.append(triples)
    ids = [f"t{i:04d}" for i in range(1000)]
    return make_set(blocks, ids, n_states=8, n_actions=3), model, reward, policy


# ---------------------------------------------------------------- deviation


def test_on_policy_trajectory_scores_perfectly(two_state):
    model, reward = two_state
    policy = greedy_policy(model, reward)
    sc = _score_one([[0, 1, 1], [1, 0, 1]], model, reward, policy)
    assert sc.L == 0.0
    assert sc.C == 1.0
    assert sc.log_likelihood == 0.0
    assert not sc.fully_off_policy
    assert sc.end_state_reward == 1.0


def test_single_bad_step_hand_values(two_state):
    model, reward = two_state
    policy = greedy_policy(model, reward)
    # staying at state 0 forfeits the +1 arrival: r_opt = +1, r_sel = -1
    sc = _score_one([[0, 0, 0]], model, reward, policy)
    assert sc.L == pytest.approx(2.0, abs=1e-12)
    assert sc.C == pytest.approx(math.exp(-2.0), abs=1e-9)
    assert sc.C == pytest.approx(0.13534, abs=5e-6)


def test_two_step_mixed_gaps_hand_values(two_state):
    model, reward = two_state
    policy = greedy_policy(model, reward)
    # per-step gaps 2 then 0, so the mean loss is 1
    sc = _score_one([[0, 0, 0], [0, 1, 1]], model, reward, policy)
    assert sc.L == pytest.approx(1.0, abs=1e-12)
    assert sc.C == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert sc.C == pytest.approx(0.36788, abs=5e-6)


def test_zero_length_trajectory_is_rejected(two_state):
    model, reward = two_state
    policy = greedy_policy(model, reward)
    with pytest.raises(InputError, match="empty: at least one transition"):
        _score_one(np.empty((0, 3)), model, reward, policy, tid="empty")


def test_deviation_score_identity_on_random_trajectories(random_instance):
    """C must equal both exp(-L) and the geometric-mean formula it came from."""
    ts, model, reward, policy = random_instance
    table = expected_reward_table(model, reward)
    scores = score_trajectories(ts, model, reward, policy)
    assert len(scores) == 1000 and scores.ids == ts.ids
    for tr, L, C in zip(reference_trajectories(ts), scores.L.tolist(), scores.C.tolist()):
        s, a = tr.triples[:, 0], tr.triples[:, 1]
        gaps = table[s, policy.actions[s]] - table[s, a]
        geometric = float(np.prod(np.exp(-gaps)) ** (1.0 / len(gaps)))
        assert abs(C - geometric) <= 1e-9
        assert abs(L - gaps.mean()) <= 1e-12
        assert abs(C - math.exp(-L)) <= 1e-9
        assert C == math.exp(-L)  # taken with math.exp, element by element
        assert 0.0 < C <= 1.0
        assert L >= -1e-12


def test_worse_action_substitution_strictly_lowers_C(random_instance):
    ts, model, reward, policy = random_instance
    table = expected_reward_table(model, reward)
    checked = 0
    for tr in reference_trajectories(ts)[:200]:
        base = _score_one(tr.triples, model, reward, policy)
        for t in range(len(tr.triples)):
            s, a = tr.triples[t, 0], tr.triples[t, 1]
            worse = [b for b in range(3) if table[s, b] < table[s, a] - 1e-12]
            if not worse:
                continue
            triples = tr.triples.copy()
            triples[t, 1] = worse[0]
            swapped = _score_one(triples, model, reward, policy)
            assert swapped.C < base.C
            assert swapped.L > base.L
            checked += 1
            break
    assert checked > 50


# --------------------------------------------------------------- likelihood


def test_likelihood_two_half_probability_steps():
    probs = np.full((2, 1, 2), 0.5)
    model = _model(probs)
    reward = RewardModel(np.array([0.0, 1.0]))
    policy = greedy_policy(model, reward)
    ll = _score_one([[0, 0, 0], [0, 0, 1]], model, reward, policy).log_likelihood
    assert ll == pytest.approx(math.log(0.25), abs=1e-12)
    assert ll == pytest.approx(-1.38629, abs=5e-6)


def test_likelihood_fully_off_policy_is_zero_and_flagged(two_state):
    model, reward = two_state
    policy = greedy_policy(model, reward)  # policy takes action 1 at state 0
    sc = _score_one([[0, 0, 0], [0, 0, 0]], model, reward, policy)
    assert sc.log_likelihood == 0.0
    assert sc.fully_off_policy


def test_likelihood_deterministic_on_policy_is_zero(two_state):
    model, reward = two_state
    policy = greedy_policy(model, reward)
    on_policy = [[0, 1, 1], [1, 0, 1], [1, 0, 1]]
    assert _score_one(on_policy, model, reward, policy).log_likelihood == 0.0


def test_likelihood_zero_probability_on_policy_step(two_state):
    model, reward = two_state
    policy = greedy_policy(model, reward)
    # the policy's action at state 0 lands in state 1 with probability 1,
    # so observing it land in state 0 is impossible under the kernel
    assert _score_one([[0, 1, 0]], model, reward, policy).log_likelihood == float("-inf")


def test_likelihood_ignores_off_policy_steps(two_state):
    model, reward = two_state
    policy = greedy_policy(model, reward)
    on_only, mixed = [[0, 1, 1]], [[0, 0, 0], [0, 1, 1]]
    ll = [_score_one(tr, model, reward, policy).log_likelihood for tr in (mixed, on_only)]
    assert ll[0] == ll[1]


# ---------------------------------------------------------------- selection


def test_scoring_holds_one_block_of_steps(rows_400k):
    """Peak traced memory of score_trajectories per row, on 400,000 rows: 34.6
    bytes with every step's gaps and log-probabilities gathered at once, 5.4 one
    block of trajectories at a time, 8.2 with a block's int32 ids copied to intp
    columns to index with."""
    transitions = estimate_transitions(rows_400k)
    reward = RewardModel(np.linspace(-1, 1, 100))
    policy = greedy_policy(transitions, reward)
    peak = traced_peak(lambda: score_trajectories(rows_400k, transitions, reward, policy))
    assert peak < 16 * 400_000


def _int32_copy(tset):
    """The same set with its ids held int32, as a set with an id of 2**15 holds them."""
    wide = copy.copy(tset)
    wide.triples = tset.triples.astype(np.int32)
    return wide


def _all_scores(tset, model, reward, policy):
    return [getattr(score_trajectories(tset, model, reward, policy), c) for c in COLUMNS]


def _log_likelihoods_only(tset, model, reward, policy):  # no dense reward products
    return list(_log_likelihoods(tset, policy, model))


def _top_ids_walks(n_states=2**15):
    """300 random walks of 6 steps among the top 50 state ids, 32767 included."""
    rng = np.random.default_rng(7)
    states = rng.integers(n_states - 50, n_states, size=(300, 7))
    states[0, 0] = n_states - 1
    triples = np.stack([states[:, :-1], rng.integers(0, 2, (300, 6)), states[:, 1:]], 2)
    tset = TrajectorySet(triples.reshape(-1, 3), [6] * 300, range(300), n_states, 2)
    cells = cell_index(triples.reshape(-1, 3).astype(np.int64), n_states, 2)
    assert set(estimate_transitions(tset).cells) >= set(cells.tolist())
    return tset


@pytest.mark.parametrize("walks, scores", [
    (None, _all_scores), (_top_ids_walks, _log_likelihoods_only),
], ids=["20 states", "top ids of 32768 states"])
def test_narrow_ids_give_the_int32_bits(small_population, walks, scores):
    """Kernel cells, scores (log-likelihoods alone at 32768 states, where the
    dense reward products would take seconds) and reward deltas, each step on
    or off a random policy, are those of the same ids held int32, bit for bit."""
    tset = walks() if walks else small_population.trajectories
    assert tset.triples.dtype == np.int16
    rng = np.random.default_rng(1)
    reward1, reward2 = (RewardModel(rng.uniform(-1, 1, tset.n_states)) for _ in range(2))
    policy = DeterministicPolicy(rng.integers(0, tset.n_actions, tset.n_states))

    def results(t):
        model = estimate_transitions(t)
        return [model.cells, model.values, model.visit_counts,
                *scores(t, model, reward1, policy), _reward_deltas(t, reward1, reward2)]

    for got, expected in zip(results(tset), results(_int32_copy(tset))):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_deviation_selection_keeps_highest_C():
    scores = _scores(["a", "b", "c", "d"], C=[1.0, 0.9, 0.5, 0.1])
    retained, pruned = _kept(scores, PruneConfig(retain_fraction=0.5))
    assert retained == ["a", "b"]
    assert pruned == ["c", "d"]


def test_full_retention_keeps_everything():
    scores = _scores(["a", "b", "c"], C=[0.2, 0.9, 0.5])
    retained, pruned = _kept(scores, PruneConfig(retain_fraction=1.0))
    assert retained == ["a", "b", "c"]
    assert pruned == []


def test_fraction_rounds_up():
    scores = _scores([f"t{i}" for i in range(5)], C=[0.9, 0.8, 0.7, 0.6, 0.5])
    retained, _ = _kept(scores, PruneConfig(retain_fraction=0.5))
    assert len(retained) == 3


def test_deviation_ties_break_by_id():
    scores = _scores(["d", "b", "a", "c"], C=[0.5, 0.5, 0.5, 0.9])
    retained, _ = _kept(scores, PruneConfig(retain_fraction=0.5))
    assert sorted(retained) == ["a", "c"]


def test_deviation_selection_is_monotone_in_C():
    rng = np.random.default_rng(0)
    scores = _scores([f"t{i:03d}" for i in range(97)], C=rng.uniform(0.01, 1, 97))
    retained = select_retained(scores, PruneConfig(retain_fraction=0.3))
    assert scores.C[retained].min() >= scores.C[~retained].max()
    assert len(retained) == 97


def test_likelihood_percentile_hand_example():
    scores = _scores(["a", "b", "c", "d"], ll=[-1.0, -2.0, -3.0, -4.0])
    cfg = PruneConfig(method="likelihood", likelihood_percentile=50)
    retained, pruned = _kept(scores, cfg)
    assert retained == ["a", "b"]
    assert pruned == ["c", "d"]


def test_likelihood_threshold_mode():
    scores = _scores(["a", "b", "c"], ll=[-1.0, -2.0, -3.0])
    cfg = PruneConfig(method="likelihood", likelihood_threshold=0.2)
    retained, _ = _kept(scores, cfg)
    assert retained == ["a"]  # ln 0.2 ~ -1.609


def test_likelihood_default_percentile_comes_from_fraction():
    scores = _scores([f"t{i}" for i in range(10)], ll=-np.arange(10.0))
    cfg = PruneConfig(method="likelihood", retain_fraction=0.3)
    retained, _ = _kept(scores, cfg)
    assert retained == ["t0", "t1", "t2"]


def test_likelihood_minus_infinity_is_prunable_but_representable():
    scores = _scores(["a", "b", "c"], ll=[float("-inf"), -1.0, 0.0])
    cfg = PruneConfig(method="likelihood", likelihood_percentile=50)
    retained, pruned = _kept(scores, cfg)
    assert "a" in pruned
    all_kept, _ = _kept(scores, PruneConfig(method="likelihood", likelihood_percentile=100))
    assert all_kept == ["a", "b", "c"]


def test_likelihood_threshold_can_empty_the_selection():
    scores = _scores(["a", "b"], ll=[-3.0, -4.0])
    cfg = PruneConfig(method="likelihood", likelihood_threshold=0.9)
    with pytest.raises(CohortEmptyError):
        select_retained(scores, cfg)


def test_random_selection_is_seeded_and_sized():
    scores = _scores([f"t{i:02d}" for i in range(20)])
    cfg = PruneConfig(method="random", retain_fraction=0.4, seed=7)
    r1, p1 = _kept(scores, cfg)
    r2, p2 = _kept(scores, cfg)
    assert r1 == r2 and p1 == p2
    assert len(r1) == 8
    r3, _ = _kept(scores, PruneConfig(method="random", retain_fraction=0.4, seed=8))
    assert r1 != r3


def test_random_selection_ignores_input_order():
    ids = [f"t{i:02d}" for i in range(15)]
    cfg = PruneConfig(method="random", retain_fraction=0.5, seed=3)
    fwd, _ = _kept(_scores(ids), cfg)
    rev, _ = _kept(_scores(ids[::-1]), cfg)
    assert sorted(fwd) == sorted(rev)


def test_empty_scores_rejected():
    with pytest.raises(CohortEmptyError):
        select_retained(_scores([]), PruneConfig())


def test_scores_columns_must_match_the_ids():
    with pytest.raises(ParameterError, match="one value per id"):
        TrajectoryScores(["a", "b"], [0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [False, False])


def test_scores_compare_by_identity_not_by_columns():
    a, b = _scores(["a", "b"]), _scores(["a", "b"])
    assert a != b and a == a  # eq=False: compare the columns with np.array_equal


# every selection a config can ask for: methods, fractions, percentiles and thresholds
_CONFIGS = st.one_of(
    st.builds(
        PruneConfig,
        method=st.sampled_from(["deviation", "random"]),
        retain_fraction=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**31),
    ),
    st.builds(PruneConfig, method=st.just("likelihood"), retain_fraction=st.floats(0.01, 1.0)),
    st.builds(
        PruneConfig, method=st.just("likelihood"),
        likelihood_percentile=st.floats(0.01, 100.0),
    ),
    st.builds(
        PruneConfig, method=st.just("likelihood"),
        likelihood_threshold=st.floats(1e-6, 1.0),
    ),
)
# few distinct values, so C and log-likelihood ties are common; -inf is an on-policy
# step of probability zero
_C_VALUES = st.sampled_from([1.0, 0.5, 0.25, math.exp(-3.0), 1e-300, 0.0])
_LL_VALUES = st.sampled_from([0.0, -0.5, -1.0, -2.5, -700.0, float("-inf")])


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(st.text("ab01_", min_size=1, max_size=4), min_size=1, max_size=40, unique=True),
    data=st.data(),
    config=_CONFIGS,
)
def test_mask_selects_the_reference_ids(ids, data, config):
    """The mask keeps exactly the ids the id-list selection keeps, in any input order."""
    n = len(ids)
    C = data.draw(st.lists(_C_VALUES, min_size=n, max_size=n))
    ll = data.draw(st.lists(_LL_VALUES, min_size=n, max_size=n))
    kept = []
    for perm in (range(n), data.draw(st.permutations(range(n)))):
        scores = _scores([ids[i] for i in perm], C=[C[i] for i in perm], ll=[ll[i] for i in perm])
        try:
            want = oracles.reference_select_retained(scores, config)
        except CohortEmptyError:
            with pytest.raises(CohortEmptyError):
                select_retained(scores, config)
            return
        assert _kept(scores, config) == want
        kept.append(sorted(want[0]))
    assert kept[0] == kept[1]


def test_prune_config_validation():
    with pytest.raises(ParameterError):
        PruneConfig(method="entropy")
    with pytest.raises(ParameterError):
        PruneConfig(retain_fraction=0.0)
    with pytest.raises(ParameterError):
        PruneConfig(retain_fraction=1.5)
    with pytest.raises(ParameterError):
        PruneConfig(method="likelihood", likelihood_percentile=50, likelihood_threshold=0.5)
    with pytest.raises(ParameterError):
        PruneConfig(method="deviation", likelihood_percentile=50)
    with pytest.raises(ParameterError):
        PruneConfig(method="likelihood", likelihood_percentile=0)
    with pytest.raises(ParameterError):
        PruneConfig(method="likelihood", likelihood_threshold=0.0)


# ------------------------------------------------------------------ reports


def test_scores_csv_round_trip(tmp_path, small_population):
    pop = small_population
    ts = pop.trajectories
    rng = np.random.default_rng(1)
    L = rng.uniform(0, 2, size=len(ts))
    scores = TrajectoryScores(
        ts.ids, L, np.exp(-L), -rng.uniform(0, 3, size=len(ts)), np.full(len(ts), 0.25),
        np.zeros(len(ts), dtype=bool),
    )
    scores.log_likelihood[3] = float("-inf")
    scores.fully_off_policy[4] = True
    retained = select_retained(scores, PruneConfig(retain_fraction=0.5))
    path = tmp_path / "scores.csv"
    write_scores_csv(scores, retained, path, trajectories=ts)
    back, back_retained = read_scores_csv(path)
    assert np.array_equal(back_retained, retained)
    assert back.ids == scores.ids
    for column in COLUMNS:
        assert np.array_equal(getattr(back, column), getattr(scores, column)), column
    header = path.read_text().splitlines()[0].split(",")
    for tag in ts.demographic_tags():
        assert tag in header
    assert "died_in_hospital" in header


def test_scores_csv_needs_the_scored_set_in_order(tmp_path, small_population):
    ts = small_population.trajectories
    scores = _scores(ts.ids[::-1])
    with pytest.raises(ParameterError, match="in order"):
        write_scores_csv(scores, np.ones(len(ts), dtype=bool), tmp_path / "s.csv", ts)
