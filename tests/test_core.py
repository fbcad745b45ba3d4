import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeated_games.core import (
    ContractViolation,
    Game,
    History,
    Trajectory,
    commit_stats,
    coordination_game,
    derive_trial_seed,
    example1_game,
    rollout,
    simulate_payoffs,
    step,
)
from repeated_games.learners import FixedAction, PeriodicSwitcher
from repeated_games.partners import GrimTrigger, GrimTriggerSpec, UniformPartner


def test_example1_game_payoffs():
    g = example1_game()
    assert g.rows == 2 and g.cols == 3
    assert g.payoff.tolist() == [[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]]
    assert g.payoff_range == (0.0, 2.0)


def test_example1_game_normalized():
    g = example1_game(normalized=True)
    assert g.payoff_range == (0.0, 1.0)
    assert g.payoff.max() == 1.0 and g.payoff.min() == 0.0


def test_coordination_game_identity():
    g = coordination_game(4)
    assert np.array_equal(g.payoff, np.eye(4))


def test_game_validation():
    with pytest.raises(ValueError):
        Game(2, 2, np.zeros((3, 2)), (0, 1))
    with pytest.raises(ValueError):
        Game(2, 2, np.array([[0, 2], [0, 0]]), (0, 1))  # payoff outside range
    with pytest.raises(ValueError):
        coordination_game(0)


def test_game_json_round_trip():
    g = example1_game()
    g2 = Game.from_json(g.to_json())
    assert np.array_equal(g.payoff, g2.payoff)
    assert g2.payoff_range == g.payoff_range
    parsed = json.loads(g.to_json())
    assert set(parsed) == {"rows", "cols", "payoff", "range"}


def test_history_append_and_copy():
    h = History([(0, 1), (1, 2)])
    assert len(h) == 2
    assert h.pair(1) == (1, 2)
    assert h.last_alice_action() == 1
    h2 = h.copy()
    h2.append(0, 0)
    assert len(h) == 2 and len(h2) == 3


def test_history_empty_last_action_raises():
    with pytest.raises(ValueError):
        History().last_alice_action()


def test_derive_trial_seed_is_stable_and_distinct():
    s = derive_trial_seed(42, 7, "learner")
    assert s == derive_trial_seed(42, 7, "learner")
    others = {
        derive_trial_seed(42, 7, "partner"),
        derive_trial_seed(42, 8, "learner"),
        derive_trial_seed(43, 7, "learner"),
    }
    assert s not in others and len(others) == 3


@given(st.integers(0, 2**32 - 1), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_derive_trial_seed_in_range(master, trial):
    s = derive_trial_seed(master, trial, "x")
    assert 0 <= s < 2**64


def test_step_rejects_out_of_range_actions():
    g = example1_game()

    class Bad(UniformPartner):
        def decide(self):
            return 9

    with pytest.raises(ContractViolation, match="alice"):
        step(g, Bad(2, 0), UniformPartner(3, 1), History())


def test_simulate_payoffs_within_range():
    g = example1_game()
    pays = simulate_payoffs(g, UniformPartner(2, 1), UniformPartner(3, 2), 5000)
    assert pays.min() >= 0.0 and pays.max() <= 2.0
    assert len(pays) == 5000


def test_rollout_is_bit_exact_reproducible():
    g = coordination_game(3)
    t1 = rollout(g, UniformPartner(3, None), UniformPartner(3, None), 400, seed=99)
    t2 = rollout(g, UniformPartner(3, None), UniformPartner(3, None), 400, seed=99)
    assert np.array_equal(t1.alice, t2.alice)
    assert np.array_equal(t1.bob, t2.bob)
    assert np.array_equal(t1.payoffs, t2.payoffs)
    t3 = rollout(g, UniformPartner(3, None), UniformPartner(3, None), 400, seed=100)
    assert not np.array_equal(t1.bob, t3.bob)


def test_simulate_payoffs_appends_to_history():
    g = coordination_game(3)
    h = History([(2, 2)])
    pays = simulate_payoffs(g, UniformPartner(3, 5), UniformPartner(3, 6), 50, h)
    assert len(h) == 51 and h.pair(0) == (2, 2)
    assert [g.payoff_at(a, b) for a, b in h.pairs()[1:]] == pays.tolist()
    t = rollout(g, UniformPartner(3, 5), UniformPartner(3, 6), 50)
    assert t.alice.dtype == np.int64
    assert t.alice.tolist() == h.alice[1:] and t.bob.tolist() == h.bob[1:]


def test_commit_stats_last_switch_and_final_action():
    g = coordination_game(3)
    last, final = commit_stats(g, lambda s=None: PeriodicSwitcher(3, 7, s),
                               lambda s=None: UniformPartner(3, s), 4, 50, 0, "t")
    # switches at stages 7, 14, ..., 49; stage 49 plays (49 // 7) % 3 = 1
    assert last.tolist() == [49] * 4
    assert final.tolist() == [1] * 4
    last, final = commit_stats(g, lambda s=None: FixedAction(2, 3, s),
                               lambda s=None: UniformPartner(3, s), 2, 10, 0, "t")
    assert last.tolist() == [0, 0] and final.tolist() == [2, 2]


def test_commit_stats_checks_both_players_actions():
    g = coordination_game(3)

    class Bad(UniformPartner):
        def decide(self):
            return 3

    with pytest.raises(ContractViolation, match="alice"):
        commit_stats(g, lambda s=None: Bad(3, s), lambda s=None: UniformPartner(3, s),
                     1, 5, 0, "t")
    with pytest.raises(ContractViolation, match="bob"):
        commit_stats(g, lambda s=None: FixedAction(0, 3, s), lambda s=None: Bad(3, s),
                     1, 5, 0, "t")


def test_trajectory_jsonl_round_trip():
    g = example1_game()
    t = rollout(g, FixedAction(0, 2), GrimTrigger(GrimTriggerSpec(0, 0, 2, 3)), 10, seed=1)
    lines = t.to_jsonl().strip().split("\n")
    assert len(lines) == 10
    rec = json.loads(lines[0])
    assert set(rec) == {"n", "a", "b", "u"}
    t2 = Trajectory.from_jsonl(t.to_jsonl(), g)
    assert np.array_equal(t.alice, t2.alice)
    assert np.array_equal(t.payoffs, t2.payoffs)


def test_replay_contract_sync_rejects_rewind():
    phi = GrimTrigger(GrimTriggerSpec(0, 0, 2, 3))
    phi._sync(History([(0, 0), (0, 0)]))
    with pytest.raises(ContractViolation):
        phi._sync(History([(0, 0)]))


def test_replay_reproduces_conditioned_state():
    """A fresh instance synced onto a history matches the live-played one."""
    h = History([(0, 0), (1, 0), (0, 2)])
    live = GrimTrigger(GrimTriggerSpec(0, 0, 2, 3))
    for a, b in h.pairs():
        live.observe(a, b)
    replayed = GrimTrigger(GrimTriggerSpec(0, 0, 2, 3))
    replayed._sync(h)
    assert live._triggered == replayed._triggered
    assert live.decide() == replayed.decide()
