"""Alice-side learning algorithms.

Canonical representatives of the three learner classes the adversary
constructions target: passive almost surely (explore-then-commit), active
almost surely (epsilon-greedy expert evaluation with growing horizons), and
seeded mixtures of the two. Fixed-action experts and a couple of toy
switchers used by the oracle tests live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Game, Strategy, derive_trial_seed, point_mass

__all__ = [
    "FixedAction",
    "ExpertSet",
    "ExploreThenCommit",
    "StrategicExperts",
    "MixedLearner",
    "PeriodicSwitcher",
    "BernoulliSwitcher",
]


class FixedAction(Strategy):
    """Plays one action at every stage, regardless of history."""

    name = "fixed"
    deterministic = True

    def __init__(self, action: int, n_actions: int, seed=None):
        if not 0 <= action < n_actions:
            raise ValueError(f"action {action} out of range for {n_actions} actions")
        super().__init__(seed)
        self.action = action
        self.n_actions = n_actions

    def decide(self) -> int:
        return self.action

    def probs(self) -> np.ndarray:
        return point_mass(self.n_actions, self.action)

    def observe(self, a, b):
        self._pos += 1

    def reset(self):
        self._pos = 0


@dataclass(frozen=True)
class ExpertSet:
    """An ordered set of expert actions (the fixed-action overload)."""

    actions: tuple

    @staticmethod
    def fixed_actions(n: int) -> "ExpertSet":
        return ExpertSet(tuple(range(n)))

    def __len__(self):
        return len(self.actions)

    def strategies(self, n_actions: int):
        return [FixedAction(a, n_actions) for a in self.actions]


class ExploreThenCommit(Strategy):
    """Round-robin over experts for T stages, then commit to the best mean.

    Passive almost surely: after stage T no action switch ever occurs, so
    the convergence event holds with probability one by construction.
    """

    name = "explore_then_commit"
    deterministic = True

    def __init__(self, game: Game, experts: ExpertSet, T: int, seed=None):
        if len(experts) == 0:
            raise ValueError("expert set must be nonempty")
        if T < len(experts):
            raise ValueError("exploration length T must be >= number of experts")
        super().__init__(seed)
        self.game = game
        self.experts = experts
        self.T = T
        self._block = T // len(experts)
        self._sums = [0.0] * len(experts)
        self._counts = [0] * len(experts)
        self._committed = None

    def _current_expert(self) -> int:
        if self._committed is not None:
            return self._committed
        k = min(self._pos // self._block, len(self.experts) - 1)
        return k

    def decide(self) -> int:
        return self.experts.actions[self._current_expert()]

    def probs(self) -> np.ndarray:
        return point_mass(self.game.rows, self.decide())

    def observe(self, a, b):
        if self._committed is None:
            k = self._current_expert()
            self._sums[k] += self.game._payoff_rows[a][b]
            self._counts[k] += 1
        self._pos += 1
        if self._committed is None and self._pos >= self.T:
            means = [
                (self._sums[k] / self._counts[k]) if self._counts[k] else 0.0
                for k in range(len(self.experts))
            ]
            best = max(means)
            self._committed = means.index(best)  # ties to lowest index

    @property
    def committed_expert(self):
        return self._committed


class StrategicExperts(Strategy):
    """Epsilon-greedy expert evaluation over unboundedly growing horizons.

    Proceeds in phases; each phase picks an expert (uniformly with
    probability epsilon, greedily on running means otherwise, ties to lowest
    index) and follows it for ``horizon_rule(k)`` stages, where k counts how
    often that expert has been evaluated. Every phase ends in finite time and
    the next phase picks a different expert with probability at least
    epsilon * (|E|-1)/|E| > 0, so the strategy is active almost surely.
    """

    name = "strategic_experts"

    def __init__(
        self,
        game: Game,
        experts: ExpertSet,
        epsilon=0.2,
        horizon_rule=None,
        seed=None,
    ):
        if len(experts) == 0:
            raise ValueError("expert set must be nonempty")
        super().__init__(seed)
        self.game = game
        self.experts = experts
        self._epsilon = epsilon if callable(epsilon) else (lambda k, e=float(epsilon): e)
        self._horizon_rule = horizon_rule or (lambda k: k)
        self._sums = [0.0] * len(experts)
        self._counts = [0] * len(experts)
        self._evals = [0] * len(experts)
        self._phase = 0
        self._current = None
        self._remaining = 0
        self.phase_ledger: list[dict] = []

    def _pick_expert(self) -> int:
        n = len(self.experts)
        eps = self._epsilon(self._phase + 1)
        if self._rand.random() < eps:
            return int(self._rand.integers(0, n))
        best_k, best_v = 0, None
        for k in range(n):
            v = (self._sums[k] / self._counts[k]) if self._counts[k] else 0.0
            if best_v is None or v > best_v:
                best_k, best_v = k, v
        return best_k

    def _begin_phase(self) -> None:
        k = self._pick_expert()
        self._phase += 1
        self._evals[k] += 1
        self._current = k
        self._remaining = max(1, int(self._horizon_rule(self._evals[k])))
        self.phase_ledger.append(
            {"phase": self._phase, "expert": k, "start": self._pos, "length": self._remaining}
        )

    def decide(self) -> int:
        if self._remaining == 0:
            self._begin_phase()
        return self.experts.actions[self._current]

    def probs(self) -> np.ndarray:
        if self._remaining == 0:
            self._begin_phase()
        return point_mass(self.game.rows, self.experts.actions[self._current])

    def observe(self, a, b):
        self._pos += 1
        if self._remaining == 0:
            # observe() on a forced history stage before decide() was called:
            # open the phase now so the replayed state matches live play.
            self._begin_phase()
        k = self._current
        self._sums[k] += self.game._payoff_rows[a][b]
        self._counts[k] += 1
        self._remaining -= 1

    def phase_ledger_jsonl(self) -> str:
        import json

        return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in self.phase_ledger)


class MixedLearner(Strategy):
    """Flips one seeded coin at stage 0, then delegates to the chosen learner."""

    name = "mixed"

    def __init__(self, passive: Strategy, active: Strategy, p: float, seed=None):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        super().__init__(seed)
        self.passive = passive
        self.active = active
        self.p = p
        self._chosen = None

    def _choose(self) -> Strategy:
        if self._chosen is None:
            use_active = self._rand.random() < self.p
            self._chosen = self.active if use_active else self.passive
            self.chose_active = use_active
        return self._chosen

    def decide(self) -> int:
        return self._choose().decide()

    def probs(self) -> np.ndarray:
        return self._choose().probs()

    def observe(self, a, b):
        self._pos += 1
        self._choose().observe(a, b)

    def reseed(self, seed) -> None:
        super().reseed(seed)
        self.passive.reseed(derive_trial_seed(seed, 0, "mixed-passive"))
        self.active.reseed(derive_trial_seed(seed, 1, "mixed-active"))


class PeriodicSwitcher(Strategy):
    """Deterministic cycler: action (stage // period) mod N."""

    name = "periodic_switcher"
    deterministic = True

    def __init__(self, n_actions: int, period: int, seed=None):
        if period < 1:
            raise ValueError("period must be >= 1")
        super().__init__(seed)
        self.n_actions = n_actions
        self.period = period

    def decide(self) -> int:
        return (self._pos // self.period) % self.n_actions

    def probs(self) -> np.ndarray:
        return point_mass(self.n_actions, self.decide())

    def observe(self, a, b):
        self._pos += 1


class BernoulliSwitcher(Strategy):
    """Keeps its action with probability 1 - switch_prob each stage,
    otherwise jumps to a uniformly random different action."""

    name = "bernoulli_switcher"

    def __init__(self, n_actions: int, switch_prob: float, seed=None):
        if n_actions < 2:
            raise ValueError("needs at least 2 actions to switch between")
        super().__init__(seed)
        self.n_actions = n_actions
        self.switch_prob = switch_prob
        self._current = 0
        self._pending = None

    def decide(self) -> int:
        if self._pending is None:
            if self._pos == 0:
                self._pending = self._current
            elif self._rand.random() < self.switch_prob:
                other = int(self._rand.integers(0, self.n_actions - 1))
                self._pending = other if other < self._current else other + 1
            else:
                self._pending = self._current
        return self._pending

    def probs(self) -> np.ndarray:
        return point_mass(self.n_actions, self.decide())

    def observe(self, a, b):
        self._pos += 1
        if self._pending is None:
            self.decide()
        self._current = self._pending
        self._pending = None

