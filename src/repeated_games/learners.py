"""Alice-side learning algorithms.

Canonical representatives of the three learner classes the adversary
constructions target: passive almost surely (explore-then-commit), active
almost surely (epsilon-greedy expert evaluation with growing horizons), and
seeded mixtures of the two. Fixed-action experts, the seeded one-draw
mixture both sides use, and a couple of toy switchers used by the oracle
tests live here as well.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .core import Game, Strategy, derive_trial_seed

__all__ = [
    "FixedAction",
    "ExpertSet",
    "ExploreThenCommit",
    "StrategicExperts",
    "RandomChoiceStrategy",
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

    def observe(self, a, b):
        self._pos += 1

    def absorbed(self) -> int:
        return self.action

    def respond(self, a, n):
        return np.full(n, self.action)

    def observe_many(self, alice, bob):
        self._pos += len(alice)


@dataclass(frozen=True)
class ExpertSet:
    """An ordered set of expert actions (the fixed-action overload)."""

    actions: tuple

    @staticmethod
    def fixed_actions(n: int) -> "ExpertSet":
        return ExpertSet(tuple(range(n)))

    def __len__(self):
        return len(self.actions)


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
        self._last_expert = len(experts) - 1
        self._sums = [0.0] * len(experts)
        self._counts = [0] * len(experts)
        self._committed = None

    def _current_expert(self) -> int:
        if self._committed is not None:
            return self._committed
        return min(self._pos // self._block, self._last_expert)

    def decide(self) -> int:
        return self.experts.actions[self._current_expert()]

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

    def absorbed(self) -> int | None:
        if self._committed is None:
            return None
        return self.experts.actions[self._committed]

    def observe_many(self, alice, bob):
        if self._committed is None:
            super().observe_many(alice, bob)
        else:
            self._pos += len(alice)

    def clone(self, seed) -> "ExploreThenCommit":
        c = copy.copy(self)
        c._sums = list(self._sums)
        c._counts = list(self._counts)
        c.reseed(seed)
        return c

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

    def decide(self) -> int:
        if self._remaining == 0:
            self._begin_phase()
        return self.experts.actions[self._current]

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

    def clone(self, seed) -> "StrategicExperts":
        c = copy.copy(self)
        c._sums = list(self._sums)
        c._counts = list(self._counts)
        c._evals = list(self._evals)
        c.reseed(seed)
        return c


class RandomChoiceStrategy(Strategy):
    """Picks one member by a single seeded draw at stage 0, then delegates
    every call to it.

    The weights ``probs`` default to uniform; the first member whose
    cumulative weight exceeds the draw ``u ~ U[0, 1)`` is chosen. The draw,
    the first use of the wrapper's stream, comes at the first ``decide`` or
    ``observe``. It binds the member's ``decide``, ``observe``, ``absorbed``,
    ``respond`` and ``observe_many`` onto the wrapper, so later calls go
    straight to the member; the wrapper's ``_pos`` is the member's (0 before
    the draw). Used as a partner mixture, as a coin-commit learner and,
    through ``MixedLearner``, as a passive/active learner mixture.
    """

    name = "random_choice"

    def __init__(self, strategies, probs=None, seed=None):
        strategies = list(strategies)
        if not strategies:
            raise ValueError("mixture needs at least one member")
        if probs is None:
            probs = [1.0 / len(strategies)] * len(strategies)
        probs = [float(p) for p in probs]
        if len(probs) != len(strategies):
            raise ValueError(
                f"mixture has {len(strategies)} members but {len(probs)} probabilities"
            )
        if not all(0.0 <= p <= 1.0 for p in probs):
            raise ValueError("mixture probabilities must be in [0, 1]")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("mixture probabilities must sum to 1")
        # Strategy.__init__ without its stage cursor: ``_pos`` is the member's
        Strategy.reseed(self, seed)
        self._strategies = strategies
        self._probs = probs
        self._chosen = None

    @property
    def _pos(self) -> int:
        return 0 if self._chosen is None else self._chosen._pos

    def _member_seed(self, seed, k: int):
        return derive_trial_seed(seed, k, "mixture-member")

    def _bind(self, member: Strategy) -> None:
        self._chosen = member
        self.decide, self.observe = member.decide, member.observe
        self.absorbed, self.respond = member.absorbed, member.respond
        self.observe_many = member.observe_many

    def _choose(self) -> Strategy:
        if self._chosen is None:
            u = self._rand.random()
            acc = 0.0
            idx = len(self._probs) - 1
            for j, p in enumerate(self._probs):
                acc += p
                if u < acc:
                    idx = j
                    break
            self._bind(self._strategies[idx])
        return self._chosen

    # used until the draw; _bind shadows them with the member's methods
    def decide(self) -> int:
        return self._choose().decide()

    def observe(self, a, b):
        self._choose().observe(a, b)

    def absorbed(self) -> int | None:
        # before the draw any member may still be chosen
        return None if self._chosen is None else self._chosen.absorbed()

    def reseed(self, seed) -> None:
        super().reseed(seed)
        for k, s in enumerate(self._strategies):
            s.reseed(self._member_seed(seed, k))

    def clone(self, seed) -> "RandomChoiceStrategy":
        c = copy.copy(self)
        Strategy.reseed(c, seed)
        c._strategies = [
            s.clone(self._member_seed(seed, k)) for k, s in enumerate(self._strategies)
        ]
        if self._chosen is not None:
            k = next(k for k, s in enumerate(self._strategies) if s is self._chosen)
            c._bind(c._strategies[k])
        return c


class MixedLearner(RandomChoiceStrategy):
    """Flips one seeded coin at stage 0: the active learner with probability
    ``p``, else the passive one; then delegates to the chosen learner."""

    name = "mixed"

    def __init__(self, passive: Strategy, active: Strategy, p: float, seed=None):
        # members [active, passive]: the draw picks active exactly when u < p
        super().__init__([active, passive], [p, 1.0 - p], seed)

    def _member_seed(self, seed, k: int):
        # active (member 0) keeps stream (1, "mixed-active"), passive
        # (member 1) stream (0, "mixed-passive")
        return derive_trial_seed(seed, 1 - k, ("mixed-active", "mixed-passive")[k])

    @property
    def chose_active(self) -> bool | None:
        """Whether the coin picked the active learner; None before the flip."""
        if self._chosen is None:
            return None
        return self._chosen is self._strategies[0]


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

    def observe(self, a, b):
        # a replayed stage was never decided: decide it at its own stage
        if self._pending is None:
            self.decide()
        self._pos += 1
        self._current = self._pending
        self._pending = None

