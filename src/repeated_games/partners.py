"""Bob-side partner strategies.

Includes the explicit constructions used by the impossibility arguments:
uniform play, grim triggers, switching strategies, fictitious play, the
interval-based predictive exploiter (with its deviation-prediction oracle),
and the composite adversary that branches on the learner's measured
convergence probability.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Game,
    History,
    Strategy,
    commit_stats,
    derive_trial_seed,
    point_mass,
    uniform_dist,
)
from .metrics import _commit_tau, _convergence

__all__ = [
    "GrimTriggerSpec",
    "SwitchingSpec",
    "OracleParams",
    "predict_deviation_horizon",
    "theorem1_adversary",
    "UniformPartner",
    "GrimTrigger",
    "SwitchingPartner",
    "FictitiousPlayPartner",
    "PredictiveExploiter",
    "RandomChoiceStrategy",
]


class _BlockInts:
    """Buffered uniform integer draws from a Generator (fast path)."""

    __slots__ = ("rng", "n", "_buf", "_i")

    def __init__(self, rng, n):
        self.rng = rng
        self.n = n
        self._buf = ()
        self._i = 0

    def __call__(self) -> int:
        i = self._i
        buf = self._buf
        if i >= len(buf):
            buf = self.rng.integers(0, self.n, size=512).tolist()
            self._buf = buf
            i = 0
        self._i = i + 1
        return buf[i]


class UniformPartner(Strategy):
    """Plays uniformly at random over N actions at every history."""

    name = "uniform"

    def __init__(self, n: int, seed=None):
        if n < 1:
            raise ValueError("uniform partner needs N >= 1")
        super().__init__(seed)
        self.n = n
        self._draw = _BlockInts(self._rand, n)
        if n == 1:
            self.deterministic = True

    def reseed(self, seed) -> None:
        super().reseed(seed)
        self._draw = _BlockInts(self._rand, self.n)

    def decide(self) -> int:
        if self.n == 1:
            return 0
        return self._draw()

    def probs(self) -> np.ndarray:
        return uniform_dist(self.n)

    def observe(self, a, b):
        self._pos += 1


@dataclass(frozen=True)
class GrimTriggerSpec:
    """Cooperate while Alice plays the expected action; punish forever after."""

    expected_alice_action: int
    cooperate_action: int
    punish_action: int
    n_bob_actions: int


class GrimTrigger(Strategy):
    name = "grim_trigger"
    deterministic = True

    def __init__(self, spec: GrimTriggerSpec, seed=None):
        super().__init__(seed)
        self.spec = spec
        self._triggered = False

    def decide(self) -> int:
        return self.spec.punish_action if self._triggered else self.spec.cooperate_action

    def probs(self) -> np.ndarray:
        return point_mass(self.spec.n_bob_actions, self.decide())

    def observe(self, a, b):
        self._pos += 1
        if a != self.spec.expected_alice_action:
            self._triggered = True

    def reset(self):
        self._triggered = False
        self._pos = 0


@dataclass(frozen=True)
class SwitchingSpec:
    """Uniform for the first tau stages, then mirror the target action
    whenever Alice's previous action was the target; uniform otherwise."""

    tau: int
    target_action: int
    n_actions: int


class SwitchingPartner(Strategy):
    name = "switching"

    def __init__(self, spec: SwitchingSpec, seed=None):
        if spec.tau < 0:
            raise ValueError("tau must be >= 0")
        super().__init__(seed)
        self.spec = spec
        self._last_alice = None
        self._draw = _BlockInts(self._rand, spec.n_actions)

    def reseed(self, seed) -> None:
        super().reseed(seed)
        self._draw = _BlockInts(self._rand, self.spec.n_actions)

    def _mirroring(self) -> bool:
        # tau = 0 on the empty history falls back to uniform: no last action.
        return (
            self._pos >= self.spec.tau
            and self._last_alice == self.spec.target_action
        )

    def decide(self) -> int:
        if self._mirroring():
            return self.spec.target_action
        return self._draw()

    def probs(self) -> np.ndarray:
        if self._mirroring():
            return point_mass(self.spec.n_actions, self.spec.target_action)
        return uniform_dist(self.spec.n_actions)

    def observe(self, a, b):
        self._pos += 1
        self._last_alice = a


class FictitiousPlayPartner(Strategy):
    """Best response to the empirical distribution of Alice's past actions.

    Fully cooperative reading: Bob's payoff is the shared G(a, b). Ties break
    to the lowest action index, fixed forever; the empty history plays the
    tie-break action (index 0 on an all-zero score vector).
    """

    name = "fictitious_play"
    deterministic = True

    def __init__(self, game: Game, seed=None):
        super().__init__(seed)
        self.game = game
        # scores[b] = sum over past stages of G(a_n, b)
        self._scores = [0.0] * game.cols
        self._rows = game._payoff_rows
        self._current = 0

    def decide(self) -> int:
        return self._current

    def probs(self) -> np.ndarray:
        return point_mass(self.game.cols, self._current)

    def observe(self, a, b):
        self._pos += 1
        scores = self._scores
        row = self._rows[a]
        best, arg = scores[0] + row[0], 0
        for j in range(1, len(scores)):
            s = scores[j] + row[j]
            scores[j] = s
            if s > best:
                best, arg = s, j
        scores[0] += row[0]
        self._current = arg

    def reset(self):
        self._scores = [0.0] * self.game.cols
        self._current = 0
        self._pos = 0


class StationaryPartner(Strategy):
    """History-independent mixed strategy (useful as a flexible baseline)."""

    name = "stationary"

    def __init__(self, probs, seed=None):
        super().__init__(seed)
        p = np.asarray(probs, dtype=float)
        p = p / p.sum()
        self._probs = p
        self.n = len(p)
        self._cum = np.cumsum(p).tolist()
        self.deterministic = bool(np.max(p) == 1.0)

    def decide(self) -> int:
        if self.deterministic:
            return int(np.argmax(self._probs))
        u = self._rand.random()
        cum = self._cum
        for j, c in enumerate(cum):
            if u < c:
                return j
        return self.n - 1

    def probs(self) -> np.ndarray:
        return self._probs.copy()

    def observe(self, a, b):
        self._pos += 1


class RandomChoiceStrategy(Strategy):
    """Picks one sub-strategy by a single seeded draw at stage 0, then
    delegates every call to it (used for partner mixtures and coin-commit
    learners)."""

    name = "random_choice"

    def __init__(self, strategies, probs=None, seed=None):
        super().__init__(seed)
        self._strategies = list(strategies)
        if probs is None:
            probs = [1.0 / len(self._strategies)] * len(self._strategies)
        self._probs = [float(p) for p in probs]
        if abs(sum(self._probs) - 1.0) > 1e-9:
            raise ValueError("mixture probabilities must sum to 1")
        self._chosen = None

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
            self._chosen = self._strategies[idx]
            self.chosen_index = idx
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
        for k, s in enumerate(self._strategies):
            s.reseed(derive_trial_seed(seed, k, "mixture-member"))


# ---------------------------------------------------------------------------
# Deviation-prediction oracle and the predictive exploiter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleParams:
    """Budget knobs for the deviation-prediction oracle."""

    trials: int = 48
    sigma_cap: int = 400
    seed: int = 0
    max_total_steps: int | None = None  # cap on summed continuation stages


def _survival_times(learners, ref_action, game: Game, sigma_cap: int, seed: int, tag: str):
    """How long each continuation keeps playing ``ref_action`` vs uniform play.

    ``learners`` are already positioned at the conditioning history; each is
    given a fresh partner stream. Returns a list of survival times, where
    ``sigma_cap`` means the action never changed within budget.
    """
    times = []
    cols = game.cols
    for j, learner in enumerate(learners):
        partner = UniformPartner(cols, derive_trial_seed(seed, j, tag))
        ref = ref_action
        t = 0
        for s in range(sigma_cap):
            a = learner.decide()
            if ref is None:
                ref = a  # empty conditioning history: reference is own first action
            if a != ref:
                break
            b = partner.decide()
            learner.observe(a, b)
            partner.observe(a, b)
            t += 1
        times.append(t)
    return times


def _smallest_sigma(times, delta_i: float, sigma_cap: int):
    """Deviation horizon honoring ``delta_i``, conditioned on non-convergence.

    Continuations that keep their action for the whole measurement budget are
    treated as converged and excluded: the horizon only needs to cover the
    non-converging continuations. Because the required quantile (survivor
    fraction <= delta_i) usually lies far beyond what the sample can witness
    directly, the empirical range is padded with an exponential-tail
    extrapolation of the observed survival times.

    Returns ``(sigma, capped)``; ``capped=True`` means no finite horizon
    within ``sigma_cap`` can be certified at this delta_i, and the caller
    must not enter the mirroring phase during this interval.
    """
    active = [t for t in times if t < sigma_cap]
    if not active:
        # Every continuation kept its action: the learner has converged as
        # far as the oracle can tell, so mirroring after the cap is safe.
        return sigma_cap, False
    mean_t = sum(active) / len(active) + 1.0
    sigma = max(active) + 1 + math.ceil(mean_t * math.log(1.0 / delta_i))
    if sigma > sigma_cap:
        return sigma_cap, True
    return sigma, False


def predict_deviation_horizon(
    learner_factory,
    h: History,
    game: Game,
    delta_i: float,
    oracle_trials: int,
    sigma_cap: int,
    seed: int = 0,
):
    """Estimate the horizon within which the learner almost surely deviates.

    Runs ``oracle_trials`` fresh-seeded rebuilds of the learner, replays each
    onto ``h``, and continues them against uniform play. Returns
    ``(sigma, capped)`` where ``sigma`` is the smallest value such that the
    empirical fraction of continuations keeping Alice's last action in ``h``
    for ``sigma`` consecutive stages is at most ``delta_i``; ``capped`` is
    True when no such sigma exists within ``sigma_cap``.
    """
    if oracle_trials <= 0:
        raise ValueError("oracle_trials must be >= 1")
    if not 0.0 < delta_i < 1.0:
        raise ValueError("delta_i must be in (0, 1)")
    ref = h.last_alice_action() if len(h) else None
    learners = []
    for j in range(oracle_trials):
        learner = learner_factory(derive_trial_seed(seed, j, "oracle-learner"))
        learner._sync(h)
        learners.append(learner)
    times = _survival_times(learners, ref, game, sigma_cap, seed, "oracle-partner")
    return _smallest_sigma(times, delta_i, sigma_cap)


@dataclass
class ExploiterState:
    interval_index: int = 0
    interval_start_stage: int = 0
    sigma: int = 0
    delta_i: float = 0.0
    capped: bool = False
    learner_action: int | None = None


class PredictiveExploiter(Strategy):
    """Interval-based exploiter built from knowledge of the learner's code.

    A new interval opens whenever Alice's sampled action changes. At each
    interval start the deviation oracle picks sigma_i (with
    delta_i = delta / 2^(i+1)); the exploiter plays uniformly for sigma_i
    stages, then mirrors Alice's current action until she deviates.

    The oracle is run on a pool of fresh-seeded learner rebuilds that are fed
    the realized history incrementally, which is equivalent to replaying each
    one onto the history at every interval start but amortizes the replay
    cost.
    """

    name = "predictive_exploiter"

    def __init__(self, learner_factory, game: Game, delta: float, oracle: OracleParams, seed=None):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        super().__init__(seed)
        self.game = game
        self.delta = delta
        self.oracle = oracle
        self._draw = _BlockInts(self._rand, game.cols)
        self._pool = [
            learner_factory(derive_trial_seed(oracle.seed, j, "pool"))
            for j in range(oracle.trials)
        ]
        self._state = ExploiterState()
        self._last_alice = None
        self._sigma_ready = False
        self._steps_spent = 0
        self.audit_log: list[dict] = []

    def reseed(self, seed) -> None:
        super().reseed(seed)
        self._draw = _BlockInts(self._rand, self.game.cols)

    def _open_interval(self) -> None:
        st = self._state
        i = st.interval_index
        delta_i = self.delta / 2.0 ** (i + 1)
        budget = self.oracle.max_total_steps
        if budget is not None and self._steps_spent >= budget:
            sigma, capped = self.oracle.sigma_cap, True
        else:
            clones = []
            for j, m in enumerate(self._pool):
                c = copy.deepcopy(m)
                c.reseed(derive_trial_seed(self.oracle.seed, i * 100003 + j, "continuation"))
                clones.append(c)
            times = _survival_times(
                clones, self._last_alice, self.game, self.oracle.sigma_cap,
                derive_trial_seed(self.oracle.seed, i, "interval"), "oracle-partner",
            )
            self._steps_spent += sum(times)
            sigma, capped = _smallest_sigma(times, delta_i, self.oracle.sigma_cap)
        st.sigma = sigma
        st.delta_i = delta_i
        st.capped = capped
        self.audit_log.append(
            {
                "interval": i,
                "s_i": st.interval_start_stage,
                "sigma_i": sigma,
                "delta_i": delta_i,
                "capped": capped,
            }
        )
        self._sigma_ready = True

    def decide(self) -> int:
        if not self._sigma_ready:
            self._open_interval()
        st = self._state
        if st.capped or self._pos < st.interval_start_stage + st.sigma or self._last_alice is None:
            return self._draw()
        return self._last_alice

    def probs(self) -> np.ndarray:
        if not self._sigma_ready:
            self._open_interval()
        st = self._state
        if st.capped or self._pos < st.interval_start_stage + st.sigma or self._last_alice is None:
            return uniform_dist(self.game.cols)
        return point_mass(self.game.cols, self._last_alice)

    def observe(self, a, b):
        self._pos += 1
        for m in self._pool:
            m.observe(a, b)
        if self._last_alice is not None and a != self._last_alice:
            # Alice deviated: open interval i+1 starting at the next stage.
            st = self._state
            st.interval_index += 1
            st.interval_start_stage = self._pos
            self._sigma_ready = False
        self._last_alice = a

    def audit_jsonl(self) -> str:
        import json

        return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in self.audit_log)


# ---------------------------------------------------------------------------
# Composite adversary (combines the passive and active constructions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaEstimateParams:
    trials: int = 200
    horizon: int = 1500
    tail_window: int | None = None  # default horizon // 2
    seed: int = 0
    oracle: OracleParams = field(default_factory=OracleParams)


def theorem1_adversary(
    learner_factory,
    game: Game,
    experts,
    delta: float,
    params: GammaEstimateParams | None = None,
    seed=None,
):
    """Composite adversary for arbitrary (possibly mixed) learners.

    Estimates the learner's non-convergence probability gamma against uniform
    play (proxy: an action switch within the final tail window of a finite
    rollout), then branches: if the passive-case bound
    (N-2)/N - gamma - delta dominates the active-case bound
    gamma * ((N-2)/N - delta), build the switching strategy targeted at the
    least likely convergence action; otherwise return the predictive
    exploiter.

    Returns ``(strategy, info)`` with the measured quantities.
    """
    params = params or GammaEstimateParams()
    n = game.rows
    if game.rows != game.cols or n < 3:
        raise ValueError("composite adversary requires a square game with N >= 3")
    if not 0.0 < delta < (n - 2) / n:
        raise ValueError(f"delta must be in (0, {(n - 2) / n})")
    tail = params.tail_window or params.horizon // 2
    last_switch, final_action = commit_stats(
        game, learner_factory, lambda s: UniformPartner(game.cols, s),
        params.trials, params.horizon, params.seed, "gamma",
    )
    converged, gamma_hat = _convergence(last_switch, params.horizon, tail)
    passive_bound = (n - 2) / n - gamma_hat - delta
    active_bound = gamma_hat * ((n - 2) / n - delta)
    info = {"gamma_hat": gamma_hat, "passive_bound": passive_bound, "active_bound": active_bound}
    if passive_bound >= active_bound:
        # Passive branch: switching strategy at the empirical commit time,
        # targeted at the action the learner converges to least often. This
        # branch implies gamma_hat + delta < 1, so some trial converged.
        tau = _commit_tau(last_switch, converged, gamma_hat, delta)
        counts = np.bincount(final_action[converged], minlength=n)
        target = int(np.argmin(counts))
        spec = SwitchingSpec(tau, target, n)
        info.update({"branch": "switching", "tau": tau, "target": target,
                     "p_e": (counts / counts.sum()).tolist(),
                     "factory": lambda s=None: SwitchingPartner(spec, s)})
        return SwitchingPartner(spec, seed), info
    info["branch"] = "exploiter"
    info["factory"] = lambda s=None: PredictiveExploiter(
        learner_factory, game, delta, params.oracle, s
    )
    return PredictiveExploiter(learner_factory, game, delta, params.oracle, seed), info
