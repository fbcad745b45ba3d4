"""Bob-side partner strategies.

Includes the explicit constructions used by the impossibility arguments:
uniform play, grim triggers, switching strategies, fictitious play, the
interval-based predictive exploiter (with its deviation-prediction oracle),
and the composite adversary that branches on the learner's measured
convergence probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Game, Strategy, commit_stats, derive_trial_seed
from .metrics import _commit_tau, _convergence

__all__ = [
    "GrimTriggerSpec",
    "SwitchingSpec",
    "OracleParams",
    "GammaEstimateParams",
    "theorem1_adversary",
    "UniformPartner",
    "GrimTrigger",
    "SwitchingPartner",
    "FictitiousPlayPartner",
    "StationaryPartner",
    "PredictiveExploiter",
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

    def take(self, k: int) -> np.ndarray:
        """The next ``k`` draws as an int array: exactly what ``k`` calls return.

        The buffered tail comes first, then whole 512-draw blocks, each its
        own ``integers`` call as in ``__call__``; the unused part of the last
        block stays behind as the buffer.
        """
        i, buf = self._i, self._buf
        parts = [np.array(buf[i:i + k], dtype=np.int64)]
        need = k - len(parts[0])
        self._i = i + len(parts[0])
        while need > 0:
            block = self.rng.integers(0, self.n, size=512)
            parts.append(block[:need])
            self._buf, self._i = block[need:].tolist(), 0
            need -= 512
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


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

    def observe(self, a, b):
        self._pos += 1

    def respond(self, a, n):
        if self.n == 1:
            return np.zeros(n, dtype=np.int64)
        return self._draw.take(n)

    def observe_many(self, alice, bob):
        self._pos += len(alice)


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

    def observe(self, a, b):
        self._pos += 1
        if a != self.spec.expected_alice_action:
            self._triggered = True

    def respond(self, a, n):
        spec = self.spec
        # stage 0 follows the current state; later ones have also seen ``a``
        later = self._triggered or a != spec.expected_alice_action
        out = np.full(n, spec.punish_action if later else spec.cooperate_action)
        if n:
            out[0] = self.decide()
        return out

    def observe_many(self, alice, bob):
        self._pos += len(alice)
        if alice.count(self.spec.expected_alice_action) != len(alice):
            self._triggered = True


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

    def observe(self, a, b):
        self._pos += 1
        self._last_alice = a

    def respond(self, a, n):
        # stage 0 mirrors on the real last action; stage i >= 1 has seen ``a``
        # and mirrors from stage tau on exactly when ``a`` is the target
        target = self.spec.target_action
        first = max(1, self.spec.tau - self._pos) if a == target else n
        first = min(first, n)  # stages [0 or 1, first) draw, [first, n) mirror
        out = np.full(n, target)
        if n:
            skip = 1 if self._mirroring() else 0
            out[skip:first] = self._draw.take(first - skip)
        return out

    def observe_many(self, alice, bob):
        if alice:
            self._pos += len(alice)
            self._last_alice = alice[-1]


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

    def _scores_after(self, a: int, k: int) -> np.ndarray:
        """Rows 0..k: the scores after that many more stages at which Alice
        plays ``a``, summed in order with the same additions as ``observe``."""
        steps = np.empty((k + 1, self.game.cols))
        steps[0] = self._scores
        steps[1:] = self._rows[a]
        return np.add.accumulate(steps, axis=0)

    def respond(self, a, n):
        # stage i plays the best score after i more stages of ``a`` (stage 0:
        # ``_current``); argmax keeps the lowest index on ties, as observe does
        return self._scores_after(a, n)[:n].argmax(axis=1)

    def observe_many(self, alice, bob):
        if not alice or alice.count(alice[0]) < len(alice):
            super().observe_many(alice, bob)
            return
        scores = self._scores_after(alice[0], len(alice))[-1]
        self._pos += len(alice)
        self._scores = scores.tolist()
        self._current = int(scores.argmax())


class StationaryPartner(Strategy):
    """History-independent mixed strategy (useful as a flexible baseline)."""

    name = "stationary"

    def __init__(self, probs, seed=None):
        p = np.asarray(probs, dtype=float)
        total = p.sum()
        # a nan or infinite entry makes the sum nan or infinite
        if p.ndim != 1 or not 0.0 < total < np.inf or p.min() < 0.0:
            raise ValueError("stationary probabilities must be finite, nonnegative "
                             f"weights with a positive sum, got {probs!r}")
        super().__init__(seed)
        p = p / total
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

    def observe(self, a, b):
        self._pos += 1

    def respond(self, a, n):
        if self.deterministic:
            return np.full(n, np.argmax(self._probs))
        # decide()'s scan in one step: the first j with u < cum[j], else the last
        u = self._rand.random(n)
        return np.minimum(np.searchsorted(self._cum, u, side="right"), self.n - 1)

    def observe_many(self, alice, bob):
        self._pos += len(alice)


# ---------------------------------------------------------------------------
# Deviation-prediction oracle and the predictive exploiter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleParams:
    """Budget knobs for the deviation-prediction oracle.

    ``trials`` (pool size) and ``sigma_cap`` must be at least 1: with no
    continuations, or none allowed a stage, every interval would be
    certified without evidence.
    """

    trials: int = 48
    sigma_cap: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("oracle trials must be >= 1")
        if self.sigma_cap < 1:
            raise ValueError("oracle sigma_cap must be >= 1")


def _survival_times(continuations, ref_action, game: Game, sigma_cap: int, seed: int):
    """How long each continuation keeps playing ``ref_action`` vs uniform play.

    ``continuations`` are ``(j, learner)`` pairs, each learner already
    positioned at the conditioning history; continuation ``j`` faces uniform
    play drawn from the fresh stream ``j``: the bare buffered draws of a
    ``UniformPartner`` on that seed (the constant 0 for a one-column game),
    without building the partner. An absorbed learner
    (``Strategy.absorbed``) plays no stage: it keeps ``ref_action`` for the
    whole budget or leaves it at once. Returns a list of survival times,
    where ``sigma_cap`` means the action never changed within budget.
    """
    times = []
    cols = game.cols
    for j, learner in continuations:
        fixed = learner.absorbed()
        if fixed is not None:
            times.append(sigma_cap if ref_action is None or fixed == ref_action else 0)
            continue
        if cols == 1:
            draw = int  # one column, one action: int() is 0
        else:
            draw = _BlockInts(
                np.random.default_rng(derive_trial_seed(seed, j, "oracle-partner")), cols)
        ref = ref_action
        t = 0
        for s in range(sigma_cap):
            a = learner.decide()
            if ref is None:
                ref = a  # empty conditioning history: reference is own first action
            if a != ref:
                break
            learner.observe(a, draw())
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


@dataclass
class ExploiterState:
    interval_index: int = 0
    interval_start_stage: int = 0
    sigma: int = 0
    delta_i: float = 0.0
    capped: bool = False


class PredictiveExploiter(Strategy):
    """Interval-based exploiter built from knowledge of the learner's code.

    A new interval opens whenever Alice's sampled action changes. At each
    interval start the deviation oracle picks sigma_i (with
    delta_i = delta / 2^(i+1)); the exploiter plays uniformly for sigma_i
    stages, then mirrors Alice's current action until she deviates.

    The oracle is run on a pool of fresh-seeded learner rebuilds. The pool is
    only read when an interval opens, so ``observe`` just records the realized
    stage, and each live member replays the stages recorded since the last
    interval start when the next one opens: the same state as feeding it every
    stage, since members are independent and each owns its random stream.
    The oracle then continues ``clone``s of the live members (``Strategy.clone``:
    the run state on a fresh continuation stream), so the pool itself never
    leaves the realized history. A member that is absorbed after its catch-up
    (``Strategy.absorbed``) leaves the pool for good: it is never fed, cloned
    or stepped again, and the oracle reads only its fixed action. Members keep
    their original index ``j`` for life, and the continuation and
    oracle-partner seeds are keyed by it, never by a position in the shrinking
    pool.
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
        # (j, learner) pairs: live members, and absorbed ones that left them
        self._pool = [
            (j, learner_factory(derive_trial_seed(oracle.seed, j, "pool")))
            for j in range(oracle.trials)
        ]
        self._settled = []
        self._pending = []  # stages observed since the pool was last caught up
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
        # catch the live members up; the absorbed ones leave for good
        live = []
        for j, m in self._pool:
            obs = m.observe
            for a, b in self._pending:
                obs(a, b)
            (live if m.absorbed() is None else self._settled).append((j, m))
        self._pool = live
        self._pending = []
        continuations = [
            (j, m.clone(derive_trial_seed(self.oracle.seed, i * 100003 + j, "continuation")))
            for j, m in live
        ]
        times = _survival_times(
            continuations + self._settled, self._last_alice, self.game, self.oracle.sigma_cap,
            derive_trial_seed(self.oracle.seed, i, "interval"),
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

    def observe(self, a, b):
        # a replayed stage was never decided: open its interval at its own stage
        if not self._sigma_ready:
            self._open_interval()
        self._pos += 1
        if self._pool:
            self._pending.append((a, b))
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
    exploiter. The learner's actions are the game's rows, so no expert set
    is needed.

    Returns ``(strategy, info)``: ``strategy`` is the chosen adversary seeded
    with ``seed``; ``info`` holds the measured quantities (``gamma_hat``, both
    bounds, ``branch`` and, on the switching branch, ``tau``, ``target`` and
    ``p_e``) and ``factory``, which builds a fresh adversary per seed for
    trial loops.
    """
    params = params or GammaEstimateParams()
    n = game.rows
    if game.rows != game.cols or n < 3:
        raise ValueError("composite adversary requires a square game with N >= 3")
    if not 0.0 < delta < (n - 2) / n:
        raise ValueError(f"delta must be in (0, {(n - 2) / n})")
    tail = params.tail_window if params.tail_window is not None else params.horizon // 2
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
