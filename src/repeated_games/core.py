"""Stage games, histories, behavioral strategies, and the seeded simulator.

Conventions used throughout the package:

- Actions are 0-based indices into the payoff matrix.
- Alice is the row player (the learner), Bob the column player (the partner).
- Every strategy owns its own random stream; the sampled trajectory is a
  deterministic function of (game, strategy seeds, rollout seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ContractViolation",
    "Game",
    "History",
    "Strategy",
    "Trajectory",
    "coordination_game",
    "example1_game",
    "point_mass",
    "uniform_dist",
    "check_distribution",
    "derive_trial_seed",
    "step",
    "rollout",
    "simulate_payoffs",
    "commit_stats",
]

DIST_ATOL = 1e-12


class ContractViolation(RuntimeError):
    """A strategy broke its behavioral contract (bad action, bad replay)."""


def derive_trial_seed(master_seed: int, trial_index: int, stream_tag: str) -> int:
    """Collision-resistant per-(trial, stream) seed derivation.

    Parallel and sequential execution agree because every consumer of
    randomness derives its own stream from (master, trial, tag) rather than
    sharing a generator.
    """
    raw = f"{master_seed}|{trial_index}|{stream_tag}".encode()
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "little")


@dataclass(frozen=True)
class Game:
    """A finite two-player stage game, shared-payoff (fully cooperative) view.

    ``payoff[a][b]`` is Alice's (and, in the cooperative reading, Bob's)
    per-stage payoff. ``payoff_range`` is the declared [lo, hi] bound; it is
    a per-game declaration rather than a global [0, 1] constraint.
    """

    rows: int
    cols: int
    payoff: np.ndarray
    payoff_range: tuple[float, float]
    # nested lists are much faster than ndarray scalar indexing in the
    # stage loop
    _payoff_rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("game needs at least one action per player")
        mat = np.asarray(self.payoff, dtype=float)
        if mat.shape != (self.rows, self.cols):
            raise ValueError(f"payoff shape {mat.shape} != ({self.rows}, {self.cols})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("payoff entries must be finite")
        lo, hi = self.payoff_range
        if mat.min() < lo or mat.max() > hi:
            raise ValueError("payoff entries outside declared payoff_range")
        object.__setattr__(self, "payoff", mat)
        object.__setattr__(self, "_payoff_rows", [list(map(float, row)) for row in mat])

    def payoff_at(self, a: int, b: int) -> float:
        return self._payoff_rows[a][b]

    def to_json(self) -> str:
        return json.dumps(
            {
                "rows": self.rows,
                "cols": self.cols,
                "payoff": self.payoff.tolist(),
                "range": list(self.payoff_range),
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Game":
        d = json.loads(text)
        return Game(d["rows"], d["cols"], np.asarray(d["payoff"]), tuple(d["range"]))


def coordination_game(n: int) -> Game:
    """N x N pure coordination game: payoff 1 on the diagonal, 0 elsewhere."""
    if n < 1:
        raise ValueError("coordination game needs N >= 1")
    return Game(n, n, np.eye(n), (0.0, 1.0))


def example1_game(normalized: bool = False) -> Game:
    """The 2x3 grim-trigger example game, rows (2,0,1) and (0,2,1).

    With ``normalized=True`` the matrix is scaled by 1/2 so the declared
    payoff range is [0, 1].
    """
    mat = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
    if normalized:
        return Game(2, 3, mat / 2.0, (0.0, 1.0))
    return Game(2, 3, mat, (0.0, 2.0))


class History:
    """An ordered sequence of (alice_action, bob_action) pairs."""

    __slots__ = ("alice", "bob")

    def __init__(self, pairs=()):
        self.alice = []
        self.bob = []
        for a, b in pairs:
            self.alice.append(int(a))
            self.bob.append(int(b))

    def __len__(self) -> int:
        return len(self.alice)

    def append(self, a: int, b: int) -> None:
        self.alice.append(a)
        self.bob.append(b)

    def pair(self, i: int) -> tuple[int, int]:
        return self.alice[i], self.bob[i]

    def pairs(self):
        return list(zip(self.alice, self.bob))

    def last_alice_action(self) -> int:
        """Alice's most recent action; undefined (raises) on the empty history."""
        if not self.alice:
            raise ValueError("last_alice_action is undefined on the empty history")
        return self.alice[-1]

    def validate_for(self, game: Game) -> None:
        for a in self.alice:
            if not 0 <= a < game.rows:
                raise ValueError(f"alice action {a} out of range for game")
        for b in self.bob:
            if not 0 <= b < game.cols:
                raise ValueError(f"bob action {b} out of range for game")

    def copy(self) -> "History":
        h = History()
        h.alice = list(self.alice)
        h.bob = list(self.bob)
        return h


def point_mass(n: int, i: int) -> np.ndarray:
    if not 0 <= i < n:
        raise ValueError(f"action {i} out of range for {n} actions")
    p = np.zeros(n)
    p[i] = 1.0
    return p


def uniform_dist(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


def check_distribution(p: np.ndarray) -> None:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("distribution must be a non-empty vector")
    if np.any(p < 0):
        raise ValueError("distribution has negative entries")
    if abs(float(p.sum()) - 1.0) > DIST_ATOL:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")


class Strategy:
    """Behavioral strategy: finite history -> distribution over own actions.

    Implementations are incremental for speed: the simulator calls
    ``decide()`` for the current stage and ``observe(a, b)`` after each
    stage. The history-based interface ``act(history)`` /
    ``action_distribution(history)`` syncs an internal cursor against the
    supplied history, so a fresh instance replayed over a recorded history
    reproduces its distributions at every prefix (the replay contract).

    Output distributions depend only on the observed history and the
    strategy's own seed; never on wall clock, trial index, or partner
    identity.
    """

    name = "strategy"
    deterministic = False  # True when decide() never consumes randomness

    def __init__(self, seed=None):
        self._seed = seed
        self._rand = np.random.default_rng(seed)
        self._pos = 0

    # -- hooks for subclasses -------------------------------------------------
    def decide(self) -> int:
        """Sample the action for the current stage."""
        raise NotImplementedError

    def probs(self) -> np.ndarray:
        """Distribution over own actions for the current stage."""
        raise NotImplementedError

    def observe(self, a: int, b: int) -> None:
        """Record the realized joint action of the stage just played."""
        self._pos += 1

    # -- shared machinery ------------------------------------------------------
    def reset(self) -> None:
        """Optional: return to the fresh, pre-game state with the original seed."""
        raise NotImplementedError(f"{type(self).__name__} does not support reset")

    def reseed(self, seed) -> None:
        """Replace the random stream without touching learned state."""
        self._seed = seed
        self._rand = np.random.default_rng(seed)

    def _sync(self, history: History) -> None:
        n = len(history)
        if n < self._pos:
            raise ContractViolation(
                f"{self.name}: history shorter than already-observed prefix; reset first"
            )
        for i in range(self._pos, n):
            self.observe(history.alice[i], history.bob[i])

    def act(self, history: History) -> tuple[np.ndarray, int]:
        """Distribution plus a sample for the stage following ``history``."""
        self._sync(history)
        return self.probs(), self.decide()

    def action_distribution(self, history: History) -> np.ndarray:
        self._sync(history)
        return self.probs()


@dataclass
class Trajectory:
    """A finite realized play: per-stage joint actions and payoffs."""

    game: Game
    alice: np.ndarray
    bob: np.ndarray
    payoffs: np.ndarray
    seed: object = None

    def __len__(self) -> int:
        return len(self.payoffs)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"n": int(n), "a": int(a), "b": int(b), "u": float(u)})
            for n, (a, b, u) in enumerate(zip(self.alice, self.bob, self.payoffs))
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def from_jsonl(text: str, game: Game) -> "Trajectory":
        a, b, u = [], [], []
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            a.append(d["a"])
            b.append(d["b"])
            u.append(d["u"])
        return Trajectory(game, np.asarray(a, int), np.asarray(b, int), np.asarray(u, float))


def step(game: Game, pi: Strategy, phi: Strategy, h: History):
    """Play one simultaneous stage from history ``h``.

    Both strategies see the identical pre-stage history and sample from
    independent streams, so query order cannot matter.
    """
    h.validate_for(game)
    pi._sync(h)
    phi._sync(h)
    a = pi.decide()
    if not 0 <= a < game.rows:
        raise ContractViolation(f"alice strategy {pi.name!r} emitted action {a}")
    b = phi.decide()
    if not 0 <= b < game.cols:
        raise ContractViolation(f"bob strategy {phi.name!r} emitted action {b}")
    return a, b, game._payoff_rows[a][b]


def simulate_payoffs(
    game: Game, pi: Strategy, phi: Strategy, horizon: int, history: History | None = None
) -> np.ndarray:
    """Run ``horizon`` stages from the strategies' current state; payoffs only.

    This is the hot loop: strategies are driven through their incremental
    decide/observe interface and all bookkeeping stays in local variables.
    When ``history`` is given, each stage's joint action is appended to it.
    """
    pay = game._payoff_rows
    rows, cols = game.rows, game.cols
    out = np.empty(horizon)
    pdec, qdec = pi.decide, phi.decide
    pobs, qobs = pi.observe, phi.observe
    record = history is not None
    if record:
        arec, brec = history.alice.append, history.bob.append
    for n in range(horizon):
        a = pdec()
        if not 0 <= a < rows:
            raise ContractViolation(
                f"alice strategy {pi.name!r} emitted action {a} at stage {n}"
            )
        b = qdec()
        if not 0 <= b < cols:
            raise ContractViolation(
                f"bob strategy {phi.name!r} emitted action {b} at stage {n}"
            )
        out[n] = pay[a][b]
        pobs(a, b)
        qobs(a, b)
        if record:
            arec(a)
            brec(b)
    return out


def rollout(game: Game, pi: Strategy, phi: Strategy, horizon: int, seed=None) -> Trajectory:
    """Simulate ``horizon`` stages from the empty history.

    When ``seed`` is given, both strategies are reseeded with derived,
    separated streams, making the trajectory a pure function of
    (game, seed) for replay-contract strategies.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if seed is not None:
        pi.reseed(derive_trial_seed(seed, 0, "learner"))
        phi.reseed(derive_trial_seed(seed, 0, "partner"))
    h = History()
    payoffs = simulate_payoffs(game, pi, phi, horizon, h)
    return Trajectory(
        game,
        np.array(h.alice, dtype=np.int64),
        np.array(h.bob, dtype=np.int64),
        payoffs,
        seed=seed,
    )


def commit_stats(
    game: Game, learner_factory, partner_factory, trials: int, horizon: int, seed: int, tag: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial last-switch stage and final learner action over fresh pairs.

    Trial ``t`` plays a learner seeded ``derive_trial_seed(seed, t, f"{tag}-learner")``
    against a partner seeded with the ``f"{tag}-partner"`` stream for
    ``horizon`` stages, with the same action-range checks as
    ``simulate_payoffs``. The last switch is the last stage at which the
    learner's action differs from the previous stage's (0 if it never
    switches); the final action is -1 when ``horizon`` is 0.
    """
    rows, cols = game.rows, game.cols
    last_switch = np.zeros(trials, dtype=np.int64)
    final_action = np.full(trials, -1, dtype=np.int64)
    for t in range(trials):
        learner = learner_factory(derive_trial_seed(seed, t, f"{tag}-learner"))
        partner = partner_factory(derive_trial_seed(seed, t, f"{tag}-partner"))
        ldec, pdec = learner.decide, partner.decide
        lobs, pobs = learner.observe, partner.observe
        prev, sw = -1, 0
        for n in range(horizon):
            a = ldec()
            if not 0 <= a < rows:
                raise ContractViolation(
                    f"alice strategy {learner.name!r} emitted action {a} at stage {n}"
                )
            b = pdec()
            if not 0 <= b < cols:
                raise ContractViolation(
                    f"bob strategy {partner.name!r} emitted action {b} at stage {n}"
                )
            lobs(a, b)
            pobs(a, b)
            if a != prev:
                sw, prev = n, a
        last_switch[t] = sw
        final_action[t] = prev
    return last_switch, final_action
