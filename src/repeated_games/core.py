"""Stage games, histories, behavioral strategies, and the seeded simulator.

Conventions used throughout the package:

- Actions are 0-based indices into the payoff matrix.
- Alice is the row player (the learner), Bob the column player (the partner).
- Every strategy owns its own random stream; the sampled trajectory is a
  deterministic function of (game, strategy seeds, rollout seed).
"""

from __future__ import annotations

import copy
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
    "derive_trial_seed",
    "rollout",
    "simulate_payoffs",
    "commit_stats",
]


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

    def pairs(self):
        return list(zip(self.alice, self.bob))


class Strategy:
    """Behavioral strategy: finite history -> distribution over own actions.

    The distribution is sampled, never computed: the simulator calls
    ``decide()`` for the current stage's action and ``observe(a, b)`` after
    each stage, and ``_sync(history)`` observes a recorded history. The
    replay contract: a fresh instance on the live one's seed, synced onto
    any prefix of live play, is at the same stage (``_pos``) and, once both
    are reseeded onto one new stream, decides as the live instance does. A
    learner also redraws in replay what it drew live, so its stream matches.

    Decisions depend only on the observed history and the strategy's own
    stream; never on wall clock, trial index, or partner identity.
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

    def observe(self, a: int, b: int) -> None:
        """Record the realized joint action of the stage just played."""
        self._pos += 1

    def absorbed(self) -> int | None:
        """The action played at every later stage, or None if not (yet) known.

        A strategy that returns an action ``a`` here promises that from now
        on ``decide()`` returns ``a``, whatever history it observes and
        whatever its random stream draws. Callers may then skip simulating
        it (the deviation oracle does). The default, None, promises nothing
        and is always safe.
        """
        return None

    def respond(self, a: int, n: int) -> np.ndarray | None:
        """This strategy's actions at the next ``n`` stages if Alice plays
        ``a`` at each of them, as an int array; None if it cannot say.

        An answer consumes the random stream exactly as ``n`` calls of
        ``decide()`` with ``observe(a, ·)`` between them would, but observes
        nothing itself: the caller follows it with ``observe_many``. None,
        the default, draws nothing and is always safe. The stage loop asks
        once the learner is absorbed at ``a``. Fixed, uniform, stationary,
        grim-trigger, switching and fictitious-play strategies answer, and
        so does a drawn mixture through its member; the finite-state machines
        and the predictive exploiter return None.
        """
        return None

    def observe_many(self, alice, bob) -> None:
        """``observe(alice[i], bob[i])`` for every i, in order.

        ``alice`` and ``bob`` are equal-length lists of ints. An override
        must leave the same state as those calls: the same ``_pos``, and the
        same later actions and draws. It may skip work the stages cannot
        affect: once ``absorbed()`` names an action, nothing observed changes
        what the strategy plays, so ``FixedAction`` and a committed
        ``ExploreThenCommit`` only advance ``_pos``.
        """
        obs = self.observe
        for a, b in zip(alice, bob):
            obs(a, b)

    # -- shared machinery ------------------------------------------------------
    def reseed(self, seed) -> None:
        """Replace the random stream without touching learned state."""
        self._seed = seed
        self._rand = np.random.default_rng(seed)

    def clone(self, seed) -> "Strategy":
        """A copy of the run state that continues on a fresh random stream.

        Equivalent to ``copy.deepcopy`` followed by ``reseed(seed)``, which is
        the default. Subclasses may override it to copy only their mutable run
        state and share the immutable parts (game, experts, rules).
        """
        c = copy.deepcopy(self)
        c.reseed(seed)
        return c

    def _sync(self, history: History) -> None:
        """Observe the stages of ``history`` past the ones already observed.

        The stages go through ``observe_many`` in one call, so a replay takes
        whatever bulk path the strategy has.
        """
        pos, n = self._pos, len(history)
        if n < pos:
            raise ContractViolation(
                f"{self.name}: history shorter than already-observed prefix; "
                "replay it on a fresh instance"
            )
        self.observe_many(history.alice[pos:n], history.bob[pos:n])


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


_POLL_BLOCK = 64  # stages between absorbed() polls in both loops


def simulate_payoffs(
    game: Game, pi: Strategy, phi: Strategy, horizon: int, history: History | None = None
) -> np.ndarray:
    """Run ``horizon`` stages from the strategies' current state; payoffs only.

    This is the hot loop: strategies are driven through their incremental
    decide/observe interface and all bookkeeping stays in local variables.
    Stages are played in blocks: stage 0, then ``_POLL_BLOCK`` at a time. The
    methods are read again after each block, so a fresh mixture that draws
    its member at stage 0 and binds the member's methods
    (``RandomChoiceStrategy``) is called directly from then on. When
    ``history`` is given, each stage's joint action is appended to it.

    After each block, while at least one more full block remains, the
    learner is asked for ``absorbed()``. Once it names the action ``a`` it
    plays at every later stage, the partner is asked once for
    ``respond(a, rest)``. An answer fills the rest of the trial in one numpy
    step: ``a`` and the whole answer array are range-checked (the error
    names the first bad stage, as the loop would), the payoffs are read from
    ``game.payoff[a]`` (the same doubles the loop reads), and both
    strategies take the stages through ``observe_many``. Fixed, uniform,
    stationary, grim-trigger, switching and fictitious-play partners (and a
    drawn mixture of them) answer; a partner that cannot say (None), such as
    a finite-state machine or the predictive exploiter, plays the rest in
    one block. Short remainders are never polled: below one block the
    per-stage loop is as fast.
    """
    pay = game._payoff_rows
    rows, cols = game.rows, game.cols
    out = np.empty(horizon)
    record = history is not None
    if record:
        arec, brec = history.alice.append, history.bob.append
    lo, hi = 0, min(horizon, 1)
    while lo < hi:
        pdec, qdec = pi.decide, phi.decide
        pobs, qobs = pi.observe, phi.observe
        for n in range(lo, hi):
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
        lo, hi = hi, horizon
        if horizon - lo < _POLL_BLOCK:
            continue
        a = pi.absorbed()
        if a is None:
            hi = lo + _POLL_BLOCK
            continue
        bs = phi.respond(a, horizon - lo)
        if bs is None:
            continue
        if not 0 <= a < rows:
            raise ContractViolation(
                f"alice strategy {pi.name!r} emitted action {a} at stage {lo}"
            )
        if bs.min() < 0 or bs.max() >= cols:
            i = int(np.flatnonzero((bs < 0) | (bs >= cols))[0])
            raise ContractViolation(
                f"bob strategy {phi.name!r} emitted action {bs[i]} at stage {lo + i}"
            )
        out[lo:] = game.payoff[a][bs]
        alice, bob = [a] * (horizon - lo), bs.tolist()
        pi.observe_many(alice, bob)
        phi.observe_many(alice, bob)
        if record:
            history.alice += alice
            history.bob += bob
        break
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

    Stages are played in blocks (one stage, then ``_POLL_BLOCK``), and
    after each block the learner is asked for ``absorbed()``. Once it names
    the action it plays at every later stage, the trial's result is fixed
    and the rest of the trial is not played, so no range check runs on
    those stages for either player.
    """
    rows, cols = game.rows, game.cols
    last_switch = np.zeros(trials, dtype=np.int64)
    final_action = np.full(trials, -1, dtype=np.int64)
    for t in range(trials):
        learner = learner_factory(derive_trial_seed(seed, t, f"{tag}-learner"))
        partner = partner_factory(derive_trial_seed(seed, t, f"{tag}-partner"))
        prev, sw = -1, 0
        lo, hi = 0, min(horizon, 1)
        while lo < hi:
            # read after each block: a fresh mixture binds its member at stage 0
            ldec, pdec = learner.decide, partner.decide
            lobs, pobs = learner.observe, partner.observe
            for n in range(lo, hi):
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
            fixed = learner.absorbed()
            if fixed is not None:
                # every later stage plays ``fixed``: a new action switches once more
                if fixed != prev and hi < horizon:
                    sw, prev = hi, fixed
                break
            lo, hi = hi, min(hi + _POLL_BLOCK, horizon)
        last_switch[t] = sw
        final_action[t] = prev
    return last_switch, final_action
