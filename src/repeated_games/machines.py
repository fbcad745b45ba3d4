"""Deterministic finite-state strategies and exact limit-average values.

Two deterministic machines playing each other induce a deterministic walk on
the joint state space, which must enter a cycle within |S_pi| * |S_phi| + 1
steps; the limit average payoff is the exact rational mean over that cycle.
This gives an exact oracle against which the Monte Carlo estimators are
cross-checked, and the value table for the computational-rationality check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction


from .core import Game, Strategy

__all__ = [
    "FSMStrategy",
    "Belief",
    "FSMBehavioral",
    "exact_value",
    "machine_game_value",
    "is_computationally_rational",
    "fsm_encode",
    "NotEncodable",
    "RationalityVerdict",
]


class NotEncodable(ValueError):
    """The spec contains randomness and has no deterministic FSM equivalent."""


@dataclass(frozen=True)
class FSMStrategy:
    """Deterministic finite-state strategy.

    ``output[s]`` is the action played in state ``s``; ``transition[s][o]``
    is the successor state after observing opponent action ``o``.
    """

    states: int
    initial: int
    output: tuple
    transition: tuple  # states x opponent_actions
    label: str = "fsm"

    def __post_init__(self):
        if not 0 <= self.initial < self.states:
            raise ValueError("initial state out of range")
        if len(self.output) != self.states:
            raise ValueError("output table must cover every state")
        if len(self.transition) != self.states:
            raise ValueError("transition table must cover every state")
        widths = {len(row) for row in self.transition}
        if len(widths) > 1:
            raise ValueError("transition rows must have equal width")
        for row in self.transition:
            for s in row:
                if not 0 <= s < self.states:
                    raise ValueError("transition target out of range")

    @property
    def n_opponent_actions(self) -> int:
        return len(self.transition[0])

    def reachable_size(self) -> int:
        """Machine size measured as reachable-state count after pruning."""
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            s = frontier.pop()
            for t in self.transition[s]:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        return len(seen)

    def to_json(self) -> str:
        return json.dumps(
            {
                "states": self.states,
                "initial": self.initial,
                "output": list(self.output),
                "transition": [list(r) for r in self.transition],
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FSMStrategy":
        d = json.loads(text)
        return FSMStrategy(
            d["states"], d["initial"], tuple(d["output"]),
            tuple(tuple(r) for r in d["transition"]),
        )


class FSMBehavioral(Strategy):
    """Behavioral-strategy adapter so machines run in the Monte Carlo simulator.

    ``side`` selects which component of the observed joint action drives the
    transitions ('alice' machines observe Bob and vice versa).
    """

    name = "fsm"
    deterministic = True

    def __init__(self, machine: FSMStrategy, n_own_actions: int, side: str, seed=None):
        super().__init__(seed)
        self.machine = machine
        self.n_own_actions = n_own_actions
        if side not in ("alice", "bob"):
            raise ValueError("side must be 'alice' or 'bob'")
        self.side = side
        self._state = machine.initial

    def decide(self) -> int:
        return self.machine.output[self._state]

    def observe(self, a, b):
        self._pos += 1
        opp = b if self.side == "alice" else a
        self._state = self.machine.transition[self._state][opp]


def _frac_payoff(game: Game):
    return [[Fraction(x).limit_denominator(10**12) for x in row] for row in game._payoff_rows]


def exact_value(game: Game, m_pi: FSMStrategy, m_phi: FSMStrategy) -> Fraction:
    """Exact limit-average payoff of two machines playing each other.

    Runs the joint deterministic system until a joint state repeats and
    returns the exact rational average over the detected cycle. Terminates
    within states(pi) * states(phi) + 1 steps by pigeonhole.
    """
    if m_pi.n_opponent_actions < 1 or m_phi.n_opponent_actions < 1:
        raise ValueError("machines must observe at least one opponent action")
    pay = _frac_payoff(game)
    seen: dict[tuple, int] = {}
    payoffs: list[Fraction] = []
    sa, sb = m_pi.initial, m_phi.initial
    step_budget = m_pi.states * m_phi.states + 1
    steps = 0
    while (sa, sb) not in seen:
        if steps > step_budget:  # pigeonhole guarantees this never trips
            raise AssertionError("joint walk failed to cycle within the pigeonhole budget")
        seen[(sa, sb)] = len(payoffs)
        a, b = m_pi.output[sa], m_phi.output[sb]
        if not 0 <= a < game.rows or not 0 <= b < game.cols:
            raise ValueError("machine output out of range for the game")
        payoffs.append(pay[a][b])
        sa, sb = m_pi.transition[sa][b], m_phi.transition[sb][a]
        steps += 1
    start = seen[(sa, sb)]
    cycle = payoffs[start:]
    return sum(cycle, Fraction(0)) / len(cycle)


@dataclass(frozen=True)
class Belief:
    """Probability-weighted support over Alice machines."""

    support: tuple  # of (FSMStrategy, Fraction-able probability)

    def __post_init__(self):
        probs = [Fraction(str(p)) if isinstance(p, float) else Fraction(p)
                 for _, p in self.support]
        if any(p < 0 for p in probs):
            raise ValueError("belief probabilities must be non-negative")
        if abs(float(sum(probs)) - 1.0) > 1e-12:
            raise ValueError("belief probabilities must sum to 1")
        object.__setattr__(self, "_probs", tuple(probs))

    def items(self):
        return [(m, p) for (m, _), p in zip(self.support, self._probs)]


def machine_game_value(game: Game, rho: Belief, m_phi: FSMStrategy) -> Fraction:
    """Expected exact value of m_phi under the belief rho, exact arithmetic."""
    total = Fraction(0)
    for m_pi, p in rho.items():
        if p:
            total += p * exact_value(game, m_pi, m_phi)
    return total


@dataclass(frozen=True)
class RationalityVerdict:
    passed: bool
    value: Fraction
    size: int
    witness: FSMStrategy | None
    witness_value: Fraction | None
    value_table: tuple

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "value": str(self.value),
            "size": self.size,
            "witness": None if self.witness is None else self.witness.to_json(),
            "witness_value": None if self.witness_value is None else str(self.witness_value),
            "value_table": [
                {"label": lbl, "value": str(v), "size": s} for lbl, v, s in self.value_table
            ],
        }


def is_computationally_rational(
    game: Game, m_phi: FSMStrategy, rho: Belief, candidates
) -> RationalityVerdict:
    """Lexicographic best-response check: value first, machine size second.

    PASS iff no candidate achieves strictly higher expected value, nor equal
    value with a strictly smaller reachable-state count. The verdict is
    independent of candidate ordering because the winner is selected by the
    total order (value desc, size asc).
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    if all(c is not m_phi and c != m_phi for c in candidates):
        candidates.append(m_phi)
    own_value = machine_game_value(game, rho, m_phi)
    own_size = m_phi.reachable_size()
    table = []
    witness, witness_value = None, None
    for cand in candidates:
        v = machine_game_value(game, rho, cand)
        s = cand.reachable_size()
        table.append((cand.label, v, s))
        if cand == m_phi:
            continue
        dominates = v > own_value or (v == own_value and s < own_size)
        if dominates and (
            witness is None
            or (v, -s) > (witness_value, -witness.reachable_size())
        ):
            witness, witness_value = cand, v
    return RationalityVerdict(
        passed=witness is None,
        value=own_value,
        size=own_size,
        witness=witness,
        witness_value=witness_value,
        value_table=tuple(table),
    )


def fsm_encode(kind: str, **kw) -> FSMStrategy:
    """Encode a known strategy spec as an exactly-equivalent FSM.

    Supported kinds: ``fixed`` (action, n_opponent_actions), ``grim_trigger``
    (expected_alice_action, cooperate_action, punish_action,
    n_opponent_actions), ``mirror`` (n_actions, initial_action), and
    ``switching_deterministic`` (tau, target_action, n_actions,
    fallback_action) -- the derandomized switching variant with the uniform
    phase replaced by a fixed fallback. Randomized specs raise NotEncodable.
    """
    if kind == "fixed":
        a, n_opp = kw["action"], kw["n_opponent_actions"]
        return FSMStrategy(1, 0, (a,), ((0,) * n_opp,), label=f"fixed-{a}")
    if kind == "grim_trigger":
        exp, coop, pun = kw["expected_alice_action"], kw["cooperate_action"], kw["punish_action"]
        n_opp = kw["n_opponent_actions"]
        coop_row = tuple(0 if o == exp else 1 for o in range(n_opp))
        return FSMStrategy(
            2, 0, (coop, pun), (coop_row, (1,) * n_opp), label="grim_trigger"
        )
    if kind == "mirror":
        n = kw["n_actions"]
        init = kw.get("initial_action", 0)
        # state 0 = initial, state 1+k = "opponent last played k"
        output = (init,) + tuple(range(n))
        row = tuple(1 + k for k in range(n))
        return FSMStrategy(n + 1, 0, output, (row,) * (n + 1), label="mirror")
    if kind == "switching_deterministic":
        tau, target, n = kw["tau"], kw["target_action"], kw["n_actions"]
        fallback = kw["fallback_action"]
        # states 0..tau-1 count stages; tau = wait (last != target); tau+1 = mirror
        states = tau + 2
        output, transition = [], []
        for s in range(tau):
            output.append(fallback)
            nxt = s + 1 if s + 1 < tau else tau
            transition.append(tuple((nxt + 1 if o == target else nxt) if s + 1 == tau else nxt
                                    for o in range(n)))
        for s in (tau, tau + 1):
            output.append(fallback if s == tau else target)
            transition.append(tuple(tau + 1 if o == target else tau for o in range(n)))
        return FSMStrategy(states, 0, tuple(output), tuple(transition),
                           label=f"switching-{tau}-{target}")
    if kind in ("switching", "uniform"):
        raise NotEncodable(f"{kind!r} has a randomized phase; no deterministic FSM exists")
    raise ValueError(f"unknown FSM spec kind {kind!r}")
