"""Zoo-wide contracts of the history interface, for every strategy.

``Strategy._sync`` replays a conditioning history on a fresh instance
through ``observe_many``; the replay contract says the replayed instance
then stands where live play left the live one, so that on a common stream
the two decide alike. ``deterministic`` promises that play never draws from
the strategy's random stream.
"""

import copy

import pytest
from strategy_zoo import GAME, N, ZOO, fresh, strategy_classes

from repeated_games.core import History, simulate_payoffs
from repeated_games.partners import StationaryPartner, UniformPartner

STAGES = 60  # recorded stages replayed prefix by prefix
CONTINUATION = 20  # stages compared after the common reseed
COMMON_SEED = 999  # the one new stream both instances continue on
DETERMINISTIC_STAGES = 200


def _pair(strategy, side, other):
    """``(pi, phi)``: ``strategy`` on its side, ``other`` on the opposite one."""
    return (strategy, other) if side == "alice" else (other, strategy)


def _play(pi, phi, stages):
    """Play ``stages`` stages; the joint actions, in order."""
    out = []
    for _ in range(stages):
        a, b = pi.decide(), phi.decide()
        pi.observe(a, b)
        phi.observe(a, b)
        out.append((a, b))
    return out


def _continuation(strategy, side):
    """``strategy``'s next ``CONTINUATION`` actions on the common stream,
    facing uniform play on a fixed stream."""
    strategy.reseed(COMMON_SEED)
    played = _play(*_pair(strategy, side, UniformPartner(N, 5)), CONTINUATION)
    return [p[0] if side == "alice" else p[1] for p in played]


def _live(name, seed):
    """Zoo case ``name`` played live for ``STAGES`` stages against a seeded
    uniform partner: the joint actions and, at each of the ``STAGES + 1``
    prefixes, a deep copy of the live strategy and its stream state."""
    _, side, make = ZOO[name]
    strategy = fresh(make, 100 + seed)
    pi, phi = _pair(strategy, side, UniformPartner(N, seed))
    pairs, snapshots = [], []
    for n in range(STAGES + 1):
        snapshots.append((copy.deepcopy(strategy), strategy._rand.bit_generator.state))
        if n < STAGES:
            pairs += _play(pi, phi, 1)
    return pairs, snapshots


@pytest.mark.parametrize("name", sorted(ZOO))
def test_replay_on_a_fresh_instance_gives_the_live_distributions(name):
    """Bit-exact replay: the replayed instance is at the live stage, a
    learner's stream is where live play left it, and after one common
    reseed it decides what the live instance decides. Equal decisions on
    every common stream are equal behavioral distributions. An audit log
    is compared too: against uniform play the exploiter rarely reaches the
    end of an interval's uniform stretch within the continuation, so its
    decisions alone would not show an interval that replay failed to open."""
    _, side, make = ZOO[name]
    for seed in range(3):
        pairs, snapshots = _live(name, seed)
        for n, (live, state) in enumerate(snapshots):
            replayed = fresh(make, 100 + seed)
            replayed._sync(History(pairs[:n]))
            assert replayed._pos == live._pos == n, (seed, n)
            if side == "alice":
                assert replayed._rand.bit_generator.state == state, (seed, n)
            assert _continuation(replayed, side) == _continuation(live, side), (seed, n)
            # the exploiter publishes its intervals; replay must open them too
            log = getattr(live, "audit_log", None)
            assert getattr(replayed, "audit_log", None) == log, (seed, n)


def test_deterministic_strategies_leave_their_stream_untouched():
    checked = set()
    for name, (cls, side, make) in sorted(ZOO.items()):
        strategy = fresh(make, 7)
        if not strategy.deterministic:
            continue
        state = strategy._rand.bit_generator.state
        simulate_payoffs(GAME, *_pair(strategy, side, UniformPartner(N, 3)),
                         DETERMINISTIC_STAGES)
        assert strategy._pos == DETERMINISTIC_STAGES
        assert strategy._rand.bit_generator.state == state, name
        checked.add(cls)
    # every class that sets the flag, and both that set it per instance
    flagged = {cls for cls in strategy_classes() if cls.deterministic}
    assert checked == flagged | {UniformPartner, StationaryPartner}
