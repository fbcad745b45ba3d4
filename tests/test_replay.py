"""Zoo-wide contracts of the history interface, for every strategy.

``Strategy._sync`` replays a conditioning history on a fresh instance
through ``observe_many``; the replay contract says the replayed instance
then gives the distributions live play gave. ``deterministic`` promises
that play never draws from the strategy's random stream.
"""

import pytest
from strategy_zoo import GAME, N, ZOO, fresh, strategy_classes

from repeated_games.core import History, simulate_payoffs
from repeated_games.partners import StationaryPartner, UniformPartner

STAGES = 60  # recorded stages replayed prefix by prefix
DETERMINISTIC_STAGES = 200


def _live(name, seed):
    """Zoo case ``name`` played live for ``STAGES`` stages against a seeded
    uniform partner: the recorded history, and the strategy's distribution
    at each of its ``STAGES + 1`` prefixes."""
    _, side, make = ZOO[name]
    strategy, other = fresh(make, 100 + seed), UniformPartner(N, seed)
    pi, phi = (strategy, other) if side == "alice" else (other, strategy)
    h, dists = History(), []
    for _ in range(STAGES):
        dists.append(strategy.probs().tolist())
        a, b = pi.decide(), phi.decide()
        pi.observe(a, b)
        phi.observe(a, b)
        h.append(a, b)
    dists.append(strategy.probs().tolist())
    return h, dists


@pytest.mark.parametrize("name", sorted(ZOO))
def test_replay_on_a_fresh_instance_gives_the_live_distributions(name):
    make = ZOO[name][2]
    for seed in range(3):
        h, dists = _live(name, seed)
        for n in range(STAGES + 1):
            replayed = fresh(make, 100 + seed)
            prefix = History(zip(h.alice[:n], h.bob[:n]))
            assert replayed.action_distribution(prefix).tolist() == dists[n], (seed, n)
            assert replayed._pos == n


def test_deterministic_strategies_leave_their_stream_untouched():
    checked = set()
    for name, (cls, side, make) in sorted(ZOO.items()):
        strategy = fresh(make, 7)
        if not strategy.deterministic:
            continue
        state = strategy._rand.bit_generator.state
        other = UniformPartner(N, 3)
        pi, phi = (strategy, other) if side == "alice" else (other, strategy)
        simulate_payoffs(GAME, pi, phi, DETERMINISTIC_STAGES)
        assert strategy._pos == DETERMINISTIC_STAGES
        assert strategy._rand.bit_generator.state == state, name
        checked.add(cls)
    # every class that sets the flag, and both that set it per instance
    flagged = {cls for cls in strategy_classes() if cls.deterministic}
    assert checked == flagged | {UniformPartner, StationaryPartner}
