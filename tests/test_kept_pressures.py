"""A long-horizon lock on the threshold controllers' integrals and kept pressures.

The reference properties of `test_baselines` and `test_detectors` run short
episodes of a few hundred seconds. Here each controller runs full 1,800-s
halves of the benchmark's saturated and light compare flows on the default
spec, beside the walk-everything reference controllers of `test_baselines`.
On every tick the decisions must be equal and the integrals (with the
max-integral controller's kept pressures) must have the same exact reprs. One
controller runs all the episodes, reset between them, beside a fresh one per
episode, so a reused controller must decide as a fresh one does.
"""

import pytest

from test_baselines import ReferenceCutoffController, ReferenceMaxIntegralController, exact_state
from trafficlab import core, sim
from trafficlab.baselines import CutoffController, MaxIntegralController

# compare-grid's flows at benchmark seed 1: its light uniform and saturated
# clustered profiles, each generated for 3,600 s and cut into halves.
LIGHT = "uniform(rate_per_lane=0.03,n_lanes=8)"
SATURATED = ("clustered(cluster_size=6,inter_cluster_gap=3,within_gap=1,"
             "lane_weights=1:1:1:1:1:1:1:1)")


@pytest.fixture(scope="module")
def halves():
    """The saturated flow's first half, the light flow's second half, and the
    saturated flow's second half: the reused controller meets a light episode
    after a saturated one and a saturated one after a light one."""
    saturated = core.split_halves(core.generate_flow(core.parse_profile(SATURATED), 1003, 3600))
    light = core.split_halves(core.generate_flow(core.parse_profile(LIGHT), 1001, 3600))
    return saturated[0], light[1], saturated[1]


@pytest.mark.parametrize("cls, ref_cls", [
    (CutoffController, ReferenceCutoffController),
    (MaxIntegralController, ReferenceMaxIntegralController),
], ids=["sotl1", "sotl2"])
def test_every_tick_of_full_halves_matches_the_reference(halves, cls, ref_cls):
    spec = core.default_intersection(300.0)
    reused = cls(spec)
    switches = 0
    for flow in halves:
        assert flow.duration == 1800
        reused.reset()
        fresh, ref = cls(spec), ref_cls(spec)
        state = sim.init(spec, flow)
        while state.clock < flow.duration:
            target = ref.decide(state)
            assert reused.decide(state) == target
            assert fresh.decide(state) == target
            assert exact_state(reused) == exact_state(fresh) == exact_state(ref)
            switches += target != state.signal.current_phase
            sim.command_signal(state, target)
            sim.tick(state)
        assert state.completed
    # The episodes do switch phases, so the resets and subtractions are exercised.
    assert switches > 100
