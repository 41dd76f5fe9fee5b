import numpy as np
import pytest

from conftest import point_to_polyline_distance
from intentforge.analysis import gt_deviation
from intentforge.experiments import run_scene
from intentforge.map_model import parse_scenario, write_scenario
from intentforge.scenario_gen import SUPPORTED, GenSpec, generate, generate_suite


def test_unsupported_combination_rejected():
    with pytest.raises(ValueError):
        GenSpec("straight", agent_behavior="offroad_parking")
    with pytest.raises(ValueError):
        GenSpec("roundabout")


def test_follow_lane_endpoint_on_polyline():
    scenario = generate(GenSpec("straight", seed=0))
    track = scenario.track(scenario.tracks_to_predict[0])
    endpoint = track.gt_endpoint()
    nodes = scenario.vector_map.segments[0].nodes
    assert point_to_polyline_distance(endpoint, nodes) <= 0.5


def test_uturn_corner_cut_realizes_divergence_geometry():
    """The upstream-split layout: two exit segments diverging within the
    10 m backwards-look budget of the agent's nearest lane node."""
    scenario = generate(GenSpec("uturn_split", seed=0,
                                agent_behavior="corner_cut"))
    vm = scenario.vector_map
    track = scenario.track(scenario.tracks_to_predict[0])
    point = track.current_state.position

    approach = vm.segments[0]
    assert len(approach.exit_ids) == 2
    # nearest node overall sits on the U-turn branch ...
    nearest = vm.nearest_nodes(point, 5.0)[0]
    assert nearest[0] == 1
    # ... the left-turn branch is within the proximity limit too ...
    d_left = np.hypot(*(vm.segments[2].nodes - point).T).min()
    assert d_left <= 5.0
    # ... and the divergence point is within 10 m of upstream arc length
    seed_arc = vm.segments[1].arc_offsets[nearest[1]]
    assert seed_arc <= 10.0


def test_generate_deterministic_bytes():
    spec = GenSpec("merge", seed=123, agent_behavior="lane_merge_violation")
    assert write_scenario(generate(spec)) == write_scenario(generate(spec))


def test_generate_distinct_seeds_differ():
    a = write_scenario(generate(GenSpec("straight", seed=1)))
    b = write_scenario(generate(GenSpec("straight", seed=2)))
    assert a != b


def test_suite_singleton():
    assert len(generate_suite(1, seed=4)) == 1


@pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
def test_suite_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        generate_suite(1, seed=seed)


def test_suite_deterministic():
    a = [write_scenario(s) for s in generate_suite(12, seed=9)]
    b = [write_scenario(s) for s in generate_suite(12, seed=9)]
    assert a == b


def test_suite_all_validate():
    suite = generate_suite(100, seed=0)
    assert len(suite) == 100
    ids = set()
    for scenario in suite:
        again = parse_scenario(write_scenario(scenario))
        assert again == scenario
        ids.add(scenario.scenario_id)
    assert len(ids) == 100  # unique scenario ids


def test_behavior_labels_are_faithful():
    for template, behaviors in SUPPORTED.items():
        for behavior in behaviors:
            scenario = generate(GenSpec(template, seed=17,
                                        agent_behavior=behavior))
            track = scenario.track(scenario.tracks_to_predict[0])
            _, assoc, rset = run_scene(scenario)[0]
            if behavior == "offroad_parking":
                assert assoc.fallback
                continue
            assert not assoc.fallback
            deviation = gt_deviation(track, rset, "node")
            if behavior in ("follow_lane", "corner_cut"):
                assert deviation < 1.0
            else:  # illegal_uturn, lane_merge_violation
                assert deviation > 3.0


def test_suite_behavior_restriction():
    suite = generate_suite(30, seed=2, behaviors=("follow_lane",))
    assert all("follow_lane" in s.scenario_id for s in suite)
