import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (point_to_polyline_distance, states_from_path_reference,
                      stationary_states_reference, write_scenario_reference)
from intentforge import scenario_gen
from intentforge.analysis import gt_deviation
from intentforge.cli import main
from intentforge.experiments import run_scene
from intentforge.map_model import (HISTORY_LEN, AgentTrack, Scenario,
                                   parse_scenario, write_scenario)
from intentforge.scenario_gen import (SUPPORTED, GenSpec, _q6, generate,
                                      iter_suite)


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
    point = track.states[HISTORY_LEN - 1, :2]

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


def test_generate_distinct_seeds_differ():
    a = write_scenario(generate(GenSpec("straight", seed=1)))
    b = write_scenario(generate(GenSpec("straight", seed=2)))
    assert a != b


@pytest.mark.parametrize("template", sorted(SUPPORTED))
def test_huge_speed_limit_holds_the_agent_at_the_path_end(tmp_path, capsys,
                                                          template):
    """At a speed limit of 1e308 the follow_lane agent's arc lengths
    overflow to inf, which the clamp at the path end takes in silence: the
    scene is written, it parses, and its future stands at one point."""
    out = tmp_path / "s"
    assert main(["gen", "--template", template, "--speed-limit", "1e308",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    [path] = out.glob("*.json")
    scenario = parse_scenario(path.read_bytes())
    future = scenario.track(scenario.tracks_to_predict[0]).future_xy
    assert (future == future[-1]).all()


def test_suite_singleton():
    assert len(list(iter_suite(1, seed=4))) == 1


def test_suite_all_validate():
    suite = list(iter_suite(100, seed=0))
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
    suite = list(iter_suite(30, seed=2, behaviors=("follow_lane",)))
    assert all("follow_lane" in s.scenario_id for s in suite)


@pytest.mark.parametrize("behaviors, message", [
    ((), "behaviors must not be empty"),
    (("follow-lane",), "unknown behavior 'follow-lane'"),
    (("follow_lane", "parking"), "unknown behavior 'parking'"),
])
def test_suite_rejects_bad_behaviors(behaviors, message):
    # without the check, the template draw never finds a pool and never ends
    with pytest.raises(ValueError, match=message):
        next(iter_suite(2, 0, behaviors=behaviors))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tracks_match_per_state_reference(seed, monkeypatch):
    """Every track of a 500-scene suite equals the track that the
    per-state loop builds from the same path (offroad_parking agents stand
    at (10, 6) facing east), and the first 50 scenes write the bytes of
    the per-row writer."""
    paths = []

    def record(*args, real=scenario_gen._states_from_path):
        paths.append(args)
        return real(*args)

    monkeypatch.setattr(scenario_gen, "_states_from_path", record)
    suite = list(iter_suite(500, seed))
    paths = iter(paths)
    for i, scenario in enumerate(suite):
        track, = scenario.tracks
        history, future = (
            stationary_states_reference((10.0, 6.0), 0.0)
            if "offroad_parking" in scenario.scenario_id
            else states_from_path_reference(*next(paths)))
        want = AgentTrack(track.agent_id, track.object_class, track.length_m,
                          track.width_m, history, future)
        assert track.states.tobytes() == want.states.tobytes()
        assert track.timestamps == want.timestamps
        if i < 50:
            assert write_scenario(scenario) == write_scenario_reference(
                Scenario(scenario.scenario_id, scenario.vector_map, [want],
                         scenario.tracks_to_predict))
    assert next(paths, None) is None


Q6_EXACT_LIMIT = 2.0**52 / 1e6   # from here on every v * 1e6 is a whole number


@st.composite
def near_half(draw):
    """A float a few ulps from (k + 0.5) / 1e6: a product a * 1e6 that
    rounds to either side of a half."""
    k = draw(st.integers(-2**52, 2**52 - 1))
    v = (k + 0.5) / 1e6
    for _ in range(draw(st.integers(0, 3))):
        v = math.nextafter(v, draw(st.sampled_from([-math.inf, math.inf])))
    return v


Q6_VALUES = st.one_of(
    near_half(),
    st.sampled_from([0.0, -0.0, Q6_EXACT_LIMIT, -Q6_EXACT_LIMIT,
                     math.nextafter(Q6_EXACT_LIMIT, 0.0), 0.0000005,
                     -0.0000005, 2.5e-6]),
    st.floats(Q6_EXACT_LIMIT, 1e300), st.floats(-1e300, -Q6_EXACT_LIMIT),
    st.floats(-1e3, 1e3))


@settings(max_examples=300, deadline=None)
@given(st.lists(Q6_VALUES, min_size=1, max_size=40))
def test_array_q6_is_python_round(values):
    want = np.array([round(v, 6) for v in values])
    assert _q6(np.array(values)).tobytes() == want.tobytes()
