"""World dynamics: rules, touching, resets, builtin scenarios, files."""

import itertools
import math
import pickle
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

import lightup
from lightup.cli import main
from lightup.errors import ConfigError
from lightup.experiment import ExperimentConfig, Simulation
from lightup.world import (
    _SCALARS,
    BUILTIN_SCENARIOS,
    CONTEXT_MODES,
    Goal,
    ScenarioSpec,
    WorldState,
    builtin_scenario,
    default_positions,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    state_key,
)


def all_states(spec):
    for bits in itertools.product([False, True], repeat=spec.n_goals):
        for cf in (0.0, 1.0):
            yield WorldState(sphere_on=bits, context_feature=cf)


def oracle_achievable(spec, goal_index, state):
    """Independent re-evaluation of the rule semantics, straight off the rule."""
    rule = spec.goals[goal_index]
    if state.sphere_on[goal_index]:
        return False
    for req in rule.requires_on:
        if not state.sphere_on[req]:
            return False
    for blk in rule.blocked_by:
        if state.sphere_on[blk]:
            return False
    if rule.requires_context is not None and state.context_feature != rule.requires_context:
        return False
    return True


# -- builtin scenarios -------------------------------------------------------


def test_builtin_scenario_schedules():
    s1, s2, s3 = (builtin_scenario(i) for i in (1, 2, 3))
    assert s1.total_trials == 3000 and s1.reset_policy == "per_trial"
    assert s2.total_trials == 4000 and s2.reset_policy == "per_trial"
    assert s3.total_trials == 6000 and s3.trials_per_epoch == 3
    assert s3.reset_policy == "per_epoch"
    assert s3.total_trials // s3.trials_per_epoch == 2000
    for s in (s1, s2, s3):
        assert s.labels == ("a", "b", "c", "d", "e", "f")
        assert s.total_trials % s.trials_per_epoch == 0


def test_builtin_scenario_1_has_no_conditions():
    s1 = builtin_scenario(1)
    for goal in s1.goals:
        assert not goal.requires_on and not goal.blocked_by
        assert goal.requires_context is None


def test_builtin_scenario_2_context_split():
    s2 = builtin_scenario(2)
    for lab in ("a", "c", "e"):
        assert s2.goals[s2.labels.index(lab)].requires_context == 1.0
    for lab in ("b", "d", "f"):
        assert s2.goals[s2.labels.index(lab)].requires_context == 0.0
    assert s2.context_prob_on == 0.5


def test_builtin_scenario_3_chains():
    s3 = builtin_scenario(3)
    gi = s3.labels.index
    assert s3.goals[gi("c")].requires_on == frozenset({gi("d")})
    assert s3.goals[gi("e")].requires_on == frozenset({gi("c")})
    assert s3.goals[gi("f")].requires_on == frozenset({gi("b")})
    assert s3.goals[gi("a")].requires_on == frozenset({gi("f")})
    assert s3.goals[gi("d")].blocked_by == frozenset({gi("b")})
    assert s3.goals[gi("b")].blocked_by == frozenset({gi("d")})


def test_unknown_builtin_id_rejected():
    with pytest.raises(ConfigError):
        builtin_scenario(4)


# -- achievability and touching ----------------------------------------------


def fresh(spec, cf=0.0):
    return WorldState(sphere_on=(False,) * spec.n_goals, context_feature=cf)


def test_scenario3_chain_start_achievable_from_fresh():
    s3 = builtin_scenario(3)
    b, d, e = map(s3.labels.index, "bde")
    assert s3.is_achievable(d, fresh(s3))
    assert s3.is_achievable(b, fresh(s3))
    assert not s3.is_achievable(e, fresh(s3))


def test_scenario3_mutual_exclusion_after_d():
    s3 = builtin_scenario(3)
    b, c, d = map(s3.labels.index, "bcd")
    state, ok = s3.apply_touch(d, fresh(s3))
    assert ok
    assert s3.is_achievable(c, state)
    assert not s3.is_achievable(b, state)


def test_scenario1_everything_achievable_when_off():
    s1 = builtin_scenario(1)
    for cf in (0.0, 1.0):
        for goal in range(s1.n_goals):
            assert s1.is_achievable(goal, fresh(s1, cf))


def test_already_on_sphere_not_achievable():
    for sid in (1, 2, 3):
        spec = builtin_scenario(sid)
        for goal in range(spec.n_goals):
            on = [False] * spec.n_goals
            on[goal] = True
            state = WorldState(sphere_on=tuple(on), context_feature=1.0)
            assert not spec.is_achievable(goal, state)


def test_apply_touch_activates_d_from_fresh():
    s3 = builtin_scenario(3)
    d = s3.labels.index("d")
    state, ok = s3.apply_touch(d, fresh(s3))
    assert ok and state.sphere_on[d]
    others = [state.sphere_on[i] for i in range(6) if i != d]
    assert not any(others)


def test_apply_touch_noop_when_preconditions_missing():
    s3 = builtin_scenario(3)
    state, ok = s3.apply_touch(s3.labels.index("e"), fresh(s3))
    assert not ok and state == fresh(s3)


def test_retouching_active_sphere_is_noop():
    s1 = builtin_scenario(1)
    a = s1.labels.index("a")
    state, ok = s1.apply_touch(a, fresh(s1))
    assert ok
    state2, ok2 = s1.apply_touch(a, state)
    assert not ok2 and state2 == state


def test_touch_matches_achievability_over_all_states():
    # Brute force: all 2^6 x 2 states x 6 goals against the independent oracle.
    for sid in (1, 2, 3):
        spec = builtin_scenario(sid)
        for state in all_states(spec):
            for goal in range(spec.n_goals):
                expected = oracle_achievable(spec, goal, state)
                assert spec.is_achievable(goal, state) == expected
                new_state, achieved = spec.apply_touch(goal, state)
                assert achieved == expected
                if achieved:
                    assert new_state.sphere_on[goal]
                    unchanged = [new_state.sphere_on[i] == state.sphere_on[i]
                                 for i in range(spec.n_goals) if i != goal]
                    assert all(unchanged)
                else:
                    assert new_state == state


def test_scenario3_reachable_activations_are_single_chain_prefixes():
    s3 = builtin_scenario(3)
    seen = set()
    frontier = [fresh(s3)]
    while frontier:
        state = frontier.pop()
        if state.sphere_on in seen:
            continue
        seen.add(state.sphere_on)
        for goal in range(6):
            new_state, achieved = s3.apply_touch(goal, state)
            if achieved:
                frontier.append(new_state)

    def bits(labels):
        on = [False] * 6
        for lab in labels:
            on[s3.labels.index(lab)] = True
        return tuple(on)

    expected = {bits(()), bits("d"), bits("dc"), bits("dce"),
                bits("b"), bits("bf"), bits("bfa")}
    assert seen == expected


def test_sphere_monotone_within_epoch():
    s3 = builtin_scenario(3)
    rng = np.random.default_rng(5)
    state = fresh(s3)
    for _ in range(200):
        before = state.sphere_on
        state, _ = s3.apply_touch(int(rng.integers(6)), state)
        assert all(b or not a for a, b in zip(before, state.sphere_on))


# -- the touch table --------------------------------------------------------------


def walk(spec):
    """Every state ``spec`` hands out from a reset through apply_touch chains,
    by (sphere_on, context_feature)."""
    reached = {}
    frontier = [spec.reset(np.random.default_rng(0))]
    while frontier:
        state = frontier.pop()
        if (state.sphere_on, state.context_feature) not in reached:
            reached[state.sphere_on, state.context_feature] = state
            frontier.extend(spec.apply_touch(goal, state)[0] for goal in range(spec.n_goals))
    return reached


def reached_states(spec):
    """(spec, state) pairs by (sphere_on, context_feature), for both context values.

    States are walked from the resets of two copies of ``spec``, with
    ``context_prob_on`` 0 and 1, so both contexts are reached whatever the
    scenario draws; each state comes with the copy that handed it out.
    """
    reached = {}
    for prob in (0.0, 1.0):
        owner = replace(spec, context_prob_on=prob)
        reached.update((key, (owner, state)) for key, state in walk(owner).items())
    return reached


@pytest.mark.parametrize("sid", sorted(BUILTIN_SCENARIOS))
def test_reached_states_behave_like_fresh_ones(sid):
    spec = builtin_scenario(sid)
    reached = reached_states(spec)
    # Scenario 1 reaches every pattern; scenario 2 the subsets of a/c/e under
    # cf=1 and of b/d/f under cf=0; scenario 3 the seven chain prefixes per cf.
    assert len(reached) == {1: 128, 2: 16, 3: 14}[sid]
    for fresh_state in all_states(spec):
        if (fresh_state.sphere_on, fresh_state.context_feature) not in reached:
            continue
        owner, state = reached[fresh_state.sphere_on, fresh_state.context_feature]
        assert state == fresh_state and hash(state) == hash(fresh_state)
        bits = "".join(str(int(b)) for b in fresh_state.sphere_on)
        assert state.key_string() == fresh_state.key_string() == f"{bits}/{int(fresh_state.context_feature)}"
        for mode in CONTEXT_MODES:
            assert state_key(state, mode) == state_key(fresh_state, mode)
        for goal in range(spec.n_goals):
            expected = oracle_achievable(spec, goal, fresh_state)
            assert owner.is_achievable(goal, state) == expected
            assert owner.is_achievable(goal, fresh_state) == expected
            assert owner.apply_touch(goal, state) == owner.apply_touch(goal, fresh_state)


@pytest.mark.parametrize("sid", sorted(BUILTIN_SCENARIOS))
def test_repeated_touch_returns_the_same_object(sid):
    for owner, state in reached_states(builtin_scenario(sid)).values():
        for goal in range(owner.n_goals):
            first = owner.apply_touch(goal, state)
            assert owner.apply_touch(goal, state) is first
            if not first[1]:
                assert first[0] is state


def test_equal_states_whatever_the_touch_order():
    s1 = builtin_scenario(1)
    start = s1.reset(np.random.default_rng(0))
    assert s1.reset(np.random.default_rng(1)) is start
    a, b = map(s1.labels.index, "ab")
    a_then_b = s1.apply_touch(b, s1.apply_touch(a, start)[0])[0]
    b_then_a = s1.apply_touch(a, s1.apply_touch(b, start)[0])[0]
    assert a_then_b == b_then_a and a_then_b.key_string() == b_then_a.key_string()


def test_a_state_built_directly_shares_the_reset_states_touch_results():
    s3 = builtin_scenario(3)
    start = s3.reset(np.random.default_rng(0))
    built = WorldState((False,) * s3.n_goals, 0.0)
    assert built == start and built is not start
    for goal in range(s3.n_goals):
        first = s3.apply_touch(goal, built)
        assert s3.apply_touch(goal, start) is first
        if not first[1]:
            assert first[0] == start


def test_a_state_hashes_by_field_and_finds_the_touch_entry():
    s3 = builtin_scenario(3)
    start = s3.reset(np.random.default_rng(0))
    built = WorldState((False,) * s3.n_goals, start.context_feature)
    assert hash(built) == hash(start) == hash((built.sphere_on, built.context_feature))
    d = s3.labels.index("d")
    first = s3.apply_touch(d, start)
    assert s3._touches[built, d] is first
    assert {start: 1}[built] == 1


def test_another_spec_touches_a_state_by_its_own_rules():
    s1, s3 = builtin_scenario(1), builtin_scenario(3)
    start = s3.reset(np.random.default_rng(0))
    e = s3.labels.index("e")
    assert s3.apply_touch(e, start) == (start, False)
    state, ok = s1.apply_touch(e, start)
    assert ok and state.key_string() == "000010/0"
    assert s3.apply_touch(e, start) == (start, False)


def test_spec_with_warm_caches_survives_pickling():
    # --jobs N pickles the config, and so the spec with its state table.
    cfg = ExperimentConfig(scenario=3, system="m_grail", seed=3)
    warm = Simulation(cfg)
    for _ in range(300):
        warm.run_trial()
    spec = cfg.scenario
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    reached = walk(copy)
    assert reached == walk(spec) and len(reached) == 7
    for state in reached.values():
        for goal in range(copy.n_goals):
            assert copy.is_achievable(goal, state) == oracle_achievable(spec, goal, state)
            assert copy.apply_touch(goal, state) is copy.apply_touch(goal, state)

    cold_cfg = ExperimentConfig(scenario=3, system="m_grail", seed=9)
    cold = Simulation(cold_cfg)
    thawed = Simulation(replace(cold_cfg, scenario=copy))
    for _ in range(300):
        thawed.run_trial()
        cold.run_trial()
    assert len(cold.series.goal) == 300
    assert thawed.series == cold.series


# -- reset -------------------------------------------------------------------


def test_reset_all_off_and_context_extremes():
    s1 = builtin_scenario(1)
    rng = np.random.default_rng(0)
    state = s1.reset(rng)
    assert not any(state.sphere_on) and state.context_feature == 0.0

    s2 = builtin_scenario(2)
    from dataclasses import replace
    always = replace(s2, context_prob_on=1.0)
    assert always.reset(rng).context_feature == 1.0


def test_reset_context_rate_is_half_in_scenario2():
    s2 = builtin_scenario(2)
    rng = np.random.default_rng(11)
    draws = [s2.reset(rng).context_feature for _ in range(4000)]
    assert abs(np.mean(draws) - 0.5) < 0.03


# -- state keys -----------------------------------------------------------------


def test_state_key_modes():
    state = WorldState(sphere_on=(True, False, True, False, False, False), context_feature=1.0)
    assert state_key(state, "none") == ()
    # A state just reset, with every sphere off, keys on its context.
    assert state_key(WorldState((False,) * 6, 1.0), "full_state") == (0, 0, 0, 0, 0, 0, 1)
    assert state_key(state, "full_state") == (1, 0, 1, 0, 0, 0, 1)
    assert state.key_string() == "101000/1"
    assert CONTEXT_MODES == ("none", "full_state")
    for mode in ("bogus", "context_feature"):
        with pytest.raises(ConfigError, match=f"unknown context mode '{mode}'"):
            state_key(state, mode)


@pytest.mark.parametrize("context", [0.0, 1.0])
def test_key_string_round_trips_for_every_state_of_six_goals(context):
    # from_key_string is key_string's inverse: it gives back a state that is
    # equal, keys alike in every mode and prints the same text.
    texts = set()
    for on in itertools.product((False, True), repeat=6):
        state = WorldState(on, context)
        text = state.key_string()
        back = WorldState.from_key_string(text)
        assert back == state and back.key_string() == text and back.mask == state.mask
        assert all(state_key(back, mode) == state_key(state, mode) for mode in CONTEXT_MODES)
        texts.add(text)
    assert len(texts) == 64


@pytest.mark.parametrize("text", ["", "010010", "010010/", "010010/2", "010210/1", "01001/0/1", " 010010/1"])
def test_from_key_string_refuses_text_no_state_prints(text):
    with pytest.raises(ValueError, match="is not sphere bits"):
        WorldState.from_key_string(text)


# -- validation and files ---------------------------------------------------------


def base_dict(**overrides):
    d = {
        "goals": ["a", "b", "c"],
        "context_prob_on": 0.0,
        "trials_per_epoch": 1,
        "total_trials": 30,
        "reset_policy": "per_trial",
        "rules": [],
    }
    d.update(overrides)
    return d


def test_scenario_roundtrip_through_dict():
    for sid in BUILTIN_SCENARIOS:
        spec = builtin_scenario(sid)
        assert scenario_from_dict(scenario_to_dict(spec)) == spec


def test_cycle_detection_names_the_cycle():
    data = base_dict(rules=[
        {"goal": "a", "requires_on": ["b"]},
        {"goal": "b", "requires_on": ["a"]},
    ])
    with pytest.raises(ConfigError, match="cyclic"):
        scenario_from_dict(data)
    # Each goal on the path requires the next.
    data = base_dict(goals=["a", "b", "c", "d"], rules=[
        {"goal": "a", "requires_on": ["b"]},
        {"goal": "b", "requires_on": ["c"]},
        {"goal": "c", "requires_on": ["d"]},
        {"goal": "d", "requires_on": ["b"]},
    ])
    with pytest.raises(ConfigError) as caught:
        scenario_from_dict(data)
    assert str(caught.value) == "cyclic requires_on chain: b -> c -> d -> b"


def test_requires_and_blocked_overlap_rejected():
    data = base_dict(rules=[{"goal": "a", "requires_on": ["b"], "blocked_by": ["b"]}])
    with pytest.raises(ConfigError, match="requires and is blocked"):
        scenario_from_dict(data)


def test_duplicate_rule_rejected():
    data = base_dict(rules=[{"goal": "a"}, {"goal": "a"}])
    with pytest.raises(ConfigError, match="multiple rules"):
        scenario_from_dict(data)


def test_unknown_rule_goal_rejected():
    data = base_dict(rules=[{"goal": "z"}])
    with pytest.raises(ConfigError, match="unknown goal"):
        scenario_from_dict(data)


def test_scenario_without_goals_rejected():
    with pytest.raises(ConfigError, match="at least one goal"):
        scenario_from_dict(base_dict(goals=[]))


def test_indivisible_schedule_rejected():
    data = base_dict(trials_per_epoch=4, total_trials=30)
    with pytest.raises(ConfigError, match="divisible"):
        scenario_from_dict(data)


def test_spec_checks_itself_when_built():
    with pytest.raises(ConfigError, match="cyclic requires_on chain: a -> a$"):
        ScenarioSpec(goals=(Goal("a", (0.0, 0.6), requires_on=frozenset({0})),))
    with pytest.raises(ConfigError, match="divisible"):
        replace(builtin_scenario(3), total_trials=100)
    with pytest.raises(ConfigError, match="'b' position"):
        ExperimentConfig(scenario=base_dict(positions={"a": [0.0, 0.6], "b": [math.inf, 0.6], "c": [0.3, 0.5]}))


@pytest.mark.parametrize("position", [(math.nan, 0.6), (0.0, -math.inf), (0.6,)])
def test_sphere_position_must_be_two_finite_numbers(position):
    with pytest.raises(ConfigError) as caught:
        ScenarioSpec(goals=(Goal("a", (0.0, 0.6)), Goal("b", position)))
    assert str(caught.value) == f"goal 'b' position {position} must be two finite numbers"


def two_goal_file(position=(0.3, 0.5), **rule):
    """A scenario mapping with goals a and b, and ``rule`` (if any) for b."""
    return {"goals": ["a", "b"], "positions": {"a": [0.0, 0.6], "b": list(position)},
            "rules": [{"goal": "b", **rule}] if rule else []}


NOT_TEXT = "is not text; put it in quotes (YAML reads unquoted numbers and yes/no as numbers and booleans)"


@pytest.mark.parametrize("make_b, data, error", [
    (lambda: Goal("b", [0.3, 0.5]), two_goal_file(), None),
    (lambda: Goal("b", np.array([0.3, 0.5])), two_goal_file(), None),
    (lambda: Goal("b", ("0.3", "0.5")), two_goal_file(), None),
    (lambda: Goal("b", (0.3, 0.5), requires_on=[0]), two_goal_file(requires_on=["a"]), None),
    (lambda: Goal("b", (0.3, 0.5), requires_on={0}), two_goal_file(requires_on=["a"]), None),
    (lambda: Goal("b", (0.3, 0.5), blocked_by=[np.int64(0)]), two_goal_file(blocked_by=["a"]), None),
    (lambda: {"label": "b", "position": [0.3, 0.5], "requires_on": (0,)}, two_goal_file(requires_on=["a"]), None),
    (lambda: Goal("b", (0.3, 0.5), requires_context="1"), two_goal_file(requires_context=1.0), None),
    (lambda: Goal(1, (0.3, 0.5)), {"goals": ["a", 1]}, f"goal label 1 {NOT_TEXT}"),
    (lambda: Goal(["x"], (0.3, 0.5)), {"goals": ["a", ["x"]]}, f"goal label ['x'] {NOT_TEXT}"),
    (lambda: Goal("b", (0.3, 0.5), requires_on=["a"]), None, "goal 'b' requires_on must be an integer, got 'a'"),
    (lambda: Goal("b", (0.3, 0.5), requires_on=[True]), None, "goal 'b' requires_on must be an integer, got True"),
    (lambda: Goal("b", (0.3, 0.5), requires_on=[2]), None, "rule for 'b' references goal index 2"),
    (lambda: Goal("b", (0.3, 0.5), requires_context=0.5), two_goal_file(requires_context=0.5),
     "goal 'b' requires_context 0.5; must be 0.0 or 1.0"),
    (lambda: Goal("b", [0.3]), two_goal_file([0.3]), "goal 'b' position (0.3,) must be two finite numbers"),
    (lambda: Goal("b", [0.3, 0.5, 0.0]), two_goal_file([0.3, 0.5, 0.0]),
     "goal 'b' position (0.3, 0.5, 0.0) must be two finite numbers"),
    (lambda: Goal("b", [math.nan, 0.5]), two_goal_file([math.nan, 0.5]),
     "goal 'b' position (nan, 0.5) must be two finite numbers"),
    (lambda: Goal("b", np.zeros((2, 1))), None, "goal 'b' position must be a list of numbers, got array([[0.], [0.]])"),
    (lambda: {"label": "b"}, None, "goals[1] is missing ['position']"),
], ids=["position-list", "position-array", "position-text", "requires_on-list", "requires_on-set",
        "blocked_by-np_int64", "goal-mapping", "requires_context-text", "label-int", "label-list",
        "requires_on-label", "requires_on-bool", "requires_on-past_the_last", "requires_context-half", "position-one", "position-three",
        "position-nan", "position-2d_array", "goal-mapping-no_position"])
def test_python_goals_take_the_file_path(tmp_path, capsys, make_b, data, error):
    # A goal built in Python is cast and checked as a scenario file's is: it
    # builds the file's spec, or raises the CLI's error text.
    if error is None:
        spec = ScenarioSpec(goals=[Goal("a", (0.0, 0.6)), make_b()])
        assert spec == scenario_from_dict(data) and hash(spec) == hash(scenario_from_dict(data))
        assert type(spec.goals) is tuple and all(type(goal) is Goal for goal in spec.goals)
        for goal in spec.goals:
            assert type(goal.position) is tuple and list(map(type, goal.position)) == [float, float]
            assert all(type(i) is int for i in goal.requires_on | goal.blocked_by)
            assert type(goal.requires_on) is type(goal.blocked_by) is frozenset
            assert goal.requires_context in (None, 0.0, 1.0) and type(goal.requires_context) in (type(None), float)
        return
    with pytest.raises(ConfigError) as caught:
        ScenarioSpec(goals=[Goal("a", (0.0, 0.6)), make_b()])
    assert str(caught.value) == error and "\n" not in str(caught.value)
    if data is not None:
        path = tmp_path / "scn.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["validate", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


def test_a_goal_carries_its_rule():
    assert not hasattr(lightup, "DependencyRule")
    assert "index" not in {f.name for f in fields(Goal)}
    assert [f.name for f in fields(ScenarioSpec)] == ["goals", *_SCALARS]
    # A file that leaves the scalars out gets the spec's defaults.
    assert scenario_from_dict({"goals": ["a"]}) == ScenarioSpec(goals=(Goal("a", default_positions(1)[0]),))


def test_load_scenario_file_roundtrip(tmp_path):
    import yaml

    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(scenario_to_dict(builtin_scenario(2))))
    spec = load_scenario(str(path))
    assert spec.context_prob_on == 0.5
    assert spec.goals == builtin_scenario(2).goals


def test_load_scenario_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario("/nonexistent/scenario.yaml")


def test_default_positions_spacing():
    pos = default_positions(6)
    assert len(pos) == 6
    for (x1, y1), (x2, y2) in zip(pos, pos[1:]):
        assert np.hypot(x2 - x1, y2 - y1) > 0.1  # beyond two touch radii
