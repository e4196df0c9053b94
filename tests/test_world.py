"""World dynamics: rules, touching, resets, builtin scenarios, files."""

import itertools

import numpy as np
import pytest

from lightup.errors import ConfigError
from lightup.world import (
    BUILTIN_SCENARIOS,
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
    rule = spec.rules[goal_index]
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
    for rule in s1.rules:
        assert not rule.requires_on and not rule.blocked_by
        assert rule.requires_context is None


def test_builtin_scenario_2_context_split():
    s2 = builtin_scenario(2)
    for lab in ("a", "c", "e"):
        assert s2.rules[s2.goal_index(lab)].requires_context == 1.0
    for lab in ("b", "d", "f"):
        assert s2.rules[s2.goal_index(lab)].requires_context == 0.0
    assert s2.context_prob_on == 0.5


def test_builtin_scenario_3_chains():
    s3 = builtin_scenario(3)
    gi = s3.goal_index
    assert s3.rules[gi("c")].requires_on == frozenset({gi("d")})
    assert s3.rules[gi("e")].requires_on == frozenset({gi("c")})
    assert s3.rules[gi("f")].requires_on == frozenset({gi("b")})
    assert s3.rules[gi("a")].requires_on == frozenset({gi("f")})
    assert s3.rules[gi("d")].blocked_by == frozenset({gi("b")})
    assert s3.rules[gi("b")].blocked_by == frozenset({gi("d")})


def test_unknown_builtin_id_rejected():
    with pytest.raises(ConfigError):
        builtin_scenario(4)


# -- achievability and touching ----------------------------------------------


def fresh(spec, cf=0.0):
    return WorldState(sphere_on=(False,) * spec.n_goals, context_feature=cf)


def test_scenario3_chain_start_achievable_from_fresh():
    s3 = builtin_scenario(3)
    assert s3.is_achievable("d", fresh(s3))
    assert s3.is_achievable("b", fresh(s3))
    assert not s3.is_achievable("e", fresh(s3))


def test_scenario3_mutual_exclusion_after_d():
    s3 = builtin_scenario(3)
    state, ok = s3.apply_touch("d", fresh(s3))
    assert ok
    assert s3.is_achievable("c", state)
    assert not s3.is_achievable("b", state)


def test_scenario1_everything_achievable_when_off():
    s1 = builtin_scenario(1)
    for cf in (0.0, 1.0):
        for lab in s1.labels:
            assert s1.is_achievable(lab, fresh(s1, cf))


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
    state, ok = s3.apply_touch("d", fresh(s3))
    assert ok and state.sphere_on[s3.goal_index("d")]
    others = [state.sphere_on[i] for i in range(6) if i != s3.goal_index("d")]
    assert not any(others)


def test_apply_touch_noop_when_preconditions_missing():
    s3 = builtin_scenario(3)
    state, ok = s3.apply_touch("e", fresh(s3))
    assert not ok and state == fresh(s3)


def test_retouching_active_sphere_is_noop():
    s1 = builtin_scenario(1)
    state, ok = s1.apply_touch("a", fresh(s1))
    assert ok
    state2, ok2 = s1.apply_touch("a", state)
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
            on[s3.goal_index(lab)] = True
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
    assert state_key(state, "context_feature") == (1,)
    assert state_key(state, "full_state") == (1, 0, 1, 0, 0, 0, 1)
    assert state.key_string() == "101000/1"
    with pytest.raises(ConfigError):
        state_key(state, "bogus")


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


def test_load_scenario_file_roundtrip(tmp_path):
    import yaml

    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(scenario_to_dict(builtin_scenario(2))))
    spec = load_scenario(str(path))
    assert spec.context_prob_on == 0.5
    assert spec.rules == builtin_scenario(2).rules


def test_load_scenario_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario("/nonexistent/scenario.yaml")


def test_default_positions_spacing():
    pos = default_positions(6)
    assert len(pos) == 6
    for (x1, y1), (x2, y2) in zip(pos, pos[1:]):
        assert np.hypot(x2 - x1, y2 - y1) > 0.1  # beyond two touch radii
