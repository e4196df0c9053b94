"""Softmax rule, the value table at each system's parameters, and value-iteration agreement."""

import copy
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightup.errors import NumericsError
from lightup.experiment import SYSTEMS, ExperimentConfig, Simulation
from lightup.selection import SelectionStrategy, choose_index, softmax_probabilities
from lightup.world import WorldState, builtin_scenario


def strategy(system, n_goals, context_mode="full_state", temperature=0.01):
    """A selection strategy with the given system's learning rate and discount."""
    learning_rate, discount = SYSTEMS[system].learning_rate, SYSTEMS[system].discount
    return SelectionStrategy(n_goals, temperature, learning_rate, discount, context_mode=context_mode)


# -- softmax ------------------------------------------------------------------


def test_softmax_uniform_for_equal_values():
    p = softmax_probabilities(np.zeros(6), 0.1)
    assert np.allclose(p, 1.0 / 6.0)


def test_softmax_spec_point_value():
    # e^5 / (e^5 + 5) for values (0.5, 0, 0, 0, 0, 0) at temperature 0.1
    p = softmax_probabilities(np.array([0.5, 0, 0, 0, 0, 0]), 0.1)
    expected = math.exp(5.0) / (math.exp(5.0) + 5.0)
    assert p[0] == pytest.approx(expected, abs=1e-12)
    assert p[0] == pytest.approx(0.9674, abs=1e-4)


def test_softmax_flattens_at_high_temperature():
    p = softmax_probabilities(np.array([5.0, 1.0, -3.0, 0.0, 2.0, 0.5]), 1e9)
    assert np.allclose(p, 1.0 / 6.0, atol=1e-8)


def test_softmax_normalizes_and_respects_argmax():
    rng = np.random.default_rng(7)
    for _ in range(300):
        values = rng.normal(0, rng.uniform(0.01, 5.0), 6)
        tau = rng.uniform(1e-3, 10.0)
        p = softmax_probabilities(values, tau)
        assert abs(sum(p) - 1.0) < 1e-12
        assert np.argmax(p) == np.argmax(values)


def test_softmax_rejects_nonpositive_temperature():
    with pytest.raises(ValueError):
        softmax_probabilities(np.zeros(3), 0.0)


def test_softmax_overflow_raises_numerics_error():
    # 0.01 / 1e-320 overflows to inf, and inf - inf is NaN.
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
        softmax_probabilities(np.array([0.01, 0.0, 0.0]), 1e-320)


def two_pass_softmax(values, temperature):
    """The reference: every value divided by the temperature before the max is taken."""
    z = [v / temperature for v in values]
    top = max(z)
    p = [math.exp(x - top) for x in z]
    total = functools.reduce(operator.add, p)
    if not math.isfinite(total):
        raise NumericsError("not finite")
    return [x / total for x in p]


# Any float, with ties, signed zeros, subnormals and values whose quotients
# overflow or underflow drawn often; temperatures down to the smallest double.
SOFTMAX_VALUES = st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-3, -1e-3, 0.5, 1e300, -1e300])
                          | st.floats(), min_size=1, max_size=8)
TEMPERATURES = st.sampled_from([5e-324, 1e-320, 1e-300, 1e-3, 0.01, 0.1]) | st.floats(5e-324, 1e6)


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(SOFTMAX_VALUES, TEMPERATURES)
def test_softmax_equals_the_two_pass_reference_bit_for_bit(values, temperature):
    try:
        expected = two_pass_softmax(values, temperature)
    except NumericsError:
        with pytest.raises(NumericsError):
            softmax_probabilities(values, temperature)
        return
    assert [p.hex() for p in softmax_probabilities(values, temperature)] == [p.hex() for p in expected]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(SOFTMAX_VALUES, st.sampled_from([math.nan, math.inf]), st.integers(0, 8), TEMPERATURES)
def test_softmax_with_a_nan_or_inf_value_raises_numerics_error(values, bad, at, temperature):
    with pytest.raises(NumericsError):
        softmax_probabilities(values[:at] + [bad] + values[at:], temperature)


def bin_edge_at(u, n):
    """Probabilities over n indices whose running sum passes exactly through u."""
    if n == 2:
        return [u, 1.0 - u]
    return [u / 2, u / 2] + [(1.0 - u) / (n - 2)] * (n - 2)


def test_choose_index_draws_what_generator_choice_draws():
    # Softmax distributions over 2 goals (arms) and 6 goals at every
    # temperature the systems use; a tenth of the cases are ties, and a
    # tenth put a bin edge exactly on the uniform number the draw will use.
    temperatures = sorted({system.temperature for system in SYSTEMS.values()}
                          | {ExperimentConfig().expert_temperature})
    cases = np.random.default_rng(2024)
    ours, numpy_rng = np.random.default_rng(7), np.random.default_rng(7)
    drawn, differ = 0, 0
    for n in (2, 6):
        for temperature in temperatures:
            for i in range(17_000):
                if i % 10 == 0:
                    p = softmax_probabilities([0.0] * n, temperature)
                elif i % 10 == 5:
                    p = bin_edge_at(copy.deepcopy(ours).random(), n)
                else:
                    values = temperature * cases.normal(0.0, cases.uniform(0.1, 5.0), n)
                    p = softmax_probabilities(values.tolist(), temperature)
                differ += choose_index(p, ours) != int(numpy_rng.choice(n, p=np.array(p)))
                drawn += 1
    assert drawn >= 100_000
    assert differ == 0
    # Each draw consumed exactly what choice consumed.
    assert ours.random() == numpy_rng.random()


# -- bandit (grail) --------------------------------------------------------------


def test_bandit_single_update_from_zero():
    bv = strategy("grail", 6, context_mode="none")
    bv.update((), 2, 1.0, None)
    values = bv.goal_values(())
    assert values[2] == pytest.approx(0.01)
    assert all(values[g] == 0.0 for g in range(6) if g != 2)


def test_bandit_converges_to_constant_reward():
    bv = strategy("grail", 6, context_mode="none")
    for _ in range(1000):
        bv.update((), 0, 0.7, ())
    assert abs(bv.goal_values(())[0] - 0.7) < 0.01


def test_bandit_fixpoint_when_reward_equals_value():
    bv = strategy("grail", 6, context_mode="none")
    bv.goal_values(())[1] = 0.25
    bv.update((), 1, 0.25, None)
    assert bv.goal_values(())[1] == pytest.approx(0.25)


# -- contextual bandit (c_grail) ---------------------------------------------------


def test_contextual_single_update():
    cv = strategy("c_grail", 6)
    cv.update((1,), 0, 0.5, None)
    assert cv.goal_values((1,))[0] == pytest.approx(0.05)


def test_contextual_key_isolation():
    cv = strategy("c_grail", 6)
    cv.update((1,), 0, 0.5, (0,))
    # Without a discount nothing bootstraps, so the next key gets no row.
    assert list(cv.table) == [(1,)]
    assert cv.goal_values((0,)) == [0.0] * 6
    assert all(cv.goal_values((1,))[g] == 0.0 for g in range(1, 6))


def test_contextual_zero_reward_fixpoint():
    cv = strategy("c_grail", 6)
    for _ in range(500):
        cv.update((0,), 3, 0.0, (1,))
    assert cv.goal_values((0,))[3] == 0.0


def test_single_cell_isolation_random_updates():
    rng = np.random.default_rng(13)
    stores = [strategy(system, 6) for system in SYSTEMS]
    keys = [(0,), (1,), (0, 1, 0), ()]
    for _ in range(500):
        key = keys[rng.integers(len(keys))]
        nxt = keys[rng.integers(len(keys))]
        goal = int(rng.integers(6))
        reward = float(rng.normal())
        for store in stores:
            before = {k: v.copy() for k, v in store.table.items()}
            before.setdefault(key, [0.0] * 6)
            store.update(key, goal, reward, None if rng.integers(2) else nxt)
            after = store.table
            for k, v in after.items():
                base = before.get(k, [0.0] * 6)
                diff = [g for g in range(6) if v[g] != base[g]]
                if k == key:
                    assert set(diff) <= {goal}
                else:
                    assert len(diff) == 0


# -- Q-learning (m_grail) ------------------------------------------------------------


def test_q_single_update_terminal():
    qv = strategy("m_grail", 6)
    qv.goal_values(("t",))[0] = 1.0  # a next row exists, but a terminal update is given no next key
    qv.update(("s",), 1, 0.5, None)
    assert qv.goal_values(("s",))[1] == pytest.approx(0.05)


def test_q_bootstrap_propagates_next_state_value():
    qv = strategy("m_grail", 6)
    qv.goal_values(("next",))[4] = 1.0
    qv.update(("s",), 0, 0.0, ("next",))
    assert qv.goal_values(("s",))[0] == pytest.approx(0.1 * 0.3 * 1.0)


def value_iteration_chain(n_states=3, gamma=0.3, tol=1e-12):
    """Oracle for the deterministic 3-state chain: move-on action, reward at the end."""
    v = np.zeros(n_states + 1)  # terminal appended
    while True:
        nv = v.copy()
        for s in range(n_states):
            reward = 1.0 if s == n_states - 1 else 0.0
            nv[s] = reward + gamma * v[s + 1] * (0.0 if s == n_states - 1 else 1.0)
        if np.max(np.abs(nv - v)) < tol:
            return nv[:n_states]
        v = nv


def test_q_converges_on_three_state_chain():
    # One action that advances the chain; reward 1 only entering the end.
    qv = strategy("m_grail", 1)
    states = [("s0",), ("s1",), ("s2",)]
    for _ in range(3000):
        for i, s in enumerate(states):
            terminal = i == len(states) - 1
            reward = 1.0 if terminal else 0.0
            nxt = states[i + 1] if not terminal else None
            qv.update(s, 0, reward, nxt)
    oracle = value_iteration_chain()
    assert oracle[0] == pytest.approx(0.09)
    assert oracle[1] == pytest.approx(0.3)
    assert oracle[2] == pytest.approx(1.0)
    got = np.array([qv.goal_values(s)[0] for s in states])
    assert np.max(np.abs(got - oracle)) < 1e-6


def test_q_values_bounded_by_rmax_over_one_minus_gamma():
    rng = np.random.default_rng(21)
    qv = strategy("m_grail", 4)
    r_max = 0.1
    keys = [(i,) for i in range(5)]
    for _ in range(5000):
        key, goal = keys[rng.integers(5)], int(rng.integers(4))
        reward, nxt = float(rng.uniform(0, r_max)), keys[rng.integers(5)]
        qv.update(key, goal, reward, None if rng.integers(2) else nxt)
    bound = r_max / (1.0 - qv.discount) + 1e-9
    for values in qv.table.values():
        assert all(0.0 <= v <= bound for v in values)


def test_backpropagation_vs_fading_bandit():
    # Zero reward at the chain-start goal, positive reward at the chain end:
    # Q keeps the start valuable; the bandit EMA of the start decays to ~0.
    qv = strategy("m_grail", 2)
    bv = strategy("grail", 2, context_mode="none")
    start_state, end_state = ("s0",), ("s1",)
    bv.goal_values(())[0] = 0.05  # pretend it once earned rewards
    for _ in range(2000):
        qv.update(start_state, 0, 0.0, end_state)   # start goal: no reward now
        qv.update(end_state, 1, 0.1, None)          # chain end still rewarding
        bv.update((), 0, 0.0, ())
    assert qv.goal_values(start_state)[0] > 0.02
    assert bv.goal_values(())[0] < 1e-6


# -- strategy ---------------------------------------------------------------------


def test_strategy_keying_modes():
    state = WorldState(sphere_on=(True, False, False, False, False, False), context_feature=1.0)
    assert strategy("grail", 6, context_mode="none").state_key(state) == ()
    assert strategy("c_grail", 6, context_mode="full_state").state_key(state) == (1, 0, 0, 0, 0, 0, 1)
    assert strategy("m_grail", 6, context_mode="full_state").state_key(state) == (1, 0, 0, 0, 0, 0, 1)
    # A state just reset, with every sphere off, keys on its context.
    reset = WorldState(sphere_on=(False,) * 6, context_feature=1.0)
    assert strategy("c_grail", 6, context_mode="full_state").state_key(reset) == (0, 0, 0, 0, 0, 0, 1)
    # The simulation makes grail state-blind whatever the scenario's context mode.
    spec = builtin_scenario(3)
    assert spec.context_mode == "full_state"
    sim = Simulation(ExperimentConfig(scenario=spec, system="grail"))
    assert sim.strategy.state_key(state) == ()


def test_strategy_select_uses_softmax_over_goal_values():
    strat = strategy("c_grail", 6, context_mode="full_state")
    state = WorldState(sphere_on=(False,) * 6, context_feature=1.0)
    for _ in range(21):
        strat.update((0, 0, 0, 0, 0, 0, 1), 2, 1.0, None)  # strongly prefer goal 2 in cf=1
    rng = np.random.default_rng(0)
    picks = [strat.select(strat.state_key(state), rng) for _ in range(200)]
    assert picks.count(2) > 150


def test_strategy_dump_rows_sorted_and_complete():
    strat = strategy("m_grail", 3, context_mode="full_state", temperature=0.1)
    strat.update((0, 0, 0, 1), 0, 0.5, None)
    strat.update((0, 0, 0, 0), 2, 0.25, None)
    rows = list(strat.dump_rows())
    assert len(rows) == 6  # two keys x three goals
    keys = [r[0] for r in rows]
    assert keys == sorted(keys)
