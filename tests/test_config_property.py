"""Property tests: a generated config is rejected with ConfigError, or it runs
a short simulation to completion and writes only finite values; and an
accepted config survives a trip through YAML unchanged.

Values are drawn from ranges that keep a run small (few trials, short
rollouts, a narrow feature layer), never from extremes that spawn work. One
field at a time may be replaced by a value read from a wider range, which
the config may accept or reject, or by NaN or text, which it must reject.
"""

import csv
import math
import os
import tempfile
from dataclasses import replace

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from lightup.errors import ConfigError
from lightup.experiment import BACKENDS, SYSTEMS, config_from_dict, config_to_dict, run_experiment


def unit(open_low=False):
    return st.floats(0.0, 1.0, exclude_min=open_low)


TOP = {
    "system": st.sampled_from(sorted(SYSTEMS)),
    "backend": st.sampled_from(BACKENDS),
    "replications": st.integers(1, 2),
    "seed": st.integers(0, 2**32),
    "timeout_steps": st.integers(1, 30),
    "eval_interval": st.integers(1, 12),
    "eval_trials": st.integers(1, 3),
    "temperature": st.none() | st.floats(1e-3, 10.0),
    "expert_temperature": st.floats(1e-3, 10.0),
    "expert_smoothing": unit(open_low=True),
    "predictor_eta": unit(open_low=True),
    "gate_epsilon": unit(),
    "clip_reward": st.booleans(),
    "idealized_init_competence": unit(),
    "idealized_learning_rate": unit(open_low=True),
    "idealized_disruption": unit(),
    "idealized_exploration_floor": unit(),
    "dump_values": st.booleans(),
}

ACTOR_CRITIC = {
    "hidden_units": st.integers(1, 16),
    "feature_scale": st.floats(0.0, 4.0),
    "feature_offset": st.floats(0.0, 3.0),
    "actor_lr": st.floats(1e-4, 0.5),
    "critic_lr": st.floats(1e-4, 0.5),
    "discount": unit(),
    "noise_correlation": unit(),
    "success_smoothing": unit(open_low=True),
    "td_clip": st.floats(1e-3, 10.0),
    "actor_delta_margin": unit(),
    "imitate_window": st.integers(0, 200),
    "success_replays": st.integers(0, 4),
}

# Draws for the one replaced field: WIDE ones cross most fields' bounds, so
# the config may take or refuse them; no field may take a REJECTED one.
WIDE = st.one_of(st.integers(-2, 40), st.floats(-1.0, 2.0), st.booleans(), st.none())
REJECTED = st.sampled_from([math.nan, "abc", [1.0]])


@st.composite
def config_dicts(draw):
    data = {name: draw(strategy) for name, strategy in TOP.items()}
    data["scenario"] = draw(st.sampled_from([1, 2, 3]))
    data["jobs"] = 1
    n = draw(st.integers(2, 5))
    data["arm"] = {
        "link_lengths": draw(st.lists(st.floats(0.05, 0.5), min_size=n, max_size=n)),
        "joint_min": draw(st.lists(st.floats(-math.pi, 0.0), min_size=n, max_size=n)),
        "joint_max": draw(st.lists(st.floats(0.0, math.pi), min_size=n, max_size=n)),
        "max_step": draw(st.floats(1e-3, 0.5)),
        "touch_radius": draw(st.floats(1e-3, 0.2)),
    }
    ac = {name: draw(strategy) for name, strategy in ACTOR_CRITIC.items()}
    ac["sigma_start"] = draw(st.floats(0.0, 2.0))
    ac["sigma_min"] = ac["sigma_start"] * draw(unit())
    data["actor_critic"] = ac

    # At most one field replaced, at the top level or in a section.
    paths = [(name,) for name in TOP] + [("arm", "max_step"), ("arm", "touch_radius")]
    paths += [("actor_critic", name) for name in ac]
    path = draw(st.none() | st.sampled_from(paths))
    must_reject = False
    if path is not None:
        must_reject = draw(st.booleans())
        value = draw(REJECTED if must_reject else WIDE)
        section = data if len(path) == 1 else data[path[0]]
        section[path[-1]] = value
    return data, must_reject


def csv_values(out_dir):
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
                for row in csv.DictReader(fh):
                    for key, text in row.items():
                        if key not in ("state_key", "goal"):
                            yield name, key, float(text)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config_dicts(), st.integers(1, 4))
def test_generated_config_is_rejected_or_runs_to_finite_outputs(case, epochs):
    data, must_reject = case
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert not must_reject, data
    spec = cfg.scenario
    spec = replace(spec, total_trials=spec.trials_per_epoch * epochs)
    with tempfile.TemporaryDirectory() as out_dir:
        run_experiment(replace(cfg, scenario=spec, out_dir=out_dir))
        for name, key, value in csv_values(out_dir):
            assert math.isfinite(value), (name, key, value, data)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config_dicts())
def test_accepted_config_round_trips_through_yaml(case):
    data, _ = case
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert config_from_dict(yaml.safe_load(yaml.safe_dump(config_to_dict(cfg)))) == cfg
