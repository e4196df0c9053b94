"""Checks of the tracer's self-time arithmetic and of where it patches lightup.

Named so that a plain ``python -m pytest`` from the repository root does not
collect it; run it explicitly:

    python3 -m pytest -q -p no:cacheprovider benches/check_tracer.py
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import EXERCISED_BY, coverage_problems  # noqa: E402
from tracer import TARGETS, Tracer, install  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def nested_spans(clock, tracer):
    """measure -> act (x2) -> features, each spending known time outside its children."""

    def features():
        clock.now += 1.0

    features = tracer.wrap("skills.ac_features", features)

    def act():
        clock.now += 2.0
        features()
        clock.now += 0.5

    act = tracer.wrap("skills.ac_act", act)

    def measure():
        clock.now += 3.0
        act()
        act()
        clock.now += 0.25

    return tracer.wrap("experiment.eval", measure)


def test_self_time_subtracts_only_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    nested_spans(clock, tracer)()
    assert tracer.self_s == {"skills.ac_features": 2.0, "skills.ac_act": 5.0, "experiment.eval": 3.25}
    assert tracer.total_s == {"skills.ac_features": 2.0, "skills.ac_act": 7.0, "experiment.eval": 10.25}
    assert sum(tracer.self_s.values()) == clock.now
    assert tracer.calls == {("skills.ac_features", "skills.ac_act"): 2,
                            ("skills.ac_act", "experiment.eval"): 2,
                            ("experiment.eval", None): 1}
    assert tracer.calls_of("skills.ac_act") == 2


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.5
        raise ValueError("boom")

    boom = tracer.wrap("arm.check_touch", boom)

    def outer():
        clock.now += 1.0
        with pytest.raises(ValueError):
            boom()

    tracer.wrap("experiment.train", outer)()
    assert tracer.self_s == {"arm.check_touch": 1.5, "experiment.train": 1.0}
    assert tracer.calls == {("arm.check_touch", "experiment.train"): 1, ("experiment.train", None): 1}


def test_every_traced_span_has_its_workloads():
    assert list(EXERCISED_BY) == [name for name, _ in TARGETS]


def test_coverage_fails_on_an_idle_layer_or_a_missing_target():
    # Layers mapped only to another workload, such as world.state_key, may stay idle.
    called = {name: 1 for name, where in EXERCISED_BY.items() if "ac_reach" in where}
    assert coverage_problems("ac_reach", called, []) == []

    del called["skills.ac_features"]
    assert coverage_problems("ac_reach", called, []) == ["no calls on ac_reach to skills.ac_features"]
    assert coverage_problems("ac_reach", {**called, "skills.ac_features": 1}, ["skills.ac_features"]) == [
        "not found, so not traced: skills.ac_features"]


def test_install_patches_names_imported_by_other_modules():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import lightup.cli
    import lightup.experiment
    import lightup.skills

    assert install(Tracer()) == []
    for module, name in ((lightup.experiment, "step_toward"), (lightup.experiment, "check_touch"),
                         (lightup.experiment, "forward_kinematics"), (lightup.experiment, "home_joints"),
                         (lightup.skills, "softmax_probabilities"), (lightup.cli, "unreachable_goals"),
                         (lightup.selection, "state_key"), (lightup.motivation, "state_key")):
        assert hasattr(getattr(module, name), "__wrapped__"), f"{module.__name__}.{name}"
