"""In-memory span tracer that wraps lightup's public functions from outside.

Nothing under ``src/`` knows about it: ``install`` replaces each traced
function or method with a timing wrapper, everywhere it is looked up. Many
functions are imported by name (``lightup.experiment`` binds ``step_toward``,
``lightup.skills`` binds ``softmax_probabilities``, ``lightup.cli`` binds
``unreachable_goals``, ...), so a module-level function is replaced in every
loaded ``lightup`` module that holds it, not only where it is defined.

Spans are aggregated as they close instead of being stored one by one: a
run makes millions of them. A span's self time is its duration minus the
durations of its direct child spans, which, as children of one span run one
after another, is the part of its interval that no child covers.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

# (span name, "module:qualified.name"). A span name is "<layer>.<function>",
# the layer being the lightup module the function lives in.
TARGETS = (
    ("world.is_achievable", "lightup.world:ScenarioSpec.is_achievable"),
    ("world.apply_touch", "lightup.world:ScenarioSpec.apply_touch"),
    ("world.state_key", "lightup.world:state_key"),
    ("world.key_string", "lightup.world:WorldState.key_string"),
    ("world.reset", "lightup.world:ScenarioSpec.reset"),
    ("selection.select", "lightup.selection:SelectionStrategy.select"),
    ("selection.softmax", "lightup.selection:softmax_probabilities"),
    ("selection.update", "lightup.selection:SelectionStrategy.update"),
    ("motivation.update_and_reward", "lightup.motivation:AchievementPredictor.update_and_reward"),
    ("motivation.learning_gate", "lightup.motivation:AchievementPredictor.learning_gate"),
    ("skills.expert_select", "lightup.skills:ExpertSelector.select"),
    ("skills.idealized_attempt", "lightup.skills:IdealizedExpert.attempt"),
    ("skills.idealized_learn", "lightup.skills:IdealizedExpert.learn"),
    ("skills.ac_act", "lightup.skills:ActorCriticExpert.act"),
    ("skills.ac_learn", "lightup.skills:ActorCriticExpert.learn"),
    ("skills.ac_features", "lightup.skills:ActorCriticExpert.features"),
    ("arm.step_toward", "lightup.arm:step_toward"),
    ("arm.forward_kinematics", "lightup.arm:forward_kinematics"),
    ("arm.check_touch", "lightup.arm:check_touch"),
    ("arm.home_joints", "lightup.arm:home_joints"),
    ("arm.unreachable_goals", "lightup.arm:unreachable_goals"),
    ("experiment.train", "lightup.experiment:Simulation.run_trial"),
    ("experiment.eval", "lightup.experiment:Simulation.measure_competence"),
    ("experiment.replication", "lightup.experiment:Simulation.run"),
    ("experiment.aggregate", "lightup.experiment:run_experiment"),
    ("experiment.output", "lightup.experiment:write_outputs"),
    ("svgplot.render", "lightup.svgplot:render_panels"),
    ("cli.main", "lightup.cli:main"),
)


def _note_gate_blocked(tracer, result, args, kwargs):
    if result is False:
        tracer.counts["motivation.gate_blocked"] += 1


def _note_ac_gated_off(tracer, result, args, kwargs):
    if not (kwargs["gate"] if "gate" in kwargs else args[2]):
        tracer.counts["skills.ac_learn.gated_off"] += 1


def _note_selection_keys(tracer, result, args, kwargs):
    rows = args[0].strategy.dump_rows()
    tracer.counts["selection.keys"] += len({key_text for key_text, _, _ in rows})


def _note_output_bytes(tracer, result, args, kwargs):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    with os.scandir(out_dir) as entries:
        tracer.counts["experiment.output_bytes"] += sum(e.stat().st_size for e in entries if e.is_file())


# Counts that need a traced call's arguments or result, keyed by span name.
OBSERVERS = {
    "motivation.learning_gate": _note_gate_blocked,
    "skills.ac_learn": _note_ac_gated_off,
    "experiment.replication": _note_selection_keys,
    "experiment.output": _note_output_bytes,
}


class Tracer:
    """Aggregated spans: calls per (name, parent name), self and total time per name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        # Open spans, innermost last; each is [name, time covered by children].
        self._stack = [[None, 0.0]]

    def wrap(self, name, fn, observe=None):
        stack, clock = self._stack, self.clock
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name, parent[0]] += 1
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                parent[1] += duration
            if observe is not None:
                observe(self, result, args, kwargs)
            return result

        return traced

    def calls_of(self, name) -> int:
        """Calls of a span, whatever its parent."""
        return sum(n for (span, _), n in self.calls.items() if span == name)

    def snapshot(self) -> dict:
        return {
            "calls": [[name, parent, n] for (name, parent), n in sorted(self.calls.items(), key=str)],
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
        }


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None, None, None
    return owner, parts[-1], getattr(owner, parts[-1])


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; returns the span names that were not found.

    Import ``lightup.cli`` first, so every lightup module that could hold a
    function imported by name is already loaded.
    """
    missing = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "lightup" or name.startswith("lightup."))]
    for name, target in TARGETS:
        owner, attr, original = _resolve(target)
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original, OBSERVERS.get(name))
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing
