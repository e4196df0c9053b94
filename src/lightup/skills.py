"""Low-level skill learning: per-goal experts and the per-goal expert selector.

Each goal owns two experts (one per arm); the expert selector softmaxes over
per-arm success EMAs to decide which one attempts and trains on a trial.

Two expert backends sit behind the same trial-level contract:

* ``IdealizedExpert`` - a scalar competence with success-driven growth.
  Fast enough to run thousands of goal-selection trials per second; used by
  all selection-level experiments.
* ``ActorCriticExpert`` - a continuous actor-critic (linear heads over a
  shared fixed random tanh basis) trained by one-step temporal-difference
  updates on the trial's pseudo-rewards, emitting desired joint angles for
  position control every timestep.

Whatever the backend, a gated-off trial leaves the expert bit-for-bit
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arm import ArmConfig
from .errors import NumericsError
from .selection import choose_index, softmax_probabilities

IDEALIZED_INIT_COMPETENCE = 0.02
IDEALIZED_LEARNING_RATE = 0.05
IDEALIZED_DISRUPTION = 0.03
IDEALIZED_EXPLORATION_FLOOR = 0.22


@dataclass
class IdealizedExpert:
    """Scalar stand-in for a trained policy.

    ``competence`` is the skill an evaluation probe would measure (a frozen
    policy, no exploration). A *training* attempt explores, so it succeeds
    with probability ``max(competence, exploration_floor)`` whenever the
    goal is achievable at all: an untrained policy still stumbles onto the
    sphere at the floor rate, the way a noisy arm sweeping for hundreds of
    steps does. On a gated-on trial, success moves competence toward 1 by
    ``learning_rate``; an achievable miss leaves it alone (the policy was
    simply not good enough yet); a miss on an *unachievable* goal erodes it
    multiplicatively by ``disruption`` - the analogue of a trained policy
    being pulled apart by a rewardless trial it executed correctly.
    ``noise_scale`` optionally jitters the attempt probability.
    """

    competence: float = IDEALIZED_INIT_COMPETENCE
    learning_rate: float = IDEALIZED_LEARNING_RATE
    disruption: float = IDEALIZED_DISRUPTION
    exploration_floor: float = IDEALIZED_EXPLORATION_FLOOR
    noise_scale: float = 0.0

    def attempt(self, achievable: bool, rng: np.random.Generator) -> bool:
        if not achievable:
            return False
        p = max(self.competence, self.exploration_floor)
        if self.noise_scale > 0.0:
            p = float(np.clip(p + rng.normal(0.0, self.noise_scale), 0.0, 1.0))
        return bool(rng.random() < p)

    def learn(self, achieved: bool, achievable: bool, gate: bool) -> None:
        if not gate:
            return
        if achieved:
            self.competence += self.learning_rate * (1.0 - self.competence)
        elif not achievable:
            self.competence -= self.disruption * self.competence
        self.competence = min(1.0, max(0.0, self.competence))

    def snapshot(self) -> dict:
        return {"competence": self.competence}


@dataclass
class ExpertSelector:
    """Per-goal choice between the two arms' experts.

    Keeps one success EMA per arm (pessimistic zero start, so one early
    success already concentrates training on the arm that produced it) and
    samples an arm from the softmax of the EMAs.
    """

    n_experts: int = 2
    smoothing: float = 0.1
    temperature: float = 0.1
    success_ema: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.success_ema = np.zeros(self.n_experts)

    def select(self, rng: np.random.Generator) -> int:
        probs = softmax_probabilities(self.success_ema.tolist(), self.temperature)
        return choose_index(probs, rng)

    def greedy(self) -> int:
        """The arm evaluation should use (ties go to the lower index)."""
        return int(np.argmax(self.success_ema))

    def update(self, expert: int, success: bool) -> None:
        outcome = 1.0 if success else 0.0
        self.success_ema[expert] += self.smoothing * (outcome - self.success_ema[expert])


# -- actor-critic backend --------------------------------------------------


@dataclass(frozen=True)
class ActorCriticConfig:
    # Fixed random tanh basis shared by actor and critic; only the linear
    # heads learn. Backpropagating a small shared hidden layer makes the
    # critic's generalization noise steer the actor (the policy random-walks
    # and exploration coverage collapses); a fixed basis keeps TD stable.
    hidden_units: int = 96
    feature_scale: float = 2.0
    feature_offset: float = 1.5
    actor_lr: float = 0.05
    critic_lr: float = 0.02
    discount: float = 0.99
    sigma_start: float = 0.8
    sigma_min: float = 0.08
    # Exploration noise is low-pass filtered so the target posture wanders
    # smoothly instead of jittering; scale anneals with the success EMA.
    noise_correlation: float = 0.98
    success_smoothing: float = 0.05
    td_clip: float = 5.0
    # The actor imitates an explored action when the TD error clears this
    # margin; sub-margin fluctuations are critic noise, and following them
    # drags the policy around.
    actor_delta_margin: float = 0.02
    # On trials that ended in a touch, additionally imitate the approach
    # (the final steps), and replay the trajectory a few extra TD sweeps to
    # push value backward along the successful path.
    imitate_window: int = 120
    success_replays: int = 4


class ActorCriticExpert:
    """Continuous-state, continuous-action policy learner for one goal/arm.

    State is the four joint angles (normalized); the actor outputs four
    desired joint angles inside the joint limits; the critic estimates the
    discounted return of the trial's 0/1 touch-with-activation rewards.
    Both are linear heads over a shared fixed random tanh basis. Updates
    happen once per trial from the recorded trajectory: critic by one-step
    TD, actor by moving its mean toward the executed action on
    over-margin-TD steps and along the closing stretch of successful trials.
    """

    def __init__(self, arm_cfg: ArmConfig, cfg: ActorCriticConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.n = arm_cfg.n_joints
        self.lo = np.array(arm_cfg.joint_min, dtype=float)
        self.hi = np.array(arm_cfg.joint_max, dtype=float)
        self.mid = 0.5 * (self.lo + self.hi)
        self.half = 0.5 * (self.hi - self.lo)
        self.scale = np.maximum(np.abs(self.lo), np.abs(self.hi))
        h = cfg.hidden_units
        # Feature layer is drawn once and never trained.
        self.w_feat = rng.normal(0.0, cfg.feature_scale, size=(h, self.n))
        self.b_feat = rng.uniform(-cfg.feature_offset, cfg.feature_offset, h)
        # Heads start at zero: the critic predicts exactly 0 until a real
        # reward arrives, so rewardless trials produce zero TD error and
        # cannot drag the actor; the actor's mean starts at the mid posture,
        # where exploration coverage of the workspace is widest.
        self.w_actor = np.zeros((self.n, h))
        self.b_actor = np.zeros(self.n)
        self.w_critic = np.zeros(h)
        self.b_critic = np.zeros(1)
        self._noise = np.zeros(self.n)
        self.success_ema = 0.0
        self.td_error_ema = 0.0
        self.trials_trained = 0

    # -- forward passes ----------------------------------------------------

    def features(self, joints: np.ndarray) -> np.ndarray:
        s = np.asarray(joints, dtype=float) / self.scale
        return np.tanh(self.w_feat @ s + self.b_feat)

    def policy_mean(self, joints: np.ndarray) -> np.ndarray:
        return self._mean_from_features(self.features(joints))

    def _mean_from_features(self, feat: np.ndarray) -> np.ndarray:
        return self.mid + self.half * np.tanh(self.w_actor @ feat + self.b_actor)

    @property
    def sigma(self) -> float:
        span = self.cfg.sigma_start - self.cfg.sigma_min
        return self.cfg.sigma_min + span * (1.0 - self.success_ema)

    def begin_trial(self, rng: np.random.Generator) -> None:
        """Draw a fresh exploration-noise state for the coming trial."""
        self._noise = rng.normal(0.0, self.sigma, size=self.n)

    def act(self, joints: np.ndarray, rng: np.random.Generator | None = None, explore: bool = True) -> np.ndarray:
        """Desired joint angles for this timestep (mean plus filtered noise)."""
        mean = self.policy_mean(joints)
        if not explore or rng is None:
            return np.minimum(np.maximum(mean, self.lo), self.hi)
        c = self.cfg.noise_correlation
        self._noise = c * self._noise + math.sqrt(1.0 - c * c) * rng.normal(0.0, self.sigma, size=self.n)
        return np.minimum(np.maximum(mean + self._noise, self.lo), self.hi)

    # -- learning ------------------------------------------------------------

    def _actor_step(self, feat: np.ndarray, action: np.ndarray) -> None:
        z = self.w_actor @ feat + self.b_actor
        t = np.tanh(z)
        grad_z = (action - (self.mid + self.half * t)) * (1.0 - t * t) / self.half
        self.w_actor += self.cfg.actor_lr * np.outer(grad_z, feat)
        self.b_actor += self.cfg.actor_lr * grad_z

    def learn(self, trajectory, gate: bool) -> None:
        """One-step TD over the trial's (state, action, reward, next, done) steps.

        The trajectory is one unbroken rollout, as ``Simulation._rollout``
        records it: each step's ``next`` is the following step's ``state``,
        and only the last step is ``done``. So the features of every state,
        the next states included, are computed once per call, and the
        bootstrap value of step i reads the features of step i + 1. The
        feature layer never trains, so this is the same arithmetic as
        recomputing them on every pass.

        With ``gate`` false the expert is returned untouched (no parameter,
        statistic, or counter changes).
        """
        if not gate:
            return
        cfg = self.cfg
        success = any(reward > 0.0 for _, _, reward, _, _ in trajectory)
        passes = 1 + (cfg.success_replays if success else 0)
        feats = [self.features(joints) for joints, *_ in trajectory]
        # The sweep keeps the critic bias and the TD-error EMA in Python
        # floats (the same float64 additions) and writes them back after it.
        w_critic, b_critic, td_error_ema = self.w_critic, float(self.b_critic[0]), self.td_error_ema
        imitate_from = len(trajectory) - cfg.imitate_window if success else len(trajectory)
        for _ in range(passes):
            for i, (_, action, reward, _, done) in enumerate(trajectory):
                feat = feats[i]
                v = float(w_critic @ feat) + b_critic
                if done:
                    target = reward
                else:
                    target = reward + cfg.discount * (float(w_critic @ feats[i + 1]) + b_critic)
                delta = min(max(target - v, -cfg.td_clip), cfg.td_clip)

                w_critic += cfg.critic_lr * delta * feat
                b_critic += cfg.critic_lr * delta

                if delta > cfg.actor_delta_margin or i >= imitate_from:
                    self._actor_step(feat, action)

                td_error_ema += 0.01 * (abs(delta) - td_error_ema)
        self.b_critic[0] = b_critic
        self.td_error_ema = td_error_ema
        self.success_ema += cfg.success_smoothing * ((1.0 if success else 0.0) - self.success_ema)
        self.trials_trained += 1
        self._check_finite()

    def _check_finite(self) -> None:
        for name, p in self.parameters().items():
            if not np.all(np.isfinite(p)):
                raise NumericsError(f"actor-critic parameter {name} went non-finite")

    # -- state inspection ----------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            "w_feat": self.w_feat, "b_feat": self.b_feat,
            "w_actor": self.w_actor, "b_actor": self.b_actor,
            "w_critic": self.w_critic, "b_critic": self.b_critic,
        }

    def snapshot(self) -> dict:
        data = {name: p.copy() for name, p in self.parameters().items()}
        data["success_ema"] = self.success_ema
        data["td_error_ema"] = self.td_error_ema
        data["trials_trained"] = self.trials_trained
        return data
