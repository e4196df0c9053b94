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

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .arm import ArmConfig
from .errors import ConfigError, NumericsError
from .inputs import cast_fields, check_ranges
from .selection import cumulative_probabilities, softmax_probabilities


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
    being pulled apart by a rewardless trial it executed correctly. The
    defaults live in ``ExperimentConfig`` (the ``idealized_*`` fields).
    """

    competence: float
    learning_rate: float
    disruption: float
    exploration_floor: float

    def attempt(self, achievable: bool, rng: np.random.Generator) -> bool:
        if not achievable:
            return False
        return bool(rng.random() < max(self.competence, self.exploration_floor))

    def learn(self, achievable: bool, achieved: bool, *, gate: bool) -> None:
        if not gate:
            return
        if achieved:
            self.competence += self.learning_rate * (1.0 - self.competence)
        elif not achievable:
            self.competence -= self.disruption * self.competence
        self.competence = min(1.0, max(0.0, self.competence))


@dataclass
class ExpertSelector:
    """Per-goal choice between the two arms' experts.

    Keeps one success EMA per arm, two in all (pessimistic zero start, so
    one early success already concentrates training on the arm that
    produced it) and samples an arm from the softmax of the EMAs.
    ``smoothing`` and ``temperature`` come from ``ExperimentConfig``
    (``expert_smoothing``, ``expert_temperature``).
    """

    smoothing: float
    temperature: float
    success_ema: list[float] = field(init=False, default_factory=lambda: [0.0, 0.0])
    # A copy of the EMA pair of the last select() and the bin edges of its
    # softmax, reused while the EMAs are unchanged; a cache, not learner state.
    _last: tuple = field(init=False, default=(None, None), repr=False, compare=False)

    def select(self, rng: np.random.Generator) -> int:
        """An arm drawn as ``choose_index(softmax_probabilities(ema), rng)`` draws it."""
        ema = self.success_ema
        last_ema, cdf = self._last
        if ema != last_ema:
            cdf = cumulative_probabilities(softmax_probabilities(ema, self.temperature))
            self._last = ema.copy(), cdf  # update() changes the list in place
        return bisect.bisect_right(cdf, rng.random())

    def greedy(self) -> int:
        """The arm evaluation should use (ties go to the lower index)."""
        return self.success_ema.index(max(self.success_ema))

    def update(self, expert: int, success: bool) -> None:
        ema = self.success_ema[expert]
        self.success_ema[expert] = ema + self.smoothing * ((1.0 if success else 0.0) - ema)


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

    # The fields' ranges, as ``inputs.check_ranges`` rows (a class attribute, not a field).
    _RANGES = (
        ("hidden_units", 1, math.inf, True, False),
        ("feature_scale", 0.0, math.inf, True, False),
        ("feature_offset", 0.0, math.inf, True, False),
        ("actor_lr", 0.0, math.inf, False, False),
        ("critic_lr", 0.0, math.inf, False, False),
        ("discount", 0.0, 1.0, True, True),
        ("sigma_start", 0.0, math.inf, True, False),
        ("sigma_min", 0.0, math.inf, True, False),
        ("noise_correlation", 0.0, 1.0, True, True),
        ("success_smoothing", 0.0, 1.0, False, True),
        ("td_clip", 0.0, math.inf, False, False),
        ("actor_delta_margin", 0.0, math.inf, True, False),
        ("imitate_window", 0, math.inf, True, False),
        ("success_replays", 0, math.inf, True, False),
    )

    def __post_init__(self) -> None:
        """Cast the fields; ConfigError on one out of range or on sigma_min above sigma_start."""
        cast_fields(self, "actor_critic.")
        check_ranges(self, self._RANGES, "actor_critic: ")
        if self.sigma_min > self.sigma_start:
            raise ConfigError(f"actor_critic: sigma_min {self.sigma_min} "
                              f"exceeds sigma_start {self.sigma_start}")


class ActorCriticExpert:
    """Continuous-state, continuous-action policy learner for one goal/arm.

    State is the four joint angles (normalized); the actor outputs four
    desired joint angles inside the joint limits; the critic estimates the
    discounted return of the trial's 0/1 touch-with-activation rewards.
    Both are linear heads over a shared fixed random tanh basis. Updates
    happen once per trial from the recorded trajectory: critic by one-step
    TD, actor by moving its mean toward the executed action on
    over-margin-TD steps and along the closing stretch of successful trials.

    The mat-vecs and every ``tanh`` are numpy's (``math.tanh`` differs from
    ``np.tanh`` in the last bit for many arguments). The mat-vecs are
    ``ndarray.dot``: the same BLAS call (``dgemv``/``ddot``) as ``@``,
    without the matmul ufunc's dispatch. The per-joint arithmetic of ``act``
    and of the actor step runs on Python floats: the same float64 operations
    in the same order, without numpy's per-call overhead. Heads that are
    still exactly zero cost no arithmetic where the result is known: a
    frozen zero actor acts at the mid posture without features (``act``),
    and a zero critic meets a failed trial without a TD sweep (``learn``).
    """

    def __init__(self, arm_cfg: ArmConfig, cfg: ActorCriticConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.n = arm_cfg.n_joints
        lo = np.array(arm_cfg.joint_min, dtype=float)
        hi = np.array(arm_cfg.joint_max, dtype=float)
        self.scale = np.maximum(np.abs(lo), np.abs(hi))
        # Per joint (mid, half, lo, hi) in Python floats, for act and the actor step.
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        self._joint_box = tuple(zip(mid.tolist(), half.tolist(), lo.tolist(), hi.tolist()))
        # A zero actor's tanh, and a frozen act's noise.
        self._zeros = (0.0,) * self.n
        h = cfg.hidden_units
        # Feature layer is drawn once and never trained.
        self.w_feat = rng.normal(0.0, cfg.feature_scale, size=(h, self.n))
        self.b_feat = rng.uniform(-cfg.feature_offset, cfg.feature_offset, h)
        self._check_finite(("w_feat",))
        # Heads start at zero: the critic predicts exactly 0 until a real
        # reward arrives, so rewardless trials produce zero TD error and
        # cannot drag the actor; the actor's mean starts at the mid posture,
        # where exploration coverage of the workspace is widest.
        self.w_actor = np.zeros((self.n, h))
        self.b_actor = np.zeros(self.n)
        self.w_critic = np.zeros(h)
        self.b_critic = np.zeros(1)
        self.success_ema = 0.0
        self.td_error_ema = 0.0

    # -- forward passes ----------------------------------------------------

    def features(self, joints) -> np.ndarray:
        """The fixed tanh basis at a joint posture."""
        z = self.w_feat.dot(np.divide(joints, self.scale))
        z += self.b_feat
        return np.tanh(z, out=z)

    @property
    def sigma(self) -> float:
        span = self.cfg.sigma_start - self.cfg.sigma_min
        return self.cfg.sigma_min + span * (1.0 - self.success_ema)

    def actor_is_zero(self) -> bool:
        """Whether both actor heads are exactly zero, read off the arrays."""
        return not (self.w_actor.any() or self.b_actor.any())

    def act(self, feat: np.ndarray | None, noise=None) -> tuple[float, ...]:
        """Desired joint angles for this timestep, from the ``features`` of
        the current posture: the mean plus ``noise``, one float per joint,
        which a training rollout draws. It changes nothing.

        ``feat`` may be None when ``actor_is_zero()``: the mean is then the
        mid posture, since ``tanh(0 . f + 0)`` is 0.0 for any features, and
        no features need computing. Without ``noise`` the expert is frozen
        and adds 0.0, which gives the mean to the bit: ``mid + half * t`` is
        never -0.0, as ``mid`` is not (the limits differ). Each angle is
        clamped to its joint's limits, ``max`` then ``min``, as comparisons.
        """
        if feat is None:
            t = self._zeros
        else:
            t = np.tanh(self.w_actor.dot(feat) + self.b_actor).tolist()
        action = []
        for tj, nj, (mid, half, lo, hi) in zip(t, self._zeros if noise is None else noise, self._joint_box):
            angle = mid + half * tj + nj
            if lo > angle:
                angle = lo
            if hi < angle:
                angle = hi
            action.append(angle)
        return tuple(action)

    # -- learning ------------------------------------------------------------

    def _actor_step(self, feat: np.ndarray, action) -> None:
        # The per-joint gradient in Python floats, as numpy would compute it
        # elementwise: ((a - (mid + half * t)) * (1 - t * t)) / half. The
        # weight update is lr * (grad_z[:, None] * feat) built in place, as
        # (grad_z[j] * feat[k]) * lr: the same products, which commute.
        t = np.tanh(self.w_actor.dot(feat) + self.b_actor).tolist()
        grad_z = np.array([(a - (mid + half * tj)) * (1.0 - tj * tj) / half
                           for a, tj, (mid, half, _, _) in zip(action, t, self._joint_box)])
        lr = self.cfg.actor_lr
        step = np.multiply.outer(grad_z, feat)
        step *= lr
        self.w_actor += step
        self.b_actor += lr * grad_z

    def learn(self, trajectory, success: bool, *, gate: bool) -> None:
        """One-step TD over the trial's (features, action) steps.

        The trajectory is one unbroken rollout, as ``ArmBackend.rollout``
        records it: each step carries the ``features`` of the posture it
        acted from, and the next step's features are those of the posture
        its action led to. So the bootstrap value of step i reads the
        features of step i + 1, and ``learn`` computes no features itself.
        The feature layer never trains, so this is the same arithmetic as
        recomputing them from the joints on every pass. The rollout ends at
        its last step, and the trial's only reward is 1.0 there when it
        achieved its goal (``success``): the last step's TD target is that
        reward, every other step's is ``0.0 + discount * v'``.

        With ``gate`` false the expert is returned untouched (no parameter or
        statistic changes).

        A failed trial met by a critic whose heads are exactly zero (as
        before an expert's first success) has every TD error exactly 0.0:
        value and target are both zero, and a zero error moves no head and
        passes no actor margin. The heads start at +0.0 and only ever have
        products added, which never turns +0.0 into -0.0, so skipping the
        sweep leaves them bit-for-bit as it would; only the TD-error EMA
        decays, once per step, by the sweep's formula. The condition is read
        off the heads on every call.
        """
        if not gate:
            return
        cfg = self.cfg
        # The sweep keeps the critic bias and the TD-error EMA in Python
        # floats (the same float64 additions) and writes them back after it.
        w_critic, b_critic, td_error_ema = self.w_critic, float(self.b_critic[0]), self.td_error_ema
        if b_critic == 0.0 and not success and not w_critic.any():
            for _ in trajectory:
                td_error_ema += 0.01 * (0.0 - td_error_ema)
            passes = 0
        else:
            passes = 1 + (cfg.success_replays if success else 0)
        discount, critic_lr, margin = cfg.discount, cfg.critic_lr, cfg.actor_delta_margin
        td_clip, low_clip = cfg.td_clip, -cfg.td_clip
        last = len(trajectory) - 1
        imitate_from = len(trajectory) - cfg.imitate_window if success else len(trajectory)
        final_reward = 1.0 if success else 0.0
        for _ in range(passes):
            for i, (feat, action) in enumerate(trajectory):
                v = float(w_critic.dot(feat)) + b_critic
                if i == last:
                    target = final_reward
                else:
                    target = 0.0 + discount * (float(w_critic.dot(trajectory[i + 1][0])) + b_critic)
                # Clipped to [-td_clip, td_clip]: max, then min, as comparisons.
                delta = target - v
                if low_clip > delta:
                    delta = low_clip
                if td_clip < delta:
                    delta = td_clip

                w_critic += critic_lr * delta * feat
                b_critic += critic_lr * delta

                if delta > margin or i >= imitate_from:
                    self._actor_step(feat, action)

                td_error_ema += 0.01 * (abs(delta) - td_error_ema)
        self.b_critic[0] = b_critic
        self.td_error_ema = td_error_ema
        self.success_ema += cfg.success_smoothing * (final_reward - self.success_ema)
        self._check_finite()

    def _check_finite(self, names=("w_actor", "b_actor", "w_critic", "b_critic")) -> None:
        """NumericsError if an array ``names`` lists is not finite: by default
        the heads ``learn`` writes; ``__init__`` checks the drawn weights of
        the feature layer (a huge ``feature_scale`` overflows them) once."""
        for name in names:
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericsError(f"actor-critic parameter {name} went non-finite")
