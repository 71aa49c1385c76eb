"""Descent-rate schedules for SGD workloads (paper §6.2.2).

A schedule turns a gradient into a weight delta and may adapt itself from
objective feedback.  The paper's main loop uses the *bold driver* heuristic
because schedules that decay monotonically (Adagrad, Adadelta) cannot track
an evolving model — both are included so that the ablation benches can show
exactly that failure mode.
"""

from __future__ import annotations

import numpy as np


class DescentSchedule:
    """Interface: observe objective values, then step along a gradient.

    Committed snapshots copy a schedule with ``copy.copy``, so the copy
    shares the array objects it holds.  A schedule must therefore rebind
    its state arrays (``self._acc = self._acc + g * g``) and never update
    them in place (``self._acc += g * g``)."""

    def observe(self, objective: float) -> None:
        """Feed one objective estimate (called before :meth:`step`)."""

    def observe_step(self, before: float, after: float) -> None:
        """Feed the effect of the last step measured on the *same* batch:
        objective at the old weights vs at the new weights.  This is the
        signal the bold driver reacts to — comparing across different
        batches of a drifting stream would conflate drift with overshoot
        and collapse the rate."""

    def step(self, gradient: np.ndarray) -> np.ndarray:
        """Return the weight delta for this gradient."""
        raise NotImplementedError

    @property
    def rate(self) -> float:
        """Current scalar rate, for instrumentation."""
        raise NotImplementedError


class StaticRate(DescentSchedule):
    """Constant descent rate."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self._rate = rate

    def observe(self, objective: float) -> None:
        pass

    def step(self, gradient: np.ndarray) -> np.ndarray:
        return -self._rate * gradient

    @property
    def rate(self) -> float:
        return self._rate


class BoldDriver(DescentSchedule):
    """The paper's dynamic heuristic: shrink the rate 10% when the
    objective grows, grow it 10% when the objective decreases too slowly
    (< 1% relative improvement)."""

    def __init__(self, initial_rate: float, increase: float = 1.1,
                 decrease: float = 0.9, slow_threshold: float = 0.01,
                 min_rate: float = 1e-8, max_rate: float = 1e3) -> None:
        if initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        self._rate = initial_rate
        self.increase = increase
        self.decrease = decrease
        self.slow_threshold = slow_threshold
        self.min_rate = min_rate
        self.max_rate = max_rate
        self._previous: float | None = None

    def observe(self, objective: float) -> None:
        if self._previous is not None:
            self.observe_step(self._previous, objective)
        self._previous = objective

    def observe_step(self, before: float, after: float) -> None:
        if before <= 0:
            return
        if after > before:
            # The step overshot: back off.
            self._rate = max(self._rate * self.decrease, self.min_rate)
        elif (before - after) / before < self.slow_threshold:
            # The step barely helped: lengthen the stride.
            self._rate = min(self._rate * self.increase, self.max_rate)

    def step(self, gradient: np.ndarray) -> np.ndarray:
        return -self._rate * gradient

    @property
    def rate(self) -> float:
        return self._rate


class Adagrad(DescentSchedule):
    """Per-coordinate decaying rates; included as the contrast case — its
    monotone decay cannot keep up with evolving inputs."""

    def __init__(self, rate: float, epsilon: float = 1e-8) -> None:
        self._rate = rate
        self.epsilon = epsilon
        self._accumulated: np.ndarray | None = None

    def observe(self, objective: float) -> None:
        pass

    def step(self, gradient: np.ndarray) -> np.ndarray:
        if self._accumulated is None:
            self._accumulated = np.zeros_like(gradient)
        self._accumulated = self._accumulated + gradient * gradient
        return -self._rate * gradient / np.sqrt(
            self._accumulated + self.epsilon)

    @property
    def rate(self) -> float:
        return self._rate


class Adadelta(DescentSchedule):
    """Zeiler's rate-free schedule; also decays effective steps over time."""

    def __init__(self, decay: float = 0.95, epsilon: float = 1e-6) -> None:
        self.decay = decay
        self.epsilon = epsilon
        self._grad_sq: np.ndarray | None = None
        self._delta_sq: np.ndarray | None = None

    def observe(self, objective: float) -> None:
        pass

    def step(self, gradient: np.ndarray) -> np.ndarray:
        if self._grad_sq is None:
            self._grad_sq = np.zeros_like(gradient)
            self._delta_sq = np.zeros_like(gradient)
        self._grad_sq = (self.decay * self._grad_sq
                         + (1 - self.decay) * gradient * gradient)
        delta = -(np.sqrt(self._delta_sq + self.epsilon)
                  / np.sqrt(self._grad_sq + self.epsilon)) * gradient
        self._delta_sq = (self.decay * self._delta_sq
                          + (1 - self.decay) * delta * delta)
        return delta

    @property
    def rate(self) -> float:
        if self._grad_sq is None:
            return 0.0
        return float(np.mean(np.sqrt(self._delta_sq + self.epsilon)
                             / np.sqrt(self._grad_sq + self.epsilon)))
