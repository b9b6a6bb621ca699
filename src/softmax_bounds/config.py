"""Shared configuration types and error taxonomy.

Errors are split by who can fix them: ConfigError (bad settings, exit code
2), DatasetFormatError (bad input file, exit code 3), NumericalError and
ConvergenceError (the run itself went bad, exit code 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent with the data."""


class NumericalError(RuntimeError):
    """Non-finite values appeared where finite ones are required."""


@dataclass(frozen=True)
class OptimizerSettings:
    """Settings for deterministic full-batch fits.

    grad_tol is on the infinity norm of the gradient at the solution;
    max_iter caps iterations of the outer loop (ascent steps or L-BFGS
    iterations depending on the fitter).
    """

    grad_tol: float = 1e-8
    max_iter: int = 50_000
    initial_step: float = 1.0

    def validate(self) -> None:
        if not self.grad_tol > 0:
            raise ConfigError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.initial_step > 0:
            raise ConfigError(f"initial_step must be positive, got {self.initial_step}")


@dataclass(frozen=True)
class TrainConfig:
    """Settings for the doubly stochastic trainers.

    Learning rate at epoch e is ``lr0 * lr_decay ** e``, constant within an
    epoch. ``num_sampled`` is the number S of rival classes drawn per
    instance; sampled-term sums are rescaled by (K - 1) / S so the
    stochastic gradient stays unbiased. ``lam`` is the L2 penalty on
    weights (never biases). ``log_every`` is in optimizer steps (one step
    per minibatch).
    """

    batch_size: int = 1
    num_sampled: int = 1
    lr0: float = 0.01
    lr_decay: float = 0.9
    epochs: int = 5
    lam: float = 0.0
    seed: int = 0
    log_every: int = 100

    def validate(self, num_classes: int | None = None) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.num_sampled < 1:
            raise ConfigError(f"num_sampled must be >= 1, got {self.num_sampled}")
        if num_classes is not None and self.num_sampled > num_classes - 1:
            raise ConfigError(
                f"num_sampled={self.num_sampled} exceeds K-1={num_classes - 1} rival classes"
            )
        if not 0 < self.lr0 < math.inf:
            raise ConfigError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not self.lam >= 0:
            raise ConfigError(f"lam must be >= 0, got {self.lam}")
        if self.lr0 * self.lam >= 1:
            raise ConfigError(
                f"lr0 * lam = {self.lr0 * self.lam:g} >= 1 would flip weight signs; "
                "lower the learning rate or the penalty"
            )
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")

    def to_dict(self) -> dict:
        return asdict(self)
