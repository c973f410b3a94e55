"""Noise distributions for the linear measurement model.

Two symmetric, unit-scale families are supported:

- ``standard_gaussian``: N(0, 1).
- ``scale_mixture``: sqrt(tau) * N(0, 1) with tau ~ d / chi^2_d, i.e. an
  inverse-Gamma scale mixture.  Marginally this is a Student-t with d
  degrees of freedom, so it models impulsive (heavy-tailed) noise.  The
  second moment is d / (d - 2), which requires d > 2; note it is *not* 1,
  the mixture is used unstandardized.

All operations are pure; ``NoiseModel`` values are immutable and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


GAUSSIAN = "standard_gaussian"
SCALE_MIXTURE = "scale_mixture"


class InvalidNoiseModel(ValueError):
    """Raised for noise parameters outside the admissible family."""


@dataclass(frozen=True)
class NoiseModel:
    """A symmetric noise distribution with finite second moment.

    kind: "standard_gaussian" or "scale_mixture".
    dof:  degrees of freedom d for the scale mixture; must exceed 2 so the
          variance d/(d-2) is finite.  None for the Gaussian, which
          takes no dof.
    """

    kind: str
    dof: float | None = None

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, SCALE_MIXTURE):
            raise InvalidNoiseModel(f"unknown noise kind {self.kind!r}")
        if self.kind == SCALE_MIXTURE:
            if self.dof is None or not np.isfinite(self.dof) or self.dof <= 2:
                raise InvalidNoiseModel(
                    "scale_mixture requires dof > 2 (finite second moment), "
                    f"got {self.dof!r}"
                )
        elif self.dof is not None:
            raise InvalidNoiseModel(f"standard_gaussian takes no dof, got {self.dof!r}")

    @property
    def is_gaussian(self) -> bool:
        return self.kind == GAUSSIAN


def standard_gaussian() -> NoiseModel:
    """Unit-variance Gaussian noise."""
    return NoiseModel(GAUSSIAN)


def scale_mixture(dof: float) -> NoiseModel:
    """Inverse-Gamma scale mixture (Student-t) noise with ``dof`` > 2."""
    return NoiseModel(SCALE_MIXTURE, dof=float(dof))


def sample_noise_rng(model: NoiseModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` samples using an existing generator.

    Draw order is fixed (mixing variables first, then normals) so streams
    are reproducible bit-for-bit for a given generator state.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if model.kind == GAUSSIAN:
        return rng.standard_normal(count)
    # tau ~ d / chi^2_d, then sqrt(tau) * standard normal
    tau = model.dof / rng.chisquare(model.dof, size=count)
    return np.sqrt(tau) * rng.standard_normal(count)


def noise_second_moment(model: NoiseModel) -> float:
    """E N^2: 1 for the Gaussian, d/(d-2) for the scale mixture."""
    if model.kind == GAUSSIAN:
        return 1.0
    return model.dof / (model.dof - 2.0)
