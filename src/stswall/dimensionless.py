"""Dimensionless groups of the coupled system.

The verification and custom cases take the groups as configured
constants; physical runs use unit Fourier and cross-coupling groups with
the latent heat as the heat-equation cross factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .model import BiotSet


@dataclass(frozen=True)
class DimensionlessGroups:
    """Constants of the dimensionless coupled system plus per-side Biot sets."""

    fo_m: float
    fo_t: float
    gamma: float = 0.0
    delta: float = 0.0
    biot_left: BiotSet = field(default_factory=BiotSet)
    biot_right: BiotSet = field(default_factory=BiotSet)
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("fo_m", "fo_t", "gamma", "delta", "alpha"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0:
                raise ConfigError(f"group {name} must be finite and >= 0, got {val}")

    def as_dict(self) -> dict:
        return {
            "fo_m": self.fo_m, "fo_t": self.fo_t,
            "gamma": self.gamma, "delta": self.delta, "alpha": self.alpha,
            "biot_left": self.biot_left.as_dict(),
            "biot_right": self.biot_right.as_dict(),
        }

