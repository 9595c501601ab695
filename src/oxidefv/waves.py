"""Travelling-wave analysis: parameter-regime classification and the
closed-form wave profile, speed and width."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Mesh, ModelParams, _check_fields, _check_values, _finite, _positive_finite

# Relative tolerance for the exact-equality regime and for the strict
# inequalities of the existence condition.
_REGIME_TOL = 1e-12


@dataclass(frozen=True)
class TravellingWave:
    """Rigidly translating solution: width L_hat, speed c_hat, and profile
    u(y) = u_left * exp(-decay * y) on [0, L_hat], with decay = R * c_hat."""

    c_hat: float
    L_hat: float
    u_left: float
    decay: float

    def __post_init__(self):
        _check_fields(self, _finite, "finite", "c_hat", "L_hat", "u_left", "decay")
        _check_fields(self, _positive_finite, "strictly positive", "L_hat", "u_left")

    def profile(self, y):
        """Concentration at distance y from the left interface."""
        y = _check_values("TravellingWave.profile", "y", y)
        return self.u_left * np.exp(-self.decay * y)

    def profile_rescaled(self, xi):
        """Profile with the wave's own domain mapped onto [0, 1]."""
        xi = _check_values("TravellingWave.profile_rescaled", "xi", xi)
        return self.u_left * np.exp(-self.decay * (self.L_hat * xi))


class RegimeKind(Enum):
    UNIQUE_WAVE = "unique_wave"
    EQUILIBRIUM_CONTINUUM = "equilibrium_continuum"
    NO_WAVE = "no_wave"


@dataclass(frozen=True)
class RegimeClassification:
    """Outcome of the existence trichotomy: a unique wave, a continuum of
    constant steady states at a common level, or no wave at all."""

    kind: RegimeKind
    wave: TravellingWave | None = None
    level: float | None = None


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= _REGIME_TOL * max(1.0, abs(x), abs(y))


def _strictly_less(x: float, y: float) -> bool:
    return y - x > _REGIME_TOL * max(1.0, abs(x), abs(y))


def classify(params: ModelParams) -> RegimeClassification:
    """Classify the parameter regime and build the wave when it exists.

    A unique wave exists iff a/b sits strictly between the mixed ratio
    (alpha0 + R*alpha1)/(beta0 + R*beta1) and alpha0/beta0 (either
    orientation).  When a/b, alpha0/beta0 and alpha1/beta1 all coincide the
    constant level a/b is steady for every width.  Anything else admits no
    wave; in particular a vanishing speed without the triple equality.
    """
    q = params.a / params.b
    r0 = params.alpha0 / params.beta0
    r1 = params.alpha1 / params.beta1
    r_mid = (params.alpha0 + params.R * params.alpha1) / (params.beta0 + params.R * params.beta1)

    if _close(q, r0) and _close(q, r1):
        return RegimeClassification(kind=RegimeKind.EQUILIBRIUM_CONTINUUM, level=q)

    forward = _strictly_less(r_mid, q) and _strictly_less(q, r0)
    backward = _strictly_less(q, r_mid) and _strictly_less(r0, q)
    if not (forward or backward):
        return RegimeClassification(kind=RegimeKind.NO_WAVE)

    c_hat = (params.alpha0 - params.beta0 * q) / params.R
    ratio = (params.b / (params.beta1 * params.a)) * (params.alpha1 + c_hat)
    L_hat = -np.log(ratio) / (params.R * c_hat)
    wave = TravellingWave(c_hat=c_hat, L_hat=float(L_hat), u_left=q, decay=params.R * c_hat)
    return RegimeClassification(kind=RegimeKind.UNIQUE_WAVE, wave=wave)


def wave_profile_on_mesh(wave: TravellingWave, mesh: Mesh) -> np.ndarray:
    """Wave concentrations at the mesh centers of the wave's own domain,
    i.e. u_left * exp(-decay * L_hat * xi_i) for all I+2 center points."""
    return wave.profile_rescaled(mesh.centers)
