"""Named parameter bundles for the canonical targets.

Each preset fixes mode intensities, probe amplitude, nonlinearity strength,
displacement scale and the target coefficients in one place so a worked
example is a single lookup: the one-detector pair state at distinguishability
x = |alpha|^2 chi^2 = 1, the two-detector maximal-entanglement optima in the
overlapping (x = 1e-4) and well-separated (x = 100) regimes, and the
fixed-total-photon-number family at small intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import TargetCoefficients, coeffs_from_photon_target

@dataclass(frozen=True)
class Preset:
    name: str
    alpha: complex
    beta: complex
    gamma: complex
    chi: float
    delta: float
    target: TargetCoefficients

    @property
    def K(self) -> int:
        return self.target.K


def _bell_k1() -> Preset:
    a2 = 10.0
    chi = 1.0 / math.sqrt(a2)
    c = np.array([1.0, -np.exp(-2j * a2 * math.sin(chi))])
    return Preset(
        "bell-k1", math.sqrt(a2), math.sqrt(a2), 0.1, chi, 1e-3, TargetCoefficients(c)
    )


def _maxent_k2_low() -> Preset:
    a2, chi = 1.0, 0.01
    x = a2 * chi**2
    p = np.exp(-2j * a2 * chi)
    c = np.array([1.0, -2 * (1 - x) * p, p * p])
    return Preset("maxent-k2-low", 1.0, 1.0, 0.1, chi, 0.1, TargetCoefficients(c))


def _maxent_k2_high() -> Preset:
    a2, chi = 1e4, 0.1
    p = np.exp(-2j * a2 * chi)
    c = np.array([1.0, -p, p * p])
    return Preset("maxent-k2-high", 100.0, 100.0, 0.1, chi, 0.1, TargetCoefficients(c))


def _photon_correlated(s: int, K: int) -> Preset:
    chi = 1.0
    return Preset(
        f"photon-correlated:{s},{K}", 0.1, 0.1, 0.1, chi, 0.1,
        coeffs_from_photon_target(s, K, chi),
    )


# name -> factory; photon-correlated alone takes parameters, from its name
_PRESETS = {"bell-k1": _bell_k1, "maxent-k2-low": _maxent_k2_low,
            "maxent-k2-high": _maxent_k2_high, "photon-correlated": _photon_correlated}
PRESET_NAMES = tuple(_PRESETS)


def get_preset(name: str) -> Preset:
    """Look up a preset by name; photon-correlated takes its s and K in the
    name, as "photon-correlated:s,K", and any other name takes no suffix."""
    base, colon, tail = name.partition(":")
    if base not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    if base != "photon-correlated":
        if colon:
            raise ValueError(f"preset {base!r} takes no parameters, got {name!r}")
        return _PRESETS[base]()
    try:
        s, K = (int(v) for v in tail.split(","))
    except ValueError:
        raise ValueError(f"cannot parse {tail!r}; expected photon-correlated:s,K") from None
    return _PRESETS[base](s, K)
