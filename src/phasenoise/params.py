"""Oscillator and spectrum parameter containers.

The single-process phase-noise PSD used throughout the package is

    S_theta(f) = f_ref^2 * l100_sq / (f3db^2 + f^2) + linf_sq

where ``l100_sq`` is the (linear, rad^2/Hz) spectrum level at the
calibration offset ``f_ref`` (100 kHz by default), ``f3db`` is the PLL
loop bandwidth (0 encodes a free-running oscillator) and ``linf_sq`` is
the high-frequency white floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _undb(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class OscillatorParams:
    """Parameters of a single Lorentzian-plus-floor phase-noise process.

    Parameters
    ----------
    f3db : float
        PLL loop 3-dB bandwidth in Hz; 0 means free-running.
    l100_sq : float
        Linear PSD level at the calibration offset, rad^2/Hz.
    linf_sq : float
        Linear high-frequency floor level, rad^2/Hz (may be 0).
    f_ref : float
        Calibration offset frequency in Hz (default 100 kHz).
    """

    f3db: float
    l100_sq: float
    linf_sq: float = 0.0
    f_ref: float = 1e5

    def __post_init__(self):
        if not all(map(math.isfinite, (self.f3db, self.l100_sq, self.linf_sq, self.f_ref))):
            raise ValueError(f"oscillator parameters must be finite, got {self}")
        if not self.l100_sq > 0:
            raise ValueError(f"l100_sq must be > 0, got {self.l100_sq}")
        if self.linf_sq < 0:
            raise ValueError(f"linf_sq must be >= 0, got {self.linf_sq}")
        if self.f3db < 0:
            raise ValueError(f"f3db must be >= 0, got {self.f3db}")
        if not self.f_ref > 0:
            raise ValueError(f"f_ref must be > 0, got {self.f_ref}")

    @property
    def flags(self) -> tuple[str, ...]:
        """``("corner-above-f_ref/10",)`` when f3db > f_ref/10, where the
        l100_sq parametrization loses accuracy; else ``()``."""
        return ("corner-above-f_ref/10",) if self.f3db > self.f_ref / 10.0 else ()

    @classmethod
    def from_db(cls, f3db: float, l100_db: float, linf_db: float | None = None,
                f_ref: float = 1e5) -> "OscillatorParams":
        """Build from dB levels (10*log10 convention); linf_db=None means no floor."""
        linf = 0.0 if linf_db is None else _undb(linf_db)
        return cls(f3db=f3db, l100_sq=_undb(l100_db), linf_sq=linf, f_ref=f_ref)

    @property
    def amp(self) -> float:
        """Lorentzian numerator f_ref^2 * l100_sq, rad^2*Hz."""
        return self.f_ref ** 2 * self.l100_sq

    @property
    def phasor_halfwidth(self) -> float:
        """3-dB half-width pi * f_ref^2 * l100_sq of the free-running phasor PSD, Hz."""
        return math.pi * self.amp


@dataclass(frozen=True)
class CompositeModel:
    """Sum of independent single-process models."""

    processes: tuple[OscillatorParams, ...]

    def __post_init__(self):
        if len(self.processes) == 0:
            raise ValueError("composite model needs at least one process")
        object.__setattr__(self, "processes", tuple(self.processes))


def as_composite(model) -> CompositeModel:
    """Wrap a single OscillatorParams into a one-member composite."""
    if isinstance(model, CompositeModel):
        return model
    if isinstance(model, OscillatorParams):
        return CompositeModel(processes=(model,))
    raise TypeError(f"expected OscillatorParams or CompositeModel, got {type(model)}")


@dataclass(frozen=True)
class ThreeGppParams:
    """Multi-pole/zero PSD description with fractional exponents.

    S(f) = psd0 * prod_n [1 + (f/f_zn)^a_zn] / prod_m [1 + (f/f_pm)^a_pm]
    """

    psd0: float
    zeros: tuple[tuple[float, float], ...]
    poles: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.psd0 > 0:
            raise ValueError("psd0 must be > 0")
        if len(self.zeros) < 1 or len(self.poles) < 1:
            raise ValueError("need at least one zero and one pole")
        for f, _a in (*self.zeros, *self.poles):
            if not f > 0:
                raise ValueError("zero/pole frequencies must be > 0")
        object.__setattr__(self, "zeros", tuple((float(f), float(a)) for f, a in self.zeros))
        object.__setattr__(self, "poles", tuple((float(f), float(a)) for f, a in self.poles))


# 45 GHz carrier parameter set of the standard cellular oscillator model,
# handy default for demos and tests
THREEGPP_45GHZ = ThreeGppParams(
    psd0=3675.0,
    zeros=((3e3, 2.37), (451e3, 2.7), (458e6, 2.53)),
    poles=((1.0, 3.3), (1.54e6, 3.3), (30e6, 1.0)),
)
