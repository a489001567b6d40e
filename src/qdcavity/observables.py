"""Figures of merit derived from a (steady) state.

Negative two-photon values, a possible artifact of the truncated hierarchy,
are reported as-is and flagged through Observables.physical; nothing is
clamped silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dynamics import DynamicState, two_photon_expectation
from .model import ModelParams

# Photon number below which g2(0) is reported as undefined instead of an
# unstable 0/0 quotient.
PHOTON_FLOOR = 1e-15


@dataclass(frozen=True)
class Observables:
    """Bundle of derived quantities for one state.

    g2_zero is None when the state has no photons to correlate (the CSV
    writer renders that as the literal token "undefined").
    """

    photon_number: float
    two_photon: float
    g2_zero: Optional[float]
    output_rate: float

    @classmethod
    def from_moments(
        cls, photon_number: float, two_photon: float, params: ModelParams
    ) -> "Observables":
        """Observables from n_p = <a+a> and <a+a+aa>.

        g2(0) is <a+a+aa> / n_p^2, None when n_p is at or below
        PHOTON_FLOOR; the output rate is the photon flux out of the cavity,
        2 gamma_c n_p, in 1/ps.
        """
        n_p = photon_number
        return cls(
            photon_number=n_p,
            two_photon=two_photon,
            g2_zero=two_photon / (n_p * n_p) if n_p > PHOTON_FLOOR else None,
            output_rate=2.0 * params.gamma_c * n_p,
        )

    @property
    def physical(self) -> bool:
        """True when photon_number and two_photon are both non-negative."""
        return self.photon_number >= 0.0 and self.two_photon >= 0.0


def observables_of(state: DynamicState, params: ModelParams) -> Observables:
    """Observables of a hierarchy state; g2 is None in vacuum."""
    return Observables.from_moments(
        state.n_p, two_photon_expectation(state), params
    )
