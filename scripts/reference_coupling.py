#!/usr/bin/env python3
"""Standalone SI computation of the reference light-matter coupling.

Recomputes, from scipy's CODATA constants and without importing qdcavity,
the vacuum-field coupling for the reference geometry (dipole moment
e * 0.5 nm, wavelength 920 nm inside background index 3.5, mode volume
(wavelength / index)^3) and prints it under the unit conventions a reader
may encounter. The package freezes the angular-frequency value as
qdcavity.model.REFERENCE_COUPLING_RAD_PER_PS; this script is the
independent route to that number, so it must not share code with the
package. The frozen constant, imported from the checkout's src directory,
is printed alongside, and the script exits 1 if the two differ by more than
MAX_RELATIVE_DIFFERENCE: scipy's CODATA constants may be newer than the
package's rounded CODATA 2018 values, which moves the result by about 1e-9.
It also exits 1 when the constant cannot be imported, so that it never
passes without comparing.

Run: python scripts/reference_coupling.py
"""

import math
import sys
from pathlib import Path

from scipy.constants import c, e, epsilon_0, hbar

WAVELENGTH_M = 920e-9
BACKGROUND_INDEX = 3.5
DIPOLE_LENGTH_M = 0.5e-9
QUOTED_SCALE_PER_PS = 0.025
MAX_RELATIVE_DIFFERENCE = 1e-8
SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    volume = (WAVELENGTH_M / BACKGROUND_INDEX) ** 3
    dipole = e * DIPOLE_LENGTH_M
    eps_background = epsilon_0 * BACKGROUND_INDEX**2

    omega = 2.0 * math.pi * c / WAVELENGTH_M
    e_vac_angular = math.sqrt(hbar * omega / (2.0 * eps_background * volume))
    g_rad_per_s = dipole * e_vac_angular / hbar
    g_rad_per_ps = g_rad_per_s * 1e-12

    # Same formula with the ordinary frequency c / wavelength in place of
    # the angular frequency; differs by sqrt(2 pi).
    nu = c / WAVELENGTH_M
    e_vac_ordinary = math.sqrt(hbar * nu / (2.0 * eps_background * volume))
    g_ordinary_per_ps = dipole * e_vac_ordinary / hbar * 1e-12

    print("reference geometry")
    print(f"  dipole moment        {dipole:.6e} C m  (e * 0.5 nm)")
    print(f"  wavelength           {WAVELENGTH_M:.3e} m")
    print(f"  background index     {BACKGROUND_INDEX}")
    print(f"  mode volume          {volume:.6e} m^3  ((wavelength/index)^3)")
    print()
    print("coupling under different frequency conventions")
    print(f"  angular, rad/ps          {g_rad_per_ps:.17g}")
    print(f"  angular / 2 pi, 1/ps     {g_rad_per_ps / (2.0 * math.pi):.17g}")
    print(f"  ordinary-frequency form  {g_ordinary_per_ps:.17g}")
    print()
    ratio = g_rad_per_ps / (2.0 * math.pi) / QUOTED_SCALE_PER_PS
    print(f"conventional quoted scale    {QUOTED_SCALE_PER_PS} 1/ps")
    print(f"  (angular / 2 pi) / quoted  {ratio:.6f}")

    sys.path.insert(0, str(SRC))
    try:
        from qdcavity.model import REFERENCE_COUPLING_RAD_PER_PS
    except ImportError as err:
        print(f"cannot import the package constant from {SRC}: {err}",
              file=sys.stderr)
        return 1
    rel = abs(g_rad_per_ps - REFERENCE_COUPLING_RAD_PER_PS) \
        / REFERENCE_COUPLING_RAD_PER_PS
    print()
    print(f"package frozen value         {REFERENCE_COUPLING_RAD_PER_PS:.17g}")
    print(f"  relative difference        {rel:.3e}")
    if rel > MAX_RELATIVE_DIFFERENCE:
        print(f"relative difference above {MAX_RELATIVE_DIFFERENCE:g}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
