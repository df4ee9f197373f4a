"""Free-space physical constants used throughout the library.

EPS0 and ETA0 follow from C0 and MU0 by definition.
"""

import math

C0 = 2.99792458e8                    # speed of light [m/s], exact
MU0 = 4.0e-7 * math.pi               # permeability [H/m]
EPS0 = 1.0 / (MU0 * C0**2)           # permittivity [F/m]
ETA0 = math.sqrt(MU0 / EPS0)         # wave impedance [ohm]
