"""Free-space physical constants used throughout the library.

ETA0 = sqrt(mu0/eps0) = mu0*c with mu0 = 4e-7*pi H/m and eps0 = 1/(mu0*c^2).
"""

import math

C0 = 2.99792458e8                    # speed of light [m/s], exact
ETA0 = 4.0e-7 * math.pi * C0        # wave impedance [ohm]
