"""The package's one tolerance policy: three levels, scaled to the data.

Majorization does not depend on units, so a slack on data is a level
times the data's magnitude (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, section 4).  Dimensionless quantities (a
mixing weight t, a total mass, the rank of a projection, a pinching
witness of an arbitrary f) take a level as it is.
"""

import numpy as np

#: round-off: how far an exact identity may drift under float64 arithmetic
ROUND_OFF = 1e-12
#: decision: slack of a yes/no verdict on an inequality or an equality
DECISION = 1e-10
#: witness: slack of a convexity witness or of a cross-check between routes
WITNESS = 1e-9


def scaled(level: float, *data) -> float:
    """``level`` times the largest magnitude among ``data`` (arrays or numbers)."""
    return level * max(float(np.abs(d).max()) for d in data)
