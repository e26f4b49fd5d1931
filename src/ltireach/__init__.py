"""Exact reachability analysis for discrete-time linear control systems.

The library decides whether a target polytope can be reached from a
source state under dynamics x_{t+1} = A x_t + u_t with controls drawn
from a fixed set: forward search answers "yes" with a replayable control
sequence, and a separating-hyperplane search answers "no" with an
independently checkable algebraic certificate.
"""

__version__ = "0.1.0"

from .exactnum import (  # noqa: F401
    IntPoly,
    RealAlg,
    interval,
    sturm_isolate_real_roots,
)
