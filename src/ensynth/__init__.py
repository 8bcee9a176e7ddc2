"""Region-theoretic synthesis of elementary net systems from transition systems.

The package decides state separation (SSP), event/state separation (ESSP)
and feasibility with witness regions, implements the polynomial SSP
algorithm for linear 2-fold systems, synthesizes region-restricted
elementary net systems with reachability-graph verification, and generates
the one-in-three-SAT reduction instances whose correctness claims the test
suite executes at desk scale.
"""

from .ts import *
from .regions import *
from .properties import *
from .unions import *
from .linear2 import *
from .synthesis import *
from .reductions import *

__all__ = (ts.__all__ + regions.__all__ + properties.__all__ + unions.__all__
           + linear2.__all__ + synthesis.__all__ + reductions.__all__)

__version__ = "0.1.0"
