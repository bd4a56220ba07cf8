"""Deterministic multi-agent flocking: spatial predictive control (SPC),
a potential-field baseline (PFC), positional low-level controllers, a
fixed-timestep simulation engine, the declarative scenario schema, and flock
quality metrics."""

from .model import *
from .controller import *
from .llc import *
from .config import *
from .engine import *
from .metrics import *
from .presets import *

# Importing a submodule binds it here too, so its __all__ is in reach.
__all__ = [*model.__all__, *controller.__all__, *llc.__all__, *config.__all__,
           *engine.__all__, *metrics.__all__, *presets.__all__]

__version__ = "0.1.0"
