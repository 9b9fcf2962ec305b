"""Fault-tolerant multi-robot ray search: bounds, strategies, and refuters."""

from .cover import *
from .formulas import *
from .fractional import *
from .potential import *
from .simulator import *
from .strategy import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
