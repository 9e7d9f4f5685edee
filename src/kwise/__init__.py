"""Exact densities and counting tools for k-wise coprime integer tuples."""

from . import arith, coprime, density, recursion, stats
from .arith import *
from .coprime import *
from .density import *
from .recursion import *
from .stats import *

__version__ = "0.1.0"

__all__ = sorted({name for m in (arith, coprime, density, recursion, stats) for name in m.__all__})
