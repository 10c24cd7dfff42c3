"""Capacities of the fully correlated two-qubit amplitude damping channel."""

from .capacities import *
from .channels import *
from .covariance import *
from .entropy import *
from .optimizer import *
from .qmat import *

__version__ = "0.1.0"
