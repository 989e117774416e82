"""Steady states of multi-patch epidemic models under small travel volumes.

The package enumerates the product equilibria of disconnected patch
models, predicts from the mobility network and the local reproduction
numbers which of them survive once a small amount of travel couples the
patches, and verifies those predictions by equilibrium continuation
and time integration.
"""
from . import (cli, continuation, equilibria, matalg, model, network,
               persist, sim)

__version__ = "0.1.0"

__all__ = ["cli", "continuation", "equilibria", "matalg", "model",
           "network", "persist", "sim", "__version__"]
