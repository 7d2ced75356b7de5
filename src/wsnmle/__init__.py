"""Consensus-based decentralized ML estimation for wireless sensor networks.

The package covers the full pipeline: topology generation, the
complex linear-Gaussian observation model, information-driven compression
and centralized ML fusion, ADMM average consensus delivering the same
estimate at every node, and cyclic sensor-gain optimization.

Each name is imported from its module (``wsnmle.topology.Graph``); the
package namespace holds only ``__version__``.
"""

__version__ = "0.1.0"
