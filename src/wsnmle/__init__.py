"""Consensus-based decentralized ML estimation for wireless sensor networks.

The package covers the full pipeline: topology generation, the
complex linear-Gaussian observation model, information-driven compression
and centralized ML fusion, ADMM average consensus delivering the same
estimate at every node, and cyclic sensor-gain optimization.
"""

from .consensus import AdmmConfig, DecentralizedRun, admm_rounds, decentralized_mle
from .fusion import (
    GlobalModel,
    SelectionPlan,
    build_global_model,
    decompose_information,
    information_total,
    ml_estimate,
    ml_variance,
    sample_received,
    select_retainers,
)
from .gain_optimizer import (
    OptTrace,
    build_Q,
    optimize,
    power_iterate,
    update_y,
)
from .network_model import (
    GainDomain,
    GainVector,
    NetworkModel,
    node_information,
    sample_channels,
)
from .topology import Graph, Links, build_graph, load_graph, random_connected_graph, save_graph

__version__ = "0.1.0"
