"""Persistent local-homology sheaves of weighted graphs.

Build a Vietoris-Rips flag filtration, compute per-vertex stalks of
persistent relative cocycles, couple adjacent stalks into interval-tagged
rank-1 sheaf Laplacian atoms, diffuse features through the assembled
operator, and validate every fast-path quantity against a dense exact
oracle.
"""

from .complexes import (
    Filtration,
    WeightedGraph,
    build_flag_complex,
    graph_from_points,
    star_of_vertices,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    ContractError,
    IllConditionedError,
    UnknownSimplexError,
)
from .linalg import Field
from .nn import (
    FeatureBundle,
    FiltrationGradient,
    MLPParams,
    diffuse,
    filtration_gradient,
    hypernet_weights,
    message_pass,
    sign_equivariant_layer,
)
from .persistence import Diagram, PersistentCocycle, betti_at, persistent_cohomology
from .sheaf import (
    AssembledLaplacian,
    LocalStalk,
    SheafLaplacianBlock,
    assemble_laplacian,
    compute_stalk,
    sheaf_laplacian_block,
)

__version__ = "0.1.0"
