"""The in-memory computing libraries under study.

DataSpaces, DIMES, Flexpath and Decaf reimplemented per the designs the
paper describes, plus the MPI-IO baseline, on the simulated HPC
substrate.  ``make_library`` builds any of them by registry name with
the paper's default sizing.
"""

from .base import ServerState, StagingConfig, StagingLibrary, StagingStats, Topology
from .dart import DartError, DartInstance
from .dataspaces import DataSpaces
from .decaf import Decaf, DecafEdge, DecafGraph, DecafNode, count_redistribution
from .decomposition import (
    access_plan,
    application_decomposition,
    is_n_to_one,
    region_to_server,
    servers_touched,
    split_along,
    staging_partition,
)
from .dimes import Dimes
from .evpath import EvpathError, EvpathManager, Stone
from .factory import METHODS, make_library, method_names
from .flexpath import Flexpath
from .mpiio import MpiIo
from .ndarray import Region, Variable, longest_dimension
from .sfc import SfcIndex, hilbert_coords, hilbert_index, index_memory_bytes
from .sst import Sst
from .store import Fragment, FragmentStore, VersionGate

__all__ = [
    "DartError",
    "DartInstance",
    "DataSpaces",
    "EvpathError",
    "EvpathManager",
    "Stone",
    "Decaf",
    "DecafEdge",
    "DecafGraph",
    "DecafNode",
    "Dimes",
    "Flexpath",
    "Fragment",
    "FragmentStore",
    "METHODS",
    "MpiIo",
    "Region",
    "ServerState",
    "SfcIndex",
    "Sst",
    "StagingConfig",
    "StagingLibrary",
    "StagingStats",
    "Topology",
    "Variable",
    "VersionGate",
    "access_plan",
    "application_decomposition",
    "count_redistribution",
    "hilbert_coords",
    "hilbert_index",
    "index_memory_bytes",
    "is_n_to_one",
    "longest_dimension",
    "make_library",
    "method_names",
    "region_to_server",
    "servers_touched",
    "split_along",
    "staging_partition",
]
