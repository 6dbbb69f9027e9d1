"""Method registry and factory for the studied staging libraries.

The seven methods of Figure 2 plus the beyond-the-paper SST family, by
registry name:

=================  ===========================================  =========
name               library                                      transport
=================  ===========================================  =========
dataspaces         native DataSpaces                            ugni
dataspaces-adios   DataSpaces through ADIOS                     ugni
dimes              native DIMES                                 ugni
dimes-adios        DIMES through ADIOS                          ugni
flexpath           Flexpath/ADIOS (EVPath)                      nnti
decaf              Decaf dataflow                               mpi
mpiio              MPI-IO/ADIOS to Lustre                       (storage)
sst                SST-style streaming (beyond the paper)       ugni
=================  ===========================================  =========

Server sizing follows the paper's setup section: DataSpaces gets one
server per 8 analytics processors, DIMES gets 4 metadata servers and
Decaf gets one dflow rank per analytics processor.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Type

from ..hpc.cluster import Cluster
from .base import StagingConfig, StagingLibrary, Topology
from .dataspaces import DataSpaces
from .decaf import Decaf
from .dimes import Dimes
from .flexpath import Flexpath
from .mpiio import MpiIo
from .ndarray import Variable
from .sst import Sst


class MethodSpec:
    """Static description of one registry entry."""

    def __init__(
        self,
        cls: Type[StagingLibrary],
        default_transport: str,
        use_adios: bool,
        server_sizing,
        servers_per_node: int = 1,
        display: str = "",
    ) -> None:
        self.cls = cls
        self.default_transport = default_transport
        self.use_adios = use_adios
        self.server_sizing = server_sizing
        self.servers_per_node = servers_per_node
        self.display = display


METHODS: Dict[str, MethodSpec] = {
    "dataspaces": MethodSpec(
        DataSpaces, "ugni", False,
        lambda nsim, nana: DataSpaces.default_server_count(nana),
        display="DataSpaces (native)",
    ),
    "dataspaces-adios": MethodSpec(
        DataSpaces, "ugni", True,
        lambda nsim, nana: DataSpaces.default_server_count(nana),
        display="DataSpaces (ADIOS)",
    ),
    "dimes": MethodSpec(
        Dimes, "ugni", False,
        lambda nsim, nana: Dimes.DEFAULT_SERVERS,
        display="DIMES (native)",
    ),
    "dimes-adios": MethodSpec(
        Dimes, "ugni", True,
        lambda nsim, nana: Dimes.DEFAULT_SERVERS,
        display="DIMES (ADIOS)",
    ),
    "flexpath": MethodSpec(
        Flexpath, "nnti", True,
        lambda nsim, nana: 0,
        display="Flexpath (ADIOS)",
    ),
    "decaf": MethodSpec(
        Decaf, "mpi", False,
        lambda nsim, nana: Decaf.default_server_count(nana),
        servers_per_node=8,
        display="Decaf",
    ),
    "mpiio": MethodSpec(
        MpiIo, "mpi", True,
        lambda nsim, nana: 0,
        display="MPI-IO (ADIOS)",
    ),
    # Appended last: existing goldens never iterate the registry, but
    # keeping the paper's seven first preserves any name-order output.
    "sst": MethodSpec(
        Sst, "ugni", True,
        lambda nsim, nana: 0,
        display="SST (streaming)",
    ),
}


def method_names() -> list:
    """All registry names, stable order."""
    return list(METHODS)


def method_spec(method: str) -> MethodSpec:
    """The registry entry for ``method``, case-insensitive; ``ValueError``
    for a name the registry does not hold."""
    try:
        return METHODS[method.lower()]
    except KeyError:
        raise ValueError(
            f"unknown staging method {method!r}; available: {method_names()}"
        ) from None


def make_library(
    method: str,
    cluster: Cluster,
    nsim: int,
    nana: int,
    variable: Variable,
    steps: int = 5,
    transport: Optional[str] = None,
    num_servers: Optional[int] = None,
    shared_nodes: bool = False,
    config: Optional[StagingConfig] = None,
    topology_overrides: Optional[dict] = None,
    **library_kwargs,
) -> StagingLibrary:
    """Instantiate a staging method by name with the paper's defaults.

    ``transport`` overrides the method's native transport (e.g. ``tcp``
    for the Figure 10 socket runs, ``shm`` for Figure 13).
    ``num_servers`` overrides the default sizing (Figures 11/12).
    """
    spec = method_spec(method)
    servers = spec.server_sizing(nsim, nana) if num_servers is None else num_servers
    topo_kwargs = dict(
        nsim=nsim,
        nana=nana,
        nservers=servers,
        servers_per_node=spec.servers_per_node,
    )
    if topology_overrides:
        topo_kwargs.update(topology_overrides)
    topology = Topology(**topo_kwargs)

    if config is None:
        config = StagingConfig(
            transport=transport or spec.default_transport,
            use_adios=spec.use_adios,
        )
    elif transport is not None:
        config = replace(config, transport=transport)

    return spec.cls(
        cluster,
        topology,
        config=config,
        variable=variable,
        steps=steps,
        shared_nodes=shared_nodes,
        **library_kwargs,
    )
