"""fogstore-sim: a fog-aware replicated key-value store on a deterministic simulator.

The package models a fog continuum (nodes, failure groups, weighted links),
places replicas with failure-group disjointness and latency proximity, maps
client queries to consistency levels from geographic consistency regions,
and executes them through a coordinator protocol on a discrete-event
network simulator. A read-latest workload harness reproduces star-topology
latency experiments with exact, replayable results.
"""

from .consistency import (
    Band,
    ClientContext,
    ConsistencyLevel,
    ConsistencyRegionSpec,
    DataContext,
    LevelInfeasibleError,
    RegionSet,
    get_region,
    load_regions,
    required_acks,
)
from .errors import ConfigError
from .experiment import (
    PAPER_LATENCY_SETTINGS,
    RunOutput,
    SweepPlan,
    SweepResult,
    build_star_topology,
    load_sweep_plan,
    make_paper_topologies,
    run_queries,
    run_single,
    run_sweep,
)
from .netsim import (
    BudgetExceededError,
    FaultAction,
    SimEvent,
    SimReport,
    Simulator,
    load_fault_script,
)
from .placement import ReplicaMap, place_replicas
from .store import (
    Cluster,
    ControlPlane,
    Query,
    QueryKind,
    QueryResult,
    VersionedRecord,
)
from .topology import (
    FogNode,
    Link,
    NoStorageNodesError,
    Topology,
    TopologyError,
    UnknownNodeError,
    UnreachableError,
    geo_distance,
    load_topology,
)
from .workload import (
    EmptySampleError,
    LatencyStats,
    StatsSummary,
    WorkloadClient,
    WorkloadSpec,
    generate_ops,
    load_workload,
    percentile,
)

__version__ = "0.1.0"
