"""MTJ-based stochastic-computing Bayesian inference simulator.

Layers, bottom to top: device (the MTJ switching law, calibration and
process variation), sbg (generator arrays with energy accounting), stochastic
(SCC from bit-overlap counts), logic (gate DAGs and conflict analysis),
allocator (generator sharing over a switch matrix), fusion (grid target
locating with an exact Bayesian oracle), experiments (measurement protocols),
cost (architecture-level comparisons), cli (orchestration).
"""

from .device import (
    InstanceFactors,
    MtjParams,
    PulseSpec,
    TargetUnreachable,
    WriteDirection,
    base_switching_time,
    calibrate_voltage,
    switch_probability,
)
from .stochastic import scc
from .logic import (
    CyclicNetlist,
    GateKind,
    Product,
    ScNetlist,
    cluster_terminals,
    expand_products,
    extract_conflict_sets,
)
from .sbg import (
    SbgArray,
    SbgArraySpec,
    SbgDevice,
    SbgMode,
    build_array,
    generate_array,
    make_units,
)
from .allocator import (
    CapacityExceeded,
    SwitchMatrix,
    UnknownLevel,
    allocate,
    cost_metrics,
    verify_allocation,
)
from .fusion import (
    FusionPipeline,
    FusionProblem,
    PosteriorGrid,
    SensorReading,
    ShapeMismatch,
    exact_posterior,
    kl_divergence,
    make_problem,
)
from .cost import CostProfile, compare, simulated_profile, totals
from .config import ConfigError, RunConfig, load_config

__version__ = "0.1.0"
