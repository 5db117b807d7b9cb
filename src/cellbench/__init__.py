"""Strategy-swappable multicellular simulation kernel and benchmark harness.

Every performance-relevant mechanism is a run-time strategy: small-vector
allocation mode, solver traversal granularity, mechanics scheduling, and cell
storage order.  All strategies produce bit-identical physics; the harness and
the efficiency-metrics engine exist to measure what they do to the clock.
"""

from .config import (
    RunConfig,
    StrategyConfig,
    build_config,
    format_config,
    load_config,
    parse_config_text,
    parse_strategy_literal,
)
from .core import (
    POSITION_EPS,
    CartesianMesh,
    Cell,
    CellContainer,
    Microenvironment,
    rebin_cells,
)
from .diffusion import (
    TraversalMode,
    apply_cell_exchange,
    compute_gradients,
    lod_step,
)
from .errors import (
    CapacityError,
    CellBenchError,
    ConfigError,
    ContainerStateError,
    DomainError,
    InconsistentTraceError,
    NumericError,
    UndefinedMetricError,
)
from .harness import (
    EFFICIENCY_FIELDS,
    EquivalenceReport,
    SweepCell,
    SweepResult,
    efficiency_rows,
    ensure_out_dir,
    run_id_for,
    sweep,
    uniform_chunk_benchmark,
    verify_equivalence,
    write_efficiency_csv,
    write_speedup_tsv,
    write_timings_csv,
)
from .mechanics import (
    EPS_SKIP,
    InteractionParams,
    MechanicsSchedule,
    ScheduleKind,
    check_binning_exact,
    integrate_positions,
    update_velocities,
)
from .metrics import (
    RegionTiming,
    aggregate_timings,
    chunk_lb_model,
    chunk_speedup_model,
    communication_efficiency,
    computation_scalability,
    load_balance,
    parallel_efficiency,
    timing_from_record,
)
from .parallel import RegionRecord, WorkerCtx, WorkerPool, WorkerStats, static_ranges
from .population import (
    DEFAULT_CELL_CAP,
    StorageKind,
    StorageOrder,
    attempt_divisions,
    division_draws,
    locality_metric,
    sort_cells_by_voxel,
)
from .simulate import REGIONS, RunResult, run_simulation, seed_cells, state_checksum
from .smallvec import (
    AllocationMode,
    InPlaceVectorOps,
    TempAllocVectorOps,
    vector_ops,
)

__version__ = "0.1.0"
