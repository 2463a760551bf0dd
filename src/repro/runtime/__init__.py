"""Reference runtime: numpy kernels, compiled plans, executor, profiler."""

from .arena import (
    ArenaOwnershipError,
    ArenaStats,
    RunContext,
    ScratchArena,
    WorkerSlices,
)
from .executor import Executor, run_graph
from .kernels import Workspace
from .parallel import NUM_THREADS_ENV_VAR, WorkerPool, get_pool, \
    resolve_num_threads
from .plan import (
    PACK_FORMAT_VERSION,
    CompiledStep,
    ExecutionError,
    ExecutionPlan,
    PlanSchedule,
    ShardPlan,
    build_schedule,
    build_shard,
    compile_node,
    compile_plan,
    fresh_buffers,
    prepack_graph,
)
from .plan_cache import (
    CacheStats,
    PlanCache,
    SpecializedModel,
    default_cache_dir,
    load_or_build,
)
from .profiler import LayerProfile, Profiler, ProfileResult, profile_graph
from .quantized import (
    QuantParams,
    RequantPlan,
    build_requant_plan,
    choose_qparams,
    quantization_error,
    quantized_conv2d,
    quantized_dense,
    zero_point_row_term,
)

__all__ = [
    "ArenaOwnershipError", "ArenaStats", "RunContext", "ScratchArena",
    "WorkerSlices", "Workspace",
    "ExecutionError", "Executor", "run_graph",
    "NUM_THREADS_ENV_VAR", "WorkerPool", "get_pool", "resolve_num_threads",
    "CompiledStep", "ExecutionPlan", "PACK_FORMAT_VERSION",
    "PlanSchedule", "ShardPlan", "build_schedule", "build_shard",
    "compile_node", "compile_plan", "fresh_buffers", "prepack_graph",
    "CacheStats", "PlanCache", "SpecializedModel",
    "default_cache_dir", "load_or_build",
    "LayerProfile", "Profiler", "ProfileResult", "profile_graph",
    "QuantParams", "RequantPlan", "build_requant_plan",
    "choose_qparams", "quantization_error",
    "quantized_conv2d", "quantized_dense", "zero_point_row_term",
]
