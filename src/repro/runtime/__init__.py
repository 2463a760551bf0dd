"""Reference runtime: numpy kernels, compiled plans, executor, profiler."""

from .arena import (
    ArenaOwnershipError,
    ArenaStats,
    RunContext,
    ScratchArena,
)
from .executor import Executor, run_graph
from .kernels import Workspace
from .parallel import WorkerPool, get_pool
from .plan import (
    PACK_FORMAT_VERSION,
    CompiledStep,
    ExecutionError,
    ExecutionPlan,
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
    "Workspace",
    "ExecutionError", "Executor", "run_graph",
    "WorkerPool", "get_pool",
    "CompiledStep", "ExecutionPlan", "PACK_FORMAT_VERSION",
    "compile_node", "compile_plan", "fresh_buffers", "prepack_graph",
    "CacheStats", "PlanCache", "SpecializedModel",
    "default_cache_dir", "load_or_build",
    "LayerProfile", "Profiler", "ProfileResult", "profile_graph",
    "QuantParams", "RequantPlan", "build_requant_plan",
    "choose_qparams", "quantization_error",
    "quantized_conv2d", "quantized_dense", "zero_point_row_term",
]
