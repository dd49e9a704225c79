"""Executors: the reference interpreter (the semantics oracle), the plan
backend (shared lowering in ``lower``, source rendering in ``codegen``,
compiled plans and their cache in ``plan``, the batched-value runtime in
``vector``), the sharded parallel executor, and the cost model — all
resolvable by name through the backend registry."""
from .codegen import CodegenPlan, compile_codegen  # noqa: F401
from .cost import Cost, CostRecorder  # noqa: F401
from .interp import RefInterp, run_fun  # noqa: F401
from .lower import PlanIR, lower_fun, lower_specialized  # noqa: F401
from .plan import (  # noqa: F401
    Plan,
    clear_plan_cache,
    compile_plan,
    plan_cache_stats,
    plan_for,
    run_fun_plan,
    run_fun_plan_batched,
    specialize_enabled,
    specialized_plan,
)
from .registry import (  # noqa: F401
    Backend,
    available_backends,
    batched_backends,
    default_backend,
    get_backend,
    register_backend,
    unregister_backend,
)
from .shard import (  # noqa: F401
    reset_shard_stats,
    run_fun_shard,
    run_fun_shard_batched,
    shard_stats,
    shutdown_shard_pool,
)
from .values import AccVal, coerce_arg, zeros_of  # noqa: F401
