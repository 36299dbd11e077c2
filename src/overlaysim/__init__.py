"""Command-queue overlay runtime: buffers, kernels, scheduler, and two demo apps."""

from .tensors import (
    READ,
    READ_WRITE,
    WRITE,
    AccessSet,
    BlockView,
    TensorBuffer,
    access_set,
    bcropped,
    cropped,
    new_buffer,
    random_buffer,
    read_tensor_text,
    write_tensor_text,
)
from .kernels import (
    FeatureBuffer,
    convolution,
    gemm,
    lu_factor_block,
    maxpool,
    transform_column_panel,
    transform_row_panel,
)
from .overlay import (
    IP_REGISTRY,
    CommandInterface,
    IpDescriptor,
    Overlay,
    command,
    load_overlay,
)
from .runtime import (
    Conflict,
    DependenceRule,
    ExecutionTrace,
    GraphEdge,
    TaskGraph,
    TaskInstance,
    TraceRecord,
    build_task_graph,
    check_dependence_sufficiency,
    depend,
    emit_trace,
    parse_trace,
    run,
    validate_trace,
)
from .oracles import ComparisonReport, compare, oracle_cnn_forward, oracle_lu, unpack_lu
from . import apps, errors

__version__ = "0.1.0"
