"""Exception types shared across the simulator."""


class OverlayError(Exception):
    """Base class for every error raised by this package."""


class InvalidShapeError(OverlayError):
    """Buffer shape with a zero/negative extent or no axes."""


class BlockMisalignmentError(OverlayError):
    """Block crop requested on a buffer whose extents are not divisible by the block size."""


class InvalidCropError(OverlayError):
    """Crop range empty, reversed, or outside the buffer."""


class ShapeError(OverlayError):
    """Operand shapes incompatible with the requested kernel."""


class SingularPivotError(OverlayError):
    """Factorization hit a pivot below the epsilon threshold."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"singular pivot at index {index} (|{value!r}| below threshold)")


class AliasingError(OverlayError):
    """Output view overlaps an input view where the kernel forbids it."""


class EmptyFeatureBufferError(OverlayError):
    """Task asked to read the feature buffer before anything was stored."""


class ConfigurationError(OverlayError):
    """Bad overlay, problem, or network configuration."""


class InvocationError(OverlayError):
    """Enqueue or run called with arguments that do not fit the target interface."""


class RuleError(OverlayError):
    """Malformed dependence rule."""


class CyclicDependenceError(OverlayError):
    """Task graph contains a cycle; carries one witness cycle of task ids."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cyclic dependence: " + " -> ".join(str(t) for t in self.cycle))


class DependenceConflictError(OverlayError):
    """Scheduler refused to run a graph whose conflict report is non-empty."""

    def __init__(self, conflicts):
        self.conflicts = list(conflicts)
        super().__init__(
            f"{len(self.conflicts)} unordered conflicting task pair(s); "
            "re-run with unsafe=True to execute anyway"
        )


class TaskExecutionError(OverlayError):
    """A task body failed; scheduling stopped and no further task was started.

    Carries the task's id, kind, iteration and access sets; the body's own
    exception is the __cause__.
    """

    def __init__(self, task_id: int, kind: str, iteration: int, access_sets: tuple):
        self.task_id = task_id
        self.kind = kind
        self.iteration = iteration
        self.access_sets = access_sets
        super().__init__(f"task {task_id} ({kind}) failed")


class ParseError(OverlayError):
    """Malformed manifest, trace, or tensor-text file."""
