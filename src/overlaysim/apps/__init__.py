"""Task-generating drivers for the two demo applications."""

from .lu import (
    LuProblem,
    dominant_matrix,
    lu_decompose,
    lu_generate_tasks,
    lu_overlay,
    lu_rules,
)
from .vgg import (
    VggConfig,
    VggWeights,
    random_input,
    seeded_weights,
    small_config,
    tiny_config,
    vgg_forward,
    vgg_generate_tasks,
    vgg_overlay,
    vgg_rules,
)
