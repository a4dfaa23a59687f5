"""rankpress: compression pipeline for ranking-based visual quality networks.

Sparsity-inducing training, density-driven structured channel pruning,
multi-level knowledge distillation, and an SROCC / F-test evaluation
harness, all on a small self-contained autodiff engine.
"""

from .autodiff import Tensor, backward, gradient_check
from .nets import (
    NetworkSpec,
    build_teacher,
    count_flops,
    count_params,
)

__all__ = [
    "Tensor",
    "backward",
    "gradient_check",
    "NetworkSpec",
    "build_teacher",
    "count_flops",
    "count_params",
]

__version__ = "0.1.0"
