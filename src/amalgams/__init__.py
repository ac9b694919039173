"""Amalgam, Lorentz and fractional-mean norms on concrete homogeneous
groups, with a verification harness for the inequalities tying them
together."""

from .amalgam import AmalgamResult, ball_norm, compute_norm, conv_q_indicator, partition_norm
from .counterexample import (
    BoundConstants,
    SparseUnionSpec,
    build_sparse_union,
    fractional_bound_constant,
    weak_lorentz_of_union,
)
from .fracmean import (
    ExponentTriple,
    FracNormResult,
    RadiusGrid,
    conjugate,
    default_grid,
    divergence_diagnostic,
    fractional_norm_ball,
    fractional_norm_partition,
)
from .groups import ANISO_PLANE, GROUPS, HEISENBERG, REAL_LINE, GroupDescriptor, get_group
from .partitions import (
    UniformPartition,
    build_pi_r,
    count_translate_hits,
    n_pi_bound,
    validate,
)
from .simplefn import (
    SimpleFunction,
    StepProfile,
    distribution_at,
    indicator,
    lebesgue_norm,
    lorentz_norm,
    pointwise_combine,
    rearrangement,
    simple_function,
    zero_function,
)
from .verify import InequalityCase, SuiteConfig, gen_random_simple, run_suite

__version__ = "0.1.0"
