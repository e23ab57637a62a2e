"""Exact waiting-time and longest-run distributions for binary trials whose
success probability decays geometrically with the number of failures."""

from .distributions import (
    Pmf,
    Rel,
    joint_longest,
    longest_run_cdf,
    longest_run_pmf,
    q_binomial_pmf,
    sooner_freq_freq_closed,
    support_min,
    waiting_time_pmf,
    waiting_time_table,
)
from .kernels import (
    ArrangementShape,
    Bounded,
    BoundedWithZero,
    EnumerationBudgetError,
    KernelSpec,
    KernelValueCache,
    Positive,
    SomeAtLeast,
    kernel_direct,
    kernel_eval,
    longest_cell_kernel_U,
    longest_cell_kernel_V,
    named_kernel,
)
from .model import (
    BinarySequence,
    FreqQuota,
    Mode,
    ModelParams,
    QuotaSpec,
    RunQuota,
    longest_runs,
    sequence_probability,
    stopping_time,
    success_prob_after,
)
from .oracle import (
    DiscrepancyReport,
    JointLongest,
    LongestAtMost,
    LongestEquals,
    ScanGrid,
    WaitingEquals,
    default_grid,
    differential_scan,
    monte_carlo_estimate,
    oracle_event_prob,
    oracle_waiting_pmf,
)
from .qcalc import (
    count_C,
    count_M,
    count_R,
    count_S,
    q_binomial,
    q_factorial,
    q_number,
    q_pochhammer,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the core that runs: "py", the only one there is."""
    return "py"
