"""Simulator and statistical verifier for quantum minimum finding.

The algorithm keeps a threshold index and repeatedly runs amplitude-
amplification search for any entry smaller than the threshold, accepting
each strict improvement, until a step budget of 22.5*sqrt(N) + 1.4*lg^2 N
runs out.  This package provides two behaviorally identical execution
backends (an exact statevector simulation and a closed-form sampler), the
closed-form cost bounds, and a Monte Carlo harness that checks the
claimed statistics at scale.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    SweepResult,
    expected_cost_bound,
    expected_search_cost_bound,
    harmonic_number,
    search_iterations_bound,
    sweep_harmonic_bound,
    sweep_search_cost_bound,
    timeout_cap,
)
from .grover import (
    StateVector,
    grover_iterate,
    marked_subset,
    measure,
    success_probability,
    uniform_state,
)
from .harness import ExperimentConfig, Report, run_experiment
from .minfind import (
    CostLedger,
    RunResult,
    find_minimum,
    find_minimum_boosted,
)
from .qsearch import (
    Backend,
    FixedSetOracle,
    SearchOutcome,
    SearchParams,
    exponential_search,
)
from .seeding import derive_stream
from .table import Table, ThresholdOracle, generate_table, read_table, write_table

__all__ = [
    "__version__",
    "Backend",
    "BoundReport",
    "CostLedger",
    "ExperimentConfig",
    "FixedSetOracle",
    "Report",
    "RunResult",
    "SearchOutcome",
    "SearchParams",
    "StateVector",
    "SweepResult",
    "Table",
    "ThresholdOracle",
    "derive_stream",
    "expected_cost_bound",
    "expected_search_cost_bound",
    "exponential_search",
    "find_minimum",
    "find_minimum_boosted",
    "generate_table",
    "grover_iterate",
    "harmonic_number",
    "marked_subset",
    "measure",
    "read_table",
    "run_experiment",
    "search_iterations_bound",
    "success_probability",
    "sweep_harmonic_bound",
    "sweep_search_cost_bound",
    "timeout_cap",
    "uniform_state",
    "write_table",
]
