"""Source-sink metapopulation analysis.

Persistence criteria, long-term growth rates and ancestral habitat-
occupancy frequencies for stochastic metapopulations on patch graphs,
each quantity computable by at least two independent routes (spectral,
random-walk excursions, cost/payoff variational, direct simulation) so
results can cross-check each other.
"""

__version__ = "0.1.0"

from .branching import (
    OffspringLaw,
    SimReport,
    extinction_probability,
    geometric_laws,
    patch_series,
    poisson_laws,
    simulate,
)
from .environments import (
    EnvironmentModel,
    LyapunovEstimate,
    MarkovSwitching,
    Periodic,
    Schedule,
    edge_chain,
    even_return_functional,
    load_environment,
    lyapunov_estimate,
    periodic_growth_and_occupancy,
    periodic_mean_matrix,
    phase_occupancy,
    random_env_lower_bound,
    two_patch_periodic_criterion,
)
from .errors import ConvergenceError, StatisticalError, ValidationError
from .graph import (
    AssumptionReport,
    MetapopGraph,
    as_frequencies,
    load_graph,
    stationary_distribution,
    validate_graph,
)
from .motifs import (
    Motif,
    PipelineRates,
    PipelineSpec,
    collapse,
    load_motif,
    load_pipeline,
    pipeline_depleting_rate,
    pipeline_to_motif,
    type_return_functional,
)
from .spectral import (
    SpectralData,
    growth_rate,
    mean_matrix,
    occupancy_spectral,
    perron_value,
)
from .variational import (
    RateEvaluation,
    VariationalResult,
    argmax_occupancy,
    idt_residual,
    max_rate_gap,
    payoff,
    rate_function,
    rate_grid_2patch,
)
from .walks import (
    Excursion,
    PersistenceVerdict,
    WalkConfig,
    depleting_rate,
    return_functional_exact,
    return_functional_mc,
    sample_excursion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
