"""Numerical laboratory for fibered topological Markov chains.

Seeded finite-state drivers select the fiber structure; transfer operators
with cylinder-exact potentials act on cylinder functions and atomic measures;
the eigenproblem, the Wasserstein-contraction constants with their coupling
construction and return-time sequences, and the downstream applications
(random matrix products, decay of correlations, psi-mixing, equilibrium
states) are all computed exactly at finite depth and certified against their
stated bounds.
"""

from .driver import (
    DriverPath,
    DriverSystem,
    EventSpec,
    sample_path,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DepthOverflow,
    InvariantViolation,
    RtmcError,
    WindowExhausted,
)
from .shifts import (
    BipStructure,
    FiberStructure,
    Metric,
    admissible_words,
    canonical_prefixes,
)
from .potentials import (
    DistortionConstants,
    Potential,
    constant_potential,
    distortion_constant,
    fitted_kappa,
    log_matrix_potential,
    table_potential,
    variation,
    word_birkhoff,
)
from .transfer import (
    AtomicMeasure,
    CylinderFunction,
    GibbsReport,
    PressureEstimate,
    RpfTriple,
    dual_apply,
    gibbs_check,
    gurevich_pressure,
    invariant_measures,
    normalize_potential,
    random_lipschitz,
    rpf_solve,
    summability_value,
    transfer_apply,
    transfer_power,
)
from .transport import (
    ContractionCertificate,
    DecayReport,
    LemmaReport,
    TransportPlan,
    build_coupling,
    certify_event,
    contraction_constants,
    k_factor,
    lipschitz_dual,
    return_sequences,
    verify_decay,
    verify_main_lemma,
    wasserstein,
)
from .matrices import (
    MatrixDecayReport,
    MatrixRpf,
    RandomMatrixFamily,
    cross_check_with_solver,
    matrix_decay_bounds,
    matrix_rpf,
    normalized_family,
)
from .mixing import (
    CorrelationReport,
    EquilibriumReport,
    MixingReport,
    correlation_decay,
    equilibrium_gap,
    pattern_function,
    psi_mixing,
    refined_invariant,
)
from .config import ExperimentConfig, load_config, validate_config

__version__ = "0.1.0"
