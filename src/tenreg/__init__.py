"""Convex regularized least-squares tensor regression toolkit.

Dense order-N tensor arithmetic, a catalogue of weakly decomposable
penalties with their duals and proximal maps, accelerated proximal gradient
and consensus ADMM solvers with first-order certificates, synthetic data
generators (including stationary VAR simulation), Monte-Carlo Gaussian
width estimation, and an experiment harness for width scaling, risk-bound,
and rate-verification studies.
"""

from .datagen import (
    ModelClassSpec,
    VarModel,
    class_certificate,
    gen_problem,
    gen_truth,
    gen_var_model,
    gen_var_panel,
    gen_var_series,
    var_spectral_extrema,
)
from .errors import TenregError
from .harness import (
    PackingSet,
    RateExperimentConfig,
    emit_report,
    fano_precondition_check,
    hypercube_packing,
    rate_experiment,
    width_experiment,
)
from .regularizers import (
    RegularizerSpec,
    SubspaceSpec,
    compatibility,
    decomposability_margin,
    entry_l1,
    fiber_group,
    matricized_nuclear_sum,
    prox,
    reg_dual,
    reg_eval,
    slice_frob,
    slice_nuclear,
    subspace_project,
    tensor_spectral,
)
from .solver import (
    RegressionProblem,
    SolveResult,
    admm_matricized,
    empirical_norm,
    fista_pairwise,
    fista_solve,
    kkt_residual,
    lambda_rule,
    objective,
    risk_bound_predicted,
)
from .spectral import WidthEstimate, gaussian_width_mc, hopm_spectral, matrix_svt
from .tensor import (
    ProjectorTriple,
    dematricize,
    inner,
    matricize,
    read_tns,
    tucker_project,
    write_tns,
)

__version__ = "0.1.0"
