"""Geometric entanglement of single oscillators in continuous-variable graph states.

The library evaluates the closed-form degree law for the entanglement of one
harmonic oscillator against the rest of a Gaussian graph state, and carries a
full quadrature (Nystrom) solver for the underlying integral eigenproblem that
serves as the numerical arbiter for every closed form.
"""

from .closed_form import (
    EntanglementReport,
    KernelSpec,
    Spectrum,
    VertexRecord,
    closed_forms,
    entanglement,
    lambda_max,
    lambda_max_kappa_over_alpha,
    lambda_n,
    profile,
    purity,
    spectral_denominator,
    spectrum,
    spectrum_ratio,
)
from .graph import (
    GENERATOR_KINDS,
    EdgeListError,
    Graph,
    GraphGenSpec,
    GraphState,
    degree,
    generate,
    kappa,
    parse_edge_list,
    serialize_edge_list,
    validate,
)
from .numerics import (
    DiscretizedKernel,
    GridPolicy,
    NumericResult,
    QuadratureGrid,
    alternating_maximization,
    build_grid,
    discretize,
    eigenfunction_residual,
    kernel_value,
    numeric_entanglement,
    purity_numeric,
    reduce_full_state,
    top_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "EntanglementReport",
    "KernelSpec",
    "Spectrum",
    "VertexRecord",
    "closed_forms",
    "entanglement",
    "lambda_max",
    "lambda_max_kappa_over_alpha",
    "lambda_n",
    "profile",
    "purity",
    "spectral_denominator",
    "spectrum",
    "spectrum_ratio",
    "GENERATOR_KINDS",
    "EdgeListError",
    "Graph",
    "GraphGenSpec",
    "GraphState",
    "degree",
    "generate",
    "kappa",
    "parse_edge_list",
    "serialize_edge_list",
    "validate",
    "DiscretizedKernel",
    "GridPolicy",
    "NumericResult",
    "QuadratureGrid",
    "alternating_maximization",
    "build_grid",
    "discretize",
    "eigenfunction_residual",
    "kernel_value",
    "numeric_entanglement",
    "purity_numeric",
    "reduce_full_state",
    "top_eigenvalues",
    "__version__",
]
