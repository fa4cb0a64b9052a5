"""Marginal-distribution substrate.

The paper's foreground process is obtained from the Gaussian background
by the inversion transform ``Y = h(X) = F_Y^{-1}(F_X(X))`` (eq. 7),
where ``F_Y`` is either an inverted empirical histogram (the paper's
choice) or a parametric model such as the Gamma/Pareto hybrid of
Garrett & Willinger.  This subpackage provides both, the transform
itself, and the attenuation-factor machinery of Appendix A.
"""

from .attenuation import (
    analytic_attenuation,
    hermite_coefficients,
    measured_attenuation,
    transformed_acf,
)
from .empirical import EmpiricalDistribution, HistogramDistribution
from .fitting import fit_gamma, fit_gamma_pareto, fit_pareto_tail
from .parametric import (
    GammaDistribution,
    GammaParetoDistribution,
    LognormalDistribution,
    MarginalDistribution,
    NormalDistribution,
    ParetoDistribution,
)
from .transform import (
    MarginalTransform,
    clear_transform_tables,
    transform_table_info,
)

__all__ = [
    "MarginalDistribution",
    "EmpiricalDistribution",
    "HistogramDistribution",
    "GammaDistribution",
    "ParetoDistribution",
    "GammaParetoDistribution",
    "LognormalDistribution",
    "NormalDistribution",
    "MarginalTransform",
    "transform_table_info",
    "clear_transform_tables",
    "analytic_attenuation",
    "measured_attenuation",
    "transformed_acf",
    "hermite_coefficients",
    "fit_gamma",
    "fit_pareto_tail",
    "fit_gamma_pareto",
]
