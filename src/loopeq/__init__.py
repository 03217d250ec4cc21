"""Loop equations of matrix eigenvalue measures, at desk scale.

Exact generators of the loop-equation polynomials, reduction of moment
functionals to their finite free basis, numerical contour moment functionals
with an isomorphism witness, and independent combinatorial cross-checks
(Gaussian Wick calculus, map generating series, saddle-point discriminators).
"""

from .exact import CRational, MPoly
from .symfunc import (
    Partition,
    PowerSumPoly,
    compositions,
    eval_powersum,
    partitions_in_box,
    partitions_of_weight,
    reduce_length,
)
from .loopgen import Potential, TwoPotential, q_polynomial, q_rational, q_twomatrix, symbolic_two_potential
from .momsolve import (
    LoopReducer,
    MomentFunctional,
    ResidualReport,
    hn_dimension,
    loop_tuples,
    residuals,
    solve_moments,
)
from .contours import (
    AdmissibilityReport,
    Contour,
    Deformation,
    HomologyClass,
    Sector,
    admissibility_check,
    basis_arcs,
    circle_contour,
    circle_power_class,
    deform,
    imaginary_axis_contour,
    real_axis_contour,
    real_power_class,
    sectors,
)
from .quadrature import (
    MomentMatrix,
    MomentTable,
    QuadratureError,
    arc_moment,
    expectation,
    moment_matrix,
    oracle_from_quadrature,
)
from .wick import MapSeries, gaussian_trace_moment, map_series, tutte_residual
from .discriminator import (
    DiscriminatorEngine,
    DiscriminatorReport,
    SaddleSet,
    discriminator_report,
    lagrange_f,
    saddle_points,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
