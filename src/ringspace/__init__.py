"""Function-space machinery on the annulus {r < |z| < 1}.

Green's functions and harmonic measures by Fourier matching, Smirnov/Hardy/
Bergman inner products over a Laurent basis, reproducing kernels with
argument-principle zero counting, generalized Blaschke products and singular
inner functions with explicit period removal, constrained least-norm
extremal solvers, quasi-contractive divisors, and the numerical probes that
go with them.
"""

from .errors import (ArgumentError, ConvergenceError, GeometryError, PeriodError,
                     RingspaceError, SingularConstraintsError, SingularGramError,
                     SolverError, ZeroOnContourError)
from .geometry import INNER, OUTER, AnnulusDomain, boundary_nodes, make_annulus
from .harmonic import (GreenFunction, HarmonicRepresentation, analytic_completion,
                       conjugate_period, green, harmonic_measure, measure_density,
                       schottky, solve_dirichlet)
from .laurent import LaurentPolynomial, to_laurent
from .spaces import (SpaceKind, SpaceTag, bergman_tag, gram_matrix, hardy_tag,
                     inner_product, log_monomial_norms, monomial_norms, norm,
                     smirnov_tag)
from .kernels import (KernelEvaluator, ZeroReport, build_kernel, count_zeros, full_ring,
                      locate_zeros, reproduce_check)
from .inner import (AtomicSingularMeasure, DivisionBoundReport, InnerFunctionSpec,
                    InnerVerification, blaschke_factor, blaschke_product,
                    check_orthogonality, division_bound_check, multiply, qc_divisor,
                    schottky_fit, singular_inner, unit_inner, verify_inner)
from .extremal import (CandidateDivisor, DivisorReport, ExtremalProblem,
                       candidate_divisor, extremal_identity_check,
                       extremal_maximizer, polar_grid, quasicontract_estimate,
                       repro_fact_check, solve_extremal)
from .probes import (BiharmonicSolution, PolarGrid, bergman_decomposition_residual,
                     biharmonic_green, log_radial_moment)

__version__ = "0.1.0"
