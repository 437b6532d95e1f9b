"""Snake-shaped Givens factorizations of the multiplication operator on the
unit circle, closed-form entry evaluation, and Szego quadrature rules, with a
moment-based oracle for independent validation."""

from .errors import (
    ConvergenceError,
    InvalidSchurParameter,
    MomentError,
    NumericalError,
    ShapeError,
)
from .expand import PathDescriptor, bandwidths, entry, expand_dense, path
from .oracle import (
    BernsteinSzego,
    Geronimus,
    GridMeasure,
    Lebesgue,
    MomentTable,
    gram_schmidt_laurent,
    inner_product,
    matrix_entry_oracle,
    moments,
    multiplication_matrix,
    schur_from_moments,
)
from .quadrature import (
    ParaUnitaryTruncation,
    QuadratureRule,
    apply_rule,
    eigen_unitary,
    exactness_defect,
    principal_truncation,
    szego_quadrature,
    truncate_para_unitary,
)
from .schur import (
    PolynomialPair,
    SchurSequence,
    dual,
    evaluate_phi,
    laurent_basis,
    polynomial_pair,
    szego_step,
)
from .snake import (
    GeneratingSequence,
    GivensFactor,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
    materialize_window,
    shape_from_monomials,
)

__version__ = "0.1.0"
