"""Snake-shaped Givens factorizations of the multiplication operator on the
unit circle, closed-form entry evaluation, and Szego quadrature rules, with a
moment-based oracle for independent validation.

Each public name is imported from its module on first use and then kept
here, so ``import snakefact`` loads nothing numerical until a name that
needs NumPy is touched; the shape names come from ``snakefact.shape``
and ``SchurSequence`` from ``snakefact.parameters``, which never load it.
"""

import importlib

_HOMES = {
    "errors": ("ConvergenceError", "InvalidSchurParameter", "MomentError", "NumericalError",
               "ShapeError"),
    "expand": ("PathDescriptor", "entry", "expand_dense", "path"),
    "oracle": ("BernsteinSzego", "Geronimus", "GridMeasure", "Lebesgue", "MomentTable",
               "gram_schmidt_laurent", "inner_product", "matrix_entry_oracle", "moments",
               "multiplication_matrix", "schur_from_moments", "schur_parameters"),
    "parameters": ("SchurSequence",),
    "quadrature": ("ParaUnitaryTruncation", "QuadratureRule", "apply_rule", "eigen_unitary",
                   "exactness_defect", "principal_truncation", "szego_quadrature",
                   "truncate_para_unitary"),
    "schur": ("PolynomialPair", "dual", "evaluate_phi", "laurent_basis",
              "polynomial_pair", "szego_step"),
    "shape": ("GeneratingSequence", "bandwidths", "cmv_shape", "hessenberg_shape",
              "shape_from_monomials"),
    "snake": ("GivensFactor", "SnakeFactorization", "materialize_window"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
