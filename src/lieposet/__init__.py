"""Exact-arithmetic engine for type-A Lie poset algebras: posets,
incidence-algebra brackets, one-form analysis (index, Frobenius,
contact), the toral building-block catalog with gluing rules, and a CLI
workbench."""

from .algebras import (
    AlgebraElement,
    JacobiError,
    LieAlgebra,
    PosetLieAlgebra,
    build_custom,
    build_g,
    build_gA,
)
from .forms import (
    ContactResult,
    FormError,
    KernelReport,
    NotFrobeniusError,
    OneForm,
    index,
    is_binary_spectrum,
    is_contact_form,
    is_contact_form_volume,
    is_small,
    kernel,
    principal_element,
    spectrum,
    udo_partition,
)
from .linalg import ShapeError
from .posets import CycleError, ExtremalData, Poset, PosetError, UnsupportedSizeError

__version__ = "0.1.0"
