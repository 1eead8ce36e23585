"""Exact combinatorics of extended affine Weyl groups: Newton points,
minimal-length reduction, Levi sub-Iwahori-Weyl groups, alcove tests,
and the cocenter of the generic affine Hecke algebra."""

from .errors import ConfigurationError, InputError, LogicError, ResourceError
from .root_datum import (
    Coweight, RootDatum, build_root_datum, coweight, parse_group_label,
)
from .affine_weyl import (
    AffineRoot, AffineWeylElement, AffineWeylGroup, act_on_affine_root,
    conjugate, element_str, inverse, is_positive_affine_root, multiply,
    parse_element,
)
from .newton import (
    NewtonIndex, is_straight, is_straight_by_powers, newton_index,
    newton_point, strata,
)
from .reduction import (
    ReductionPath, ReductionStep, StandardTriple, canonical_class_rep,
    canonical_min_rep, class_minimal_set, conj_step, is_conjugate,
    is_min_in_class, minimal_class, reduce_to_min, standard_triple,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
