"""Finite-precision p-adic, ray-class and Kummer-theoretic computations
over Q and real quadratic fields."""

__version__ = "0.1.0"

from .padic import PAdicNumber, PrecisionError, teichmueller
from .ntheory import InternalCheckError
from .abgroup import (FiniteAbelianGroup, GroupElement, smith_normal_form,
                      smith_presentation, element_order, subgroup_image_order,
                      decompose_abelian)
from .quadfield import (RealQuadraticField, FieldElement, IntegralIdeal,
                        SUnitBasisData, factor_rational_prime, class_group,
                        fundamental_unit, principal_generator,
                        ideal_valuation, prime_ideals_above, rational_ideal)
from .rayclass import ray_class_group
from .localize import (RankReport, SUnitProduct, completions_above_p, loc,
                       is_loc_torsion, eq_membership)
from .classfield import (GaloisGroupG, group_G, frobenius_image, e_of_q,
                         even_criterion)
from .iwasawa import (FrobeniusModuleReport, LeopoldtReport,
                      is_inert_in_cyclotomic, mq_generator, mq_order,
                      leopoldt_defect, greenberg_wiles,
                      defect_never_one_scan)
from .kummer import (KummerCertificate, construct_alpha, verify_alpha,
                     kummer_rank)

__all__ = [
    "PAdicNumber", "PrecisionError", "teichmueller",
    "InternalCheckError",
    "FiniteAbelianGroup", "GroupElement", "smith_normal_form",
    "smith_presentation", "element_order", "subgroup_image_order",
    "decompose_abelian",
    "RealQuadraticField", "FieldElement", "IntegralIdeal", "SUnitBasisData",
    "SUnitProduct", "factor_rational_prime", "class_group",
    "fundamental_unit", "principal_generator",
    "ray_class_group", "ideal_valuation", "prime_ideals_above",
    "rational_ideal",
    "RankReport", "completions_above_p", "loc", "is_loc_torsion",
    "eq_membership",
    "GaloisGroupG", "group_G", "frobenius_image", "e_of_q", "even_criterion",
    "FrobeniusModuleReport", "LeopoldtReport", "is_inert_in_cyclotomic",
    "mq_generator", "mq_order", "leopoldt_defect", "greenberg_wiles",
    "defect_never_one_scan",
    "KummerCertificate", "construct_alpha", "verify_alpha", "kummer_rank",
]
