"""crysred: exact arithmetic for mod-p symmetric-power modules of GL2(F_p),
Hecke-operator witness audits, and classification of semisimplified
crystalline reductions with fractional slope between 1 and 2."""

from .arith import (
    ApCoeff,
    ResidueExpr,
    choose_alphas,
    choose_betas,
    choose_gammas_alphas2,
    class_sum_S,
    class_sum_table,
    digit_sum,
    teichmuller,
)
from .classify import (
    CaseDescriptor,
    GaloisRep,
    StructurePrediction,
    case_descriptor,
    classify_reduction,
    llc_image,
    predict_dim_X,
    predict_Q_structure,
    predict_X_structure,
)
from .hecke import IndFunction, apply_T, apply_Tminus, apply_Tplus
from .symrep import (
    JHLabel,
    build_X,
    filtration_spaces,
    jh_decompose,
    quotient_Q,
    span_closure,
)
from .witness import WitnessCase, build_witness, verify_witness

__version__ = "0.1.0"

__all__ = [
    "ApCoeff", "ResidueExpr", "choose_alphas", "choose_betas",
    "choose_gammas_alphas2", "class_sum_S", "class_sum_table", "digit_sum",
    "teichmuller", "CaseDescriptor", "GaloisRep", "StructurePrediction",
    "case_descriptor", "classify_reduction", "llc_image", "predict_dim_X",
    "predict_Q_structure", "predict_X_structure", "IndFunction", "apply_T",
    "apply_Tminus", "apply_Tplus", "JHLabel", "build_X", "filtration_spaces",
    "jh_decompose", "quotient_Q", "span_closure", "WitnessCase",
    "build_witness", "verify_witness",
]
