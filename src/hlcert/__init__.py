"""Numerical certification workbench for multilinear mixed-norm inequalities on l_p^n.

Exact Khinchin constants, exponent/region calculators, dense m-linear form
tensors with mixed norms, certified operator-norm sandwiches, exact
Rademacher-chaos checks, and an end-to-end Monte-Carlo certifier with
reproducible seeds.
"""

from .certify import (
    CertificationReport,
    SearchResult,
    SweepRow,
    TrialConfig,
    certify,
    search_extremal,
    sweep_lambda0,
)
from .chaos import (
    ChainReport,
    ChaosMoment,
    ContractionReport,
    KhinchinReport,
    check_contraction,
    check_khinchin,
    rademacher_moment,
    steinhaus_moment,
    verify_proof_chain,
)
from .errors import (
    BudgetError,
    DomainError,
    SingularExponentError,
    TransferHypothesisError,
    ViolationError,
)
from .exponents import (
    ClassicalExponents,
    ExponentSet,
    Region,
    TransferProblem,
    TransferResult,
    classical_exponents,
    exponents,
    region,
    transfer,
)
from .norms import (
    NormEstimate,
    NormMethod,
    alternating_max,
    crude_upper,
    dual_norm_linear,
    exact_linf_enum,
)
from .special import (
    Branch,
    KhinchinConstant,
    ScalarField,
    khinchin_A,
    solve_q0,
)
from .tensor import (
    FormTensor,
    evaluate,
    generate,
    mixed_norm,
    tensor_from_json,
    tensor_to_json,
)

__version__ = "0.1.0"
