"""whdet: truncated Wiener-Hopf-plus-Hankel and Toeplitz-plus-Hankel
determinants for symbols with a single zero/pole or jump singularity,
their exact finite-size identities, and their large-truncation asymptotics.
"""

from .asymptotics import (
    AsymKind,
    AsymptoteSpec,
    ConvergenceTable,
    akhiezer_kac_E,
    asymptote_log,
    c_beta,
    convergence_table,
    d_n_exact,
    det_tn_exact,
    geometric_mean_log,
    ln_akhiezer_kac_E,
    ln_c_beta,
    ln_det_hankel_reg_exact,
)
from .errors import (
    ConstraintError,
    ConvergenceWarning,
    DomainError,
    PoleError,
    SingularMatrix,
    SingularPointError,
    WhdetError,
    ZeroError,
)
from .fredholm import (
    KernelFamily,
    KernelSpec,
    NystromOp,
    default_rule,
    finite_section_quotient,
    fredholm_logdet,
    kernel_eval,
    nystrom,
    quotient_identity,
)
from .expsum import CoeffSum, ExpSum, expsum_logdet, hankel_logdet
from .logdet import LogDet, logdet, rel_exp_diff
from .params import BetaContext, check_beta
from .quadrature import QuadRule, gauss_rule, geometric_ends
from .specfun import (
    barnes_ratio_asymptote,
    duplication_residual,
    ln_barnes_g,
    ln_barnes_ratio,
    ln_gamma,
)
from .structured import (
    RefinedLogDet,
    d_n,
    d_n_minors,
    fredholm_det_hankel_reg,
    hankel,
    hankel_section_inverse_det,
    toeplitz,
)
from .symbols import (
    CircleKind,
    CircleSymbol,
    LineKind,
    LineSymbol,
    cut_kernel,
    cut_rule,
    eval_circle,
    eval_line,
    fourier_coeff_u,
    fourier_coeff_v,
    jump_coeff_sum,
    reg_coeff_table,
    sech_kernel,
)
from .wienerhopf import (
    TruncatedWH,
    det_w2r,
    det_wr_pm_hr,
    reflected_union_rule,
    wh_rule,
)

__version__ = "0.1.0"
