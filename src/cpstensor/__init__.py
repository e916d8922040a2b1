"""Conjugate partial-symmetric (CPS) complex tensor toolkit.

Structure predicates and Hermitian/skew splits, rank-one CPS decompositions
on a fixed design, pi-matricizations with rank-one equivalence, ADMM solvers
for the SDP and nuclear-norm relaxations of the best rank-one approximation
problem, and experiment drivers (radar quartic design, random CPS tensors,
largest US-eigenvalues).

The package logs to the ``cpstensor`` logger, silent unless the application
configures logging.
"""

import logging

from .errors import CpsTensorError
from .tensor import (
    CpsTerm,
    DenseTensor,
    EigenPair,
    PsTerm,
    assemble,
    cartesian_split,
    conj_form_eval,
    conj_transpose,
    frob_inner,
    hermitian_part,
    is_cps,
    is_ps,
    is_symmetric,
    load_tensor,
    partial_map,
    rank_one_cps,
    save_tensor,
    skew_part,
    symmetrize_ps,
    zero,
)
from .reshaping import (
    canonical_pi,
    dematricize_pi,
    extract_rank_one_vector,
    matricize,
    matricize_pi,
    pi_transpose,
    satisfies_conj_condition,
    satisfies_rank_condition,
    vectorize,
)
from .decompose import cps_decompose, ps_decompose
from .rank_one import (
    MatrixModel,
    SolveReport,
    best_rank_one_error,
    brute_force_max_eig,
    build_matrix_model,
    eigen_residual,
    solve_nuclear,
    solve_sdp,
)
from .applications import (
    RadarScenario,
    cps_from_sesqui_forms,
    default_scenario,
    radar_tensor,
    random_cps,
    shift_matrix,
    steering,
    us_eigen,
    us_lift,
    useig_benchmark,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__version__ = "0.1.0"
