"""n-party Hardy states, nonlocality bounds and self-testing checks."""

from .behavior import (BehaviorTensor, MeasurementSet, check_no_signaling,
                       hardy_statistics, joint_distribution,
                       measurements_from_observables, measurements_from_pairs)
from .linalg import StateVector, eig_herm
from .npa import (MomentProblem, build_moment_problem, canonical_monomial,
                  monomial_list, npa_upper_bound)
from .polytope import local_max, nosignaling_max
from .sdp import MomentSolution, sdp_solve
from .selftest import (JordanBlock, SelfTestReport, canonical_measurements,
                       jordan_blocks, selftest_report)
from .states import (MeasurementPair, PmaxResult, hardy_state,
                     is_genuinely_entangled, pmax)
from .variational import LowerBoundResult, ansatz, lower_bound

__version__ = "0.1.0"
