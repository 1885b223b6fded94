"""Growth-rate analysis for persistently excited linear systems.

The package certifies Lie-algebraic rank conditions for feedback pairs,
computes worst-case exponential growth rates of ``x' = (A + alpha(t) B K) x``
over families of persistently exciting signals, and verifies the exact
time-reversal duality between convergence and divergence rates.
"""

from .matcore import (matrix_from_json, multiset_residual, nilpotent_shift,
                      opnorm, parity_matrix, unit_vector)
from .signals import PESignal, PEValidation, SignalClass, reverse, validate_pe
from .lie import (ChainAudit, LieBasis, RankCertificate, check_larc, check_larc0,
                  check_plarc, inclusion_chain_audit, lie_closure)
from .control import (AccCertificate, ControllabilityForm, MatrixPair,
                      NotControllableError, accessibility_certificate,
                      companion_coefficient_bounds, companion_gain,
                      controllability_matrix, controllable_form_si, kalman_rank)
from .rates import (DeltaReport, DualityGridReport, DualityReport, FamilyRates,
                    Monodromy, RateEstimate, SearchBudget, bang_bang_family,
                    constant_family, coordinate_invariance_check,
                    duality_check, duality_grid, family_rates,
                    fundamental_solution, mirror_family, monodromy,
                    parity_duality_check, rc_estimate, rd_estimate,
                    shift_law_check)
from .projective import (CircleArcSet, InvariantSetResult, SteerResult,
                         SteeringError, angle_of, forward_invariance_audit,
                         invariant_control_set_d2, point_of, proj_point,
                         steer_d2, steering_time_bound)
from . import spinchk

__version__ = "0.1.0"
