"""Numerical laboratory for superelliptic period matrices, Riemann theta
functions with characteristics, Abel-Jacobi maps and Thomae-type identities."""

from .algebra import (INF, IndexSet, RootOfUnityTag, classify_root_of_unity,
                      pair_delta, vandermonde_delta)
from .curves import CurveSpec, CurveSpecError, Differential
from .theta import (Characteristic, RiemannMatrix, ThetaError, ThetaValue,
                    reduce_characteristic, theta_eval, theta_grad, theta_norm_abs,
                    theta_sums, truncation_radius)
from .periods import (PeriodData, PeriodError, SurfacePoint, build_periods)
from .homology import HomologyError
from .thomae import (AlphaEstimate, Partition, VerificationReport, char_from_partition_hyp,
                     char_from_partition_trig, enumerate_partitions_hyp,
                     enumerate_partitions_trig, estimate_alpha,
                     simple_zero_check, trig_alpha, verify_matrix_form_hyp,
                     verify_matrix_form_trig, verify_quotient_hyp,
                     verify_quotient_trig, verify_thomae_const_hyp,
                     verify_thomae_deriv_hyp, verify_thomae_deriv_trig_t1,
                     verify_thomae_deriv_trig_t2)

__version__ = "0.1.0"
