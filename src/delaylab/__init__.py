"""delaylab: a numerical laboratory for bifurcation delay in planar
slow-fast systems.

The fast variable z multiplies its own rate (dz/dt = g(x, z, eps) z),
so z collapses toward 0 while x drifts slowly across the line g = 0
and the loss of stability expresses itself only after a delay.  The
package computes the eps = 0 exit point and delay exponents, the
candidate cycle and invariant-manifold geometry at eps = 0, and
integrates finite-eps trajectories in a logarithmic chart that stays
well-conditioned while z is smaller than any double.
"""

from ._version import VERSION as __version__
from .errors import (DelayLabError, IntegrationError, MaxStepsExceededError,
                     ModelLookupError, NoExitInWindowError, PreconditionError,
                     QuadratureError, RootFindError, StepSizeUnderflowError,
                     UsageError, ZUnderflowError)
from .expr import (DomainFaultError, Expr, ExpressionError, ExprSyntaxError,
                   UnknownNameError, evaluate, parse)
from .model import (HypothesisCheck, HypothesisReport, InitialData, Model,
                    builtin_names, check_hypotheses, get_model,
                    model_from_expressions, validate_initial)
from .numerics import QuadResult, find_root
from .numerics import integrate as quad
from .entryexit import (EntryExitSolution, SlowCurves, slow_curves,
                        solve_exit, tau_minus_at, tau_plus_at, zeta_minus_at,
                        zeta_plus_at)
from .integrate import (Controls, Event, Section, Trajectory, integrate_xz,
                        integrate_zeta, min_z_exponent, z_of_zeta)
from .geometry import (ManifoldPatch, SingularConfiguration,
                       build_configuration, build_manifolds, cycle_distance,
                       hausdorff_distance, transversality_det)
from .experiment import (GapProfile, ProbeResult, SweepFailure, SweepRecord,
                         SweepReport, derivative_probe, manifold_closeness,
                         run_sweep)

__all__ = [
    "__version__",
    # errors
    "DelayLabError", "ExpressionError", "ExprSyntaxError",
    "UnknownNameError", "DomainFaultError", "PreconditionError",
    "ModelLookupError", "QuadratureError", "RootFindError",
    "NoExitInWindowError", "IntegrationError", "StepSizeUnderflowError",
    "ZUnderflowError", "MaxStepsExceededError", "UsageError",
    # expressions
    "Expr", "parse", "evaluate",
    # models
    "Model", "InitialData", "HypothesisCheck", "HypothesisReport",
    "builtin_names", "get_model", "model_from_expressions",
    "check_hypotheses", "validate_initial",
    # numerics
    "QuadResult", "quad", "find_root",
    # eps = 0 exit problem
    "EntryExitSolution", "SlowCurves", "solve_exit", "slow_curves",
    "zeta_minus_at", "zeta_plus_at", "tau_minus_at", "tau_plus_at",
    # integration
    "Controls", "Section", "Event", "Trajectory", "integrate_xz",
    "integrate_zeta", "min_z_exponent", "z_of_zeta",
    # geometry
    "SingularConfiguration", "ManifoldPatch", "build_configuration",
    "build_manifolds", "transversality_det", "hausdorff_distance",
    "cycle_distance",
    # experiments
    "SweepRecord", "SweepFailure", "SweepReport", "run_sweep",
    "ProbeResult", "derivative_probe", "GapProfile", "manifold_closeness",
]
