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

from importlib import import_module

from ._version import VERSION as __version__

# Public names by home module.  They are imported on first use (PEP 562),
# so ``import delaylab`` loads no numerical module.
_EXPORTS = {
    "errors": ("DelayLabError", "PreconditionError", "ModelLookupError",
               "QuadratureError", "RootFindError", "NoExitInWindowError",
               "IntegrationError", "StepSizeUnderflowError",
               "ZUnderflowError", "MaxStepsExceededError", "UsageError"),
    "expr": ("ExpressionError", "ExprSyntaxError", "UnknownNameError",
             "DomainFaultError", "Expr", "parse", "evaluate"),
    "model": ("Model", "InitialData", "HypothesisCheck", "HypothesisReport",
              "builtin_names", "get_model", "model_from_expressions",
              "check_hypotheses", "validate_initial"),
    "numerics": ("QuadResult", "quad", "find_root"),
    "entryexit": ("EntryExitSolution", "SlowCurves", "solve_exit",
                  "slow_curves"),
    "integrate": ("Controls", "Section", "Trajectory",
                  "integrate_xz", "integrate_zeta", "min_z_exponent"),
    "geometry": ("SingularConfiguration", "ManifoldPatch",
                 "build_configuration", "build_manifolds",
                 "transversality_det", "hausdorff_distance",
                 "cycle_distance"),
    "experiment": ("SweepRecord", "SweepFailure", "SweepReport", "run_sweep",
                   "ProbeResult", "derivative_probe", "GapProfile",
                   "manifold_closeness"),
}
_ALIASES = {"quad": "integrate"}   # exported name -> name in its module
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__),
                    _ALIASES.get(name, name))
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
