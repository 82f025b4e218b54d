"""Numerical realization of the small-mass limit for damped stochastic wave equations.

The package integrates the second-order system

    mu u_tt = Lap u - gamma(u) u_t + f(u) + sigma(u) dW/dt

on an interval with Dirichlet conditions, together with its mu -> 0 limit,
a quasilinear parabolic equation carrying an explicit noise-induced drift,
and provides the coupled Monte Carlo machinery (common random numbers across
a mass ladder) to verify the convergence and the drift formulas, in both the
infinite-dimensional and the classical finite-dimensional settings.
"""

from .basis import DomainSpec, SpectralBasis, build_basis
from .models import (
    AntiderivativeMap,
    DiffusionModel,
    FrictionModel,
    ModelSet,
    Nodal,
    ReactionModel,
    build_diffusion,
    build_model_set,
    combined_drift,
    friction_preset,
    load_friction_csv,
    noise_induced_drift,
    reaction_preset,
    stratonovich_correction,
)
from .noise import (
    NoisePath,
    apply_noise,
    load_path,
    refine,
    refine_to,
    sample_batch,
    sample_path,
    save_path,
    zero_path,
)
from .wave import (
    SimulationDiverged,
    WaveSolver,
    WaveTrajectory,
    drive,
    g_coeffs,
)
from .limit import LimitSolver, LimitTrajectory
from .resolvent import (
    OperatorA,
    ResolventError,
    audit_operator,
    resolvent_apply,
    yosida_apply,
)
from .finite_dim import (
    FDNoise,
    FDSystem,
    compare_endpoints,
    fd_scalar_system,
    lyapunov_sweep,
    simulate_fd,
    simulate_fd_limit,
    solve_lyapunov,
)
from .diagnostics import (
    ConvergenceReport,
    DriftNecessityReport,
    MetricReport,
    ScalingAudit,
    convergence_report,
    drift_necessity_report,
    energy_records,
    lambda_functional,
    metric_distance,
    scaling_audit,
)
from .config import DEFAULTS, ConfigError, load_config, validate_config

__version__ = "0.1.0"
