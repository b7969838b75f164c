"""ctrlkit: numerical controllability, stabilization, optimal control, and
spectral 1D PDE control."""

__version__ = "0.1.0"

from .numcore import (
    DenseOutput,
    DimensionError,
    GridError,
    IntegrationBlowup,
    Trajectory,
    expm,
    numerical_rank,
    simpson_grid,
)
from .lincontrol import (
    GramianReport,
    KalmanReport,
    LtiSystem,
    LtvSystem,
    NotControllableError,
    VectorField,
    VectorFieldSet,
    brunovski_form,
    controllable_decomposition,
    gramian,
    hautus_test,
    hum_control_finite,
    kalman_test,
    larc_rank,
    lie_bracket,
    ltv_kalman_test,
)
from .stabilize import (
    EquilibriumError,
    hurwitz,
    jurdjevic_quinn_feedback,
    linearize,
    lyapunov_solve,
    pole_place,
    routh,
    simulate_closed_loop,
)
from .optctrl import (
    Extremal,
    LqProblem,
    OcProblem,
    RiccatiBlowup,
    ShootingError,
    check_extremal,
    hamiltonian_maximizer_ball,
    hamiltonian_maximizer_box,
    hamiltonian_maximizer_unconstrained,
    integrate_extremal,
    lq_cost,
    lq_feedback,
    pmp_shoot,
    riccati_solve,
)
from .specpde import (
    IllPosedError,
    IntervalUnion,
    KTooLargeError,
    SemilinearPlant,
    SineBasis,
    WaveState,
    biorthogonal_family,
    boundary_observation_energy,
    damping_decay_experiment,
    heat_evolve,
    hum_wave_boundary,
    internal_wave_observation,
    moment_heat_control,
    periago_bound,
    semilinear_stabilize,
    semilinear_steps,
    sin2_mass,
    wave_evolve,
)
