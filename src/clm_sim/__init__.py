"""Deterministic simulation of the WECC composite load model.

Components: fifth-order three-phase induction motors (classes A/B/C), the
DER_A aggregate distributed-energy-resource model, ZIP static load and the
electronic load with low-voltage disconnection. A fixed-step integrator
drives them from scripted bus-voltage/frequency disturbances and records
comparable trajectories.
"""

from .composite import (
    ConstantBus,
    LoadMix,
    PlaybackBus,
    SeriesBus,
)
from .dera import (
    DERA_PRESETS,
    DerAParams,
    DerARefs,
    DerAState,
    DerATrackers,
    dera_algebra,
    dera_initialize,
    dera_memory,
    dera_rhs,
)
from .errors import (
    ChannelError,
    ClmSimError,
    ConfigError,
    FileFormatError,
    GridMismatch,
    InfeasibleInit,
    NoEquilibrium,
    NonFiniteInput,
    NonFiniteState,
    OutOfRange,
    PresetError,
)
from .motor3 import (
    MOTOR_PRESETS,
    MotorParams,
    MotorState,
    motor_initialize,
    motor_kernel,
)
from .sim import (
    IntegratorConfig,
    Scenario,
    Trajectory,
    grids_match,
    mse,
    read_binary,
    read_csv,
    resample,
    run_simulation,
    write_binary,
    write_csv,
)
from .staticloads import (
    ElecParams,
    ZipParams,
    elec_power_at,
    elec_vmin_update,
    zip_power,
)

# Last: imported first, config (with yaml) raised the import's peak RSS by about 0.4 MB.
from .config import build_scenario

__version__ = "0.1.0"
