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
    PlaybackParams,
    SeriesBus,
    composite_outputs,
)
from .dera import (
    DERA_PRESETS,
    DerAParams,
    DerARefs,
    DerAState,
    DerATrackers,
    advance_trackers,
    dera_derivatives,
    dera_initialize,
    dera_outputs,
    frequency_trip,
    voltage_protection,
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
    MotorInit,
    MotorOutputs,
    MotorParams,
    MotorState,
    motor_algebra,
    motor_derivatives,
    motor_initialize,
)
from .sim import (
    IntegratorConfig,
    Scenario,
    Trajectory,
    build_scenario,
    grids_match,
    integrate,
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
    ElecTracker,
    ZipParams,
    elec_coefficient,
    elec_power,
    elec_tracker_init,
    elec_tracker_update,
    zip_power,
)

__version__ = "0.1.0"
