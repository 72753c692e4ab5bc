"""Double-pass return-probability protocols for coherently driven two- and
three-state quantum systems: numerical propagation of arbitrary pulsed
drives, the closed-form relations between single-pass and double-pass
probabilities, and protocol runners that invert measured return
probabilities into single-pass transition probabilities.
"""

from .drive import (
    DetuningShape,
    DriveProfile2,
    DriveProfile3,
    PulseShape,
    backward_profile_2,
    backward_profile_3,
    padded_window,
    pulse_area,
    sample_detuning,
    sample_rabi,
)
from .evolve import (
    CayleyKlein,
    TemplateMismatchError,
    cayley_klein,
    hamiltonian2,
    hamiltonian3,
    propagate,
    propagate_profile,
    sign_flip_transform,
    unitarity_defect,
)
from .harness import (
    MeasurementRecord,
    ProtocolKind,
    ProtocolPreconditionError,
    SweepSpec,
    run_protocol,
    sweep,
    verify,
    write_csv,
)
from .su2relations import (
    InversionRangeError,
    average_return,
    invert_p_const_detuning,
    invert_p_general,
    invert_p_rap,
    return_probability,
)
from .su3relations import (
    ResonantCK,
    backward_propagator,
    case1_return_probability,
    case2_return_probability,
    detuned_average_return,
    extract_resonant_ck,
    four_phase_average,
    general_average_return,
    invert_case1,
    invert_case2,
    invert_detuned,
    invert_general,
    resonant_propagator,
)

__version__ = "0.1.0"
