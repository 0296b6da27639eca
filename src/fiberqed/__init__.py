"""Single-excitation dynamics and emission spectra of two fiber-linked
atom-cavity units.

The package models five coupled oscillators (two atoms, two nanofiber
cavities and the connecting fiber) sharing one quantum.  A state is a
complex numpy array of five amplitudes in model.BARE_MODES order;
normal_mode_matrix maps it to the normal modes (model.NORMAL_MODES
order).  The package provides the exact brute-force time evolution, the
normal-mode picture, the quasi-mode diagonalization with closed-form
fiber-dark amplitudes, limiting and perturbative solutions, and the
Lorentzian + interference decomposition of every emission spectrum.
All rates are in angular units of 2*pi*MHz.
"""

from .errors import (
    AccuracyWarning,
    ConfigInvalid,
    DegenerateBlock,
    DivergentIntegral,
    GridInvalid,
    LabelAmbiguous,
    RegimeWarning,
    SingularMatrix,
    UnlabeledModes,
)
from .model import (
    DerivedRates,
    SystemParams,
    bare_generator,
    derive_rates,
    normal_generator,
    normal_mode_matrix,
    single_excitation,
)
from .dynamics import (
    IntegratorConfig,
    Trajectory,
    evolve_bare,
    occupations,
)
from .eigen import (
    MODE_LABELS,
    QuasiModeDecomposition,
    fiber_dark_amplitudes,
    full_decomposition,
    full_decompositions,
)
from .perturb import (
    PerturbativeModes,
    atom_dominated_solution,
    cavity_coefficients,
    fiber_dominated_solution,
    perturbative_cavity_amplitudes,
    perturbative_symmetric,
)
from .spectra import (
    SpectrumDecomposition,
    channel_spectrum,
    default_omega_grid,
    integrated_spectrum,
    lorentzian_approximation,
    spectral_function,
)

__version__ = "0.1.0"
