"""Decay dynamics near a bound state in continuum on a side-coupled chain."""

__version__ = "0.1.0"

from .model import (ConfigError, InvalidParameterError, ModelParams, NumericalError,
                    StateVector, TruncatedHamiltonian, bic_state, hamiltonian,
                    perp_state, w_state)
from .spectrum import (DiscreteState, ResonancePole, RootFindError, SheetTag,
                       StateKind, Timescales, discrete_spectrum,
                       resonance_expansion, self_energy, sigma1,
                       spectrum_report, timescales, w_norm_sq, z_gap)
from .evolve import (AmplitudeSeries, EvolveOptions, IntegratorError,
                     ProbabilitySeries, auto_sites, evolve, nonescape,
                     survival)
from .closedform import (DivergenceError, DomainError,
                         a_br_quadrature, a_w_cut, a_w_poles, a_w_rays,
                         bessel_exact_grid, bound_term, early_approx,
                         far_zone_coefficient, far_zone_prob, near_zone_amp,
                         near_zone_prob, res_pole_1d, res_pole_perp,
                         w_far_zone, w_far_zone_coefficient, w_near_zone_g1)
from .analysis import (FitKind, FitReport, TooFewPeaksError, find_peaks,
                       find_troughs, fit_exponential, fit_phase,
                       fit_power_law, oscillation_contrast)
