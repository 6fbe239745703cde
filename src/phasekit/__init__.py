"""Phase transforms and friends: arbitrary phase shifts of signals and images,
fractional delay, fractional-order differintegration, and wavelet phase
transforms, all through explicit spectral kernels."""

__version__ = "0.1.0"

from .spectral import (
    Signal,
    Spectrum,
    FourierSeriesCoeffs,
    ModulationSpec,
    Image,
    dft,
    idft,
    dct2_forward,
    dct2_inverse,
    dft2d,
    idft2d,
    harmonic_series,
    gfr_synthesize,
)
from .phase import (
    PhaseProfile,
    pt_kernel,
    pt_dft,
    hilbert,
    analytic_signal,
    fcqt,
    pt_dct,
    pt_sweep,
)
from .fractional import (
    frac_delay_dft,
    frac_delay_dct,
    frac_differintegrate,
)
from .wavelet import (
    MorseWavelet,
    ScaleGrid,
    Scalogram,
    morse_spectrum,
    awt,
    cpsi_delta,
    wavelet_analytic_signal,
    wpt,
    wqt,
)
from .image import (
    HalfPlaneMask,
    pt2d,
    analytic2d,
)

__all__ = [
    "__version__",
    "Signal", "Spectrum", "FourierSeriesCoeffs",
    "ModulationSpec", "Image",
    "dft", "idft", "dct2_forward", "dct2_inverse", "dft2d", "idft2d",
    "analytic_signal", "harmonic_series", "gfr_synthesize",
    "PhaseProfile", "pt_kernel", "pt_dft", "hilbert",
    "fcqt", "pt_dct", "pt_sweep",
    "frac_delay_dft", "frac_delay_dct", "frac_differintegrate",
    "MorseWavelet", "ScaleGrid", "Scalogram", "morse_spectrum", "awt",
    "cpsi_delta", "wavelet_analytic_signal", "wpt", "wqt",
    "HalfPlaneMask", "pt2d", "analytic2d",
]
