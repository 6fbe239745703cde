"""Every 1-D phase transform holds its gain once, as one complex array
pair = cos alpha_k + j sin alpha_k that each route reads
(phasekit.phase._shift), and frac_differintegrate builds its gain in place.

The outputs are pinned bit for bit against the gain formed as separate
arrays: np.exp(-1j alpha) on the DFT basis, and the DCT-2 bins times cos and
times sin as two real halves of the DCT-3 on the DCT basis.  The tracemalloc
peak of each route is bounded against a call in the same process that runs
the same transforms, so the bound does not depend on what numpy's FFT
allocates itself."""
import tracemalloc

import numpy as np
import pytest

import phasekit as pk
from phasekit.phase import (_delay_kernel, _kernel_route, _periodic_convolve,
                            _quadrature_kernel, _reduce)
from phasekit.spectral import _dct2, apply_gain
from oracles import dct3_halves

# 4,099 is prime: a scalar profile there runs on the kernel route
LENGTHS = [1, 2, 9, 1000, 4099]
QUADRATURE = (0.0, 1.0)  # the pair (cos, sin) of the exact gain -j


def on_basis(x, basis, profile, pair=None):
    """The transform with its gain formed as separate arrays."""
    n = x.size
    period = n if basis == "dft" else 2 * n
    scalar = profile is None or (profile.kind != "per_bin" and np.size(profile.value) == 1)
    if _kernel_route(n) and scalar and profile is not None and profile.kind == "delay":
        return _periodic_convolve(x, _delay_kernel(period, _reduce(profile.value[0], period)))
    if pair is None:
        alphas = profile.bin_phases(n, basis)
        pair = np.cos(alphas), np.sin(alphas)
    cos, sin = pair
    if _kernel_route(n) and scalar:
        return cos * x + sin * _periodic_convolve(x, _quadrature_kernel(period))
    if basis == "dft":
        return apply_gain(x, complex(0.0, -1.0) if profile is None
                          else np.exp(-1j * profile.bin_phases(n, basis)))
    bins = _dct2(x)
    return dct3_halves(bins * cos, bins * sin)


def differintegrate_gain(x, mu, sample_rate):
    """frac_differintegrate's oscillatory part, its gain built in one expression."""
    n = x.size
    gain = np.zeros(n // 2 + 1, dtype=complex)
    k = np.arange(1, n // 2 + 1)
    scale = np.float64(sample_rate) ** mu
    gain[1:] = (2.0 * np.pi * k / n) ** mu * np.exp(1j * mu * np.pi / 2.0) * scale
    return apply_gain(x, gain)


def cases(n):
    rng = np.random.default_rng(n + 1)
    dft_phases, dct_phases = rng.uniform(-4, 4, n // 2 + 1), rng.uniform(-4, 4, n)
    delays = rng.uniform(-3, 3, n // 2)
    profile = pk.PhaseProfile
    yield "pt_dft constant", lambda x: pk.pt_dft(x, profile.constant(0.7)), \
        lambda x: on_basis(x, "dft", profile.constant(0.7))
    yield "pt_dft per-bin", lambda x: pk.pt_dft(x, profile.per_bin(dft_phases)), \
        lambda x: on_basis(x, "dft", profile.per_bin(dft_phases))
    yield "pt_dft pi/2", lambda x: pk.pt_dft(x, profile.constant(np.pi / 2)), \
        lambda x: on_basis(x, "dft", profile.constant(np.pi / 2))
    yield "pt_dct constant", lambda x: pk.pt_dct(x, profile.constant(0.7)), \
        lambda x: on_basis(x, "dct", profile.constant(0.7))
    yield "pt_dct per-bin", lambda x: pk.pt_dct(x, profile.per_bin(dct_phases)), \
        lambda x: on_basis(x, "dct", profile.per_bin(dct_phases))
    yield "pt_dct pi/2", lambda x: pk.pt_dct(x, profile.constant(np.pi / 2)), \
        lambda x: on_basis(x, "dct", profile.constant(np.pi / 2))
    yield "hilbert", pk.hilbert, lambda x: on_basis(x, "dft", None, QUADRATURE)
    yield "fcqt", pk.fcqt, lambda x: on_basis(x, "dct", None, QUADRATURE)
    yield "frac_delay_dft scalar", lambda x: pk.frac_delay_dft(x, 0.37), \
        lambda x: on_basis(x, "dft", profile.delay(0.37))
    yield "frac_delay_dft per-bin", lambda x: pk.frac_delay_dft(x, delays), \
        lambda x: on_basis(x, "dft", profile.delay(delays))
    yield "frac_delay_dct", lambda x: pk.frac_delay_dct(x, 0.37), \
        lambda x: on_basis(x, "dct", profile.delay(0.37))
    for mu in (0.37, -0.6, 1.0, 2.5):
        yield f"frac_differintegrate {mu}", \
            lambda x, mu=mu: pk.frac_differintegrate(pk.Signal(x, 7.0), mu,
                                                     include_dc_term=False), \
            lambda x, mu=mu: differintegrate_gain(x, mu, 7.0)


@pytest.mark.parametrize("n", LENGTHS)
def test_outputs_equal_the_gain_formed_as_separate_arrays(n):
    x = np.random.default_rng(n).standard_normal(n)
    for name, transform, reference in cases(n):
        got = transform(x).samples
        want = reference(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


PEAK_N = 1 << 16


def traced_peak(call) -> int:
    """tracemalloc's peak over one call, after a first call has filled the
    caches (the DCT twiddles, numpy's FFT plans)."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


DFT_PHASES = np.full(PEAK_N // 2 + 1, 0.7)
DCT_PHASES = np.full(PEAK_N, 0.7)
# (route, baseline, bound): the baseline runs the same FFTs, so the route's
# extra peak, in N float64 words, counts only the arrays that hold its gain:
# 1.0 where the gain array lives through the transform (the DFT basis and
# frac_differintegrate), 0.0 on the DCT basis, which releases the pair before
# the inverse (2.5, 2.5, 3.0, 3.0, 0.0 and 1.5 with the gain held as separate
# arrays; 2.0 for a per-bin DCT profile whose pair lived through the inverse)
PEAK_CASES = {
    "frac_delay_dft": (lambda x: pk.frac_delay_dft(x, 0.3), pk.hilbert, 1.5),
    "pt_dft per-bin": (lambda x: pk.pt_dft(x, pk.PhaseProfile.per_bin(DFT_PHASES)),
                       pk.hilbert, 1.5),
    "frac_delay_dct": (lambda x: pk.frac_delay_dct(x, 0.3), pk.fcqt, 0.5),
    "pt_dct per-bin": (lambda x: pk.pt_dct(x, pk.PhaseProfile.per_bin(DCT_PHASES)),
                       pk.fcqt, 0.5),
    "pt_dct constant": (lambda x: pk.pt_dct(x, pk.PhaseProfile.constant(0.7)), pk.fcqt, 0.5),
    "frac_differintegrate": (lambda x: pk.frac_differintegrate(x, 0.5, include_dc_term=False),
                             pk.hilbert, 1.25),
}


@pytest.mark.parametrize("name", PEAK_CASES)
def test_peak_above_the_same_transforms(name):
    route, baseline, bound = PEAK_CASES[name]
    x = np.random.default_rng(0).standard_normal(PEAK_N)
    extra = (traced_peak(lambda: route(x)) - traced_peak(lambda: baseline(x))) / (8 * PEAK_N)
    assert extra <= bound
