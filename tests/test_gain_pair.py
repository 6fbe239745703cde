"""Every 1-D phase transform holds its gain once, as one complex array
pair = cos alpha_k + j sin alpha_k that each route reads
(phasekit.phase._shift), and frac_differintegrate builds its gain and its
mean term in place.

The outputs are pinned bit for bit against the gain formed as separate
arrays: np.exp(-1j alpha) on the DFT basis (on a kernel-route length, its
N-point inverse is the kernel of one convolution), and on the DCT basis the
DCT-2 bins times cos and times sin as two real halves of the DCT-3, or for a
scalar pair cos x + sin q with the quadrature q resynthesized through one
real irfft.  The tracemalloc peak of each route is bounded against a call
in the same process that runs the same transforms, so the bound does not
depend on what numpy's FFT allocates itself; the one-sided DCT inverses,
whose point is their smaller peak, are also bounded whole."""
import tracemalloc

import numpy as np
import pytest

import phasekit as pk
from phasekit.fractional import _rgamma
from phasekit.phase import (_delay_kernel, _kernel_route, _periodic_convolve,
                            _quadrature_kernel, _reduce)
from phasekit.spectral import _dct2, _dct3_pair, apply_gain
from oracles import dct3_halves, dct3_sine

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
        return dft_gain(x, complex(0.0, -1.0) if profile is None
                        else np.exp(-1j * profile.bin_phases(n, basis)))
    bins = _dct2(x)
    if np.ndim(cos) == 0:
        return cos * x + sin * dct3_sine(bins)
    return dct3_halves(bins * cos, bins * sin)


def dft_gain(x, gain):
    """A DFT-basis gain as the route runs it: on a kernel-route length, one
    convolution with the gain's N-point inverse as its kernel.  The route
    itself is checked against apply_gain and the O(N^2) oracle in
    test_kernel_route.py; here it only carries the gain formed apart."""
    if _kernel_route(x.size):
        return _periodic_convolve(x, np.fft.irfft(gain, x.size))
    return apply_gain(x, gain)


def differintegrate_gain(x, mu, sample_rate):
    """frac_differintegrate's oscillatory part, its gain built in one expression."""
    n = x.size
    gain = np.zeros(n // 2 + 1, dtype=complex)
    k = np.arange(1, n // 2 + 1)
    scale = np.float64(sample_rate) ** mu
    gain[1:] = (2.0 * np.pi * k / n) ** mu * np.exp(1j * mu * np.pi / 2.0) * scale
    return dft_gain(x, gain)


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


def two_sided_dct(x):
    """The two-sided DCT inverse of a complex spectrum, as per-bin DCT profiles run it."""
    return _dct3_pair(_dct2(x) * 1j)


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
    "frac_delay_dct": (lambda x: pk.frac_delay_dct(x, 0.3), two_sided_dct, 0.5),
    "pt_dct per-bin": (lambda x: pk.pt_dct(x, pk.PhaseProfile.per_bin(DCT_PHASES)),
                       two_sided_dct, 0.5),
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


ROUTE_N = 65537  # prime: every DFT-basis gain runs on the kernel route
ROUTE_PHASES = np.full(ROUTE_N // 2 + 1, 0.7)

# call on x: on the kernel route a per-bin DFT gain and the differintegration
# gain are freed once their kernel irfft(gain, N) is built, so each peak is
# hilbert's, whose closed-form kernel has no gain array beside it (1.0 N
# words more while the gain lived through the convolution)
ROUTE_PEAK_CASES = {
    "pt_dft per-bin": lambda x: pk.pt_dft(x, pk.PhaseProfile.per_bin(ROUTE_PHASES)),
    "frac_differintegrate": lambda x: pk.frac_differintegrate(x, 0.5, include_dc_term=False),
}


@pytest.mark.parametrize("name", ROUTE_PEAK_CASES)
def test_kernel_route_peak_frees_the_gain(name):
    x = np.random.default_rng(0).standard_normal(ROUTE_N)
    route = ROUTE_PEAK_CASES[name]
    extra = (traced_peak(lambda: route(x)) - traced_peak(lambda: pk.hilbert(x))) / (8 * ROUTE_N)
    assert extra <= 0.25


# (call on x, bound): the whole traced peak of a one-sided DCT inverse in N
# float64 words, numpy's FFT outputs included: the N//2 + 1 bins v and the
# irfft's output (the inverse returns them in v's buffer), and for the
# quadrature and a constant phase the DCT-2 bins beside them, then the two
# products of cos x + sin q (6.0 and 7.0 words through the two-sided inverse)
ONE_SIDED_PEAKS = {
    "dct2_inverse": (lambda x: pk.dct2_inverse(pk.Spectrum(x, "dct2", 1.0)), 2.1),
    "fcqt": (pk.fcqt, 3.1),
    "pt_dct constant": (lambda x: pk.pt_dct(x, pk.PhaseProfile.constant(0.7)), 3.1),
}


@pytest.mark.parametrize("name", ONE_SIDED_PEAKS)
def test_one_sided_dct_peak(name):
    call, bound = ONE_SIDED_PEAKS[name]
    x = np.random.default_rng(0).standard_normal(PEAK_N)
    assert traced_peak(lambda: call(x)) / (8 * PEAK_N) <= bound


def mean_term_apart(sig, mu, physical):
    """The differintegral as its oscillatory part plus the mean term formed as
    its own array, a0 t^{-mu} / Gamma(1 - mu) with t = n / rate."""
    out = pk.frac_differintegrate(sig, mu, physical=physical, include_dc_term=False).samples
    t = np.arange(sig.samples.size) / (np.float64(sig.sample_rate) if physical else 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0^{-mu} times 1/Gamma(0) at t = 0
        dc = float(np.mean(sig.samples)) * t ** (-mu) * _rgamma(1.0 - mu)
    if mu > 0:
        dc[0] = 0.0
    return out + dc


@pytest.mark.filterwarnings("ignore:mean term of a fractional derivative:RuntimeWarning")
@pytest.mark.parametrize("n", LENGTHS)
def test_mean_term_in_place_equals_it_formed_apart(n):
    # the exponents 2, 1, 0.5 and -1 are the ones numpy's ** maps to square,
    # a copy, sqrt and reciprocal; np.power(t, -mu, out=t) must match them too
    x = np.random.default_rng(n).standard_normal(n) - 1.3
    for mu in (-2.5, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.7):
        for physical in (True, False):
            sig = pk.Signal(x, 7.0)
            got = pk.frac_differintegrate(sig, mu, physical=physical).samples
            want = mean_term_apart(sig, mu, physical)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (mu, physical)


def test_mean_term_peak():
    # the mean term is built in the bytes of its time axis t and the sum
    # lands there too: 0.12 N words above the call without it (1.0 when
    # a0 t^{-mu}, its product with 1/Gamma(1 - mu) and the sum were arrays)
    x = np.random.default_rng(0).standard_normal(PEAK_N) + 0.7
    with_dc = traced_peak(lambda: pk.frac_differintegrate(x, -0.5))
    without = traced_peak(lambda: pk.frac_differintegrate(x, -0.5, include_dc_term=False))
    assert (with_dc - without) / (8 * PEAK_N) <= 0.5
