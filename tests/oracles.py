"""Independent reference implementations used to pin expected test values.

Everything here is written as literal summation or closed-form evaluation,
deliberately avoiding the library's fast paths (and scipy.fft), so each test
compares two genuinely different routes to the same quantity.
"""
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn


def _by_rows(n, rows_of):
    """Concatenate rows_of(r) over blocks r (a column of output indices) of
    0..n-1: each O(N^2) sum below holds one block of its matrix at a time,
    so N = 8198 needs tens of MB instead of gigabytes."""
    return np.concatenate([rows_of(np.arange(start, min(start + 512, n))[:, None])
                           for start in range(0, n, 512)])


def _quarter_turns(n):
    """(cos, sin) of pi j / 2N for j = 0..4N-1.  The DCT sums below index
    them with the integer k (2m + 1) mod 4N, which is exact, instead of
    evaluating a trigonometric function at an argument that grows to about
    pi N and carries its rounding error; the DFT sums reduce k m mod N alike."""
    angle = np.pi * np.arange(4 * n) / (2.0 * n)
    return np.cos(angle), np.sin(angle)


def dft_direct(x):
    """O(N^2) forward DFT with 1/N on the analysis sum."""
    x = np.asarray(x)
    n = x.size
    k = np.arange(n)
    twiddle = np.exp(-2j * np.pi * k / n)
    return _by_rows(n, lambda rows: twiddle[rows * k % n] @ x) / n


def idft_direct(bins):
    """O(N^2) inverse of :func:`dft_direct`."""
    bins = np.asarray(bins)
    n = bins.size
    k = np.arange(n)
    twiddle = np.exp(2j * np.pi * k / n)
    return _by_rows(n, lambda rows: twiddle[rows * k % n] @ bins)


def dct2_direct(x):
    """O(N^2) orthonormal DCT-2."""
    x = np.asarray(x, dtype=float)
    n = x.size
    m = np.arange(n)
    cos, _ = _quarter_turns(n)

    def rows_of(k):
        sigma = np.where(k == 0, 1.0 / np.sqrt(2.0), 1.0)
        return (sigma * cos[k * (2 * m + 1) % (4 * n)]) @ x
    return np.sqrt(2.0 / n) * _by_rows(n, rows_of)


def idct2_direct(bins):
    """O(N^2) inverse orthonormal DCT-2."""
    bins = np.asarray(bins, dtype=float)
    n = bins.size
    k = np.arange(n)
    sigma = np.where(k == 0, 1.0 / np.sqrt(2.0), 1.0)
    cos, _ = _quarter_turns(n)
    return np.sqrt(2.0 / n) * _by_rows(n, lambda m: (sigma * cos[k * (2 * m + 1) % (4 * n)]) @ bins)


def fcqt_direct(x):
    """O(N^2) sine resynthesis of the DCT-2 coefficients (no sigma factor)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    bins = dct2_direct(x)
    k = np.arange(n)
    _, sin = _quarter_turns(n)
    return np.sqrt(2.0 / n) * _by_rows(n, lambda m: sin[k * (2 * m + 1) % (4 * n)] @ bins)


def pt_dct_direct(x, alphas):
    """O(N^2) DCT-domain phase transform with per-bin phases:
    cos(t - alpha) = cos t cos alpha + sin t sin alpha, t = pi k (2m+1) / 2N."""
    x = np.asarray(x, dtype=float)
    n = x.size
    bins = dct2_direct(x)
    k = np.arange(n)
    sigma = np.where(k == 0, 1.0 / np.sqrt(2.0), 1.0)
    cos, sin = _quarter_turns(n)
    alphas = np.asarray(alphas)
    in_phase, quadrature = sigma * np.cos(alphas) * bins, sigma * np.sin(alphas) * bins

    def rows_of(m):
        turns = k * (2 * m + 1) % (4 * n)
        return cos[turns] @ in_phase + sin[turns] @ quadrature
    return np.sqrt(2.0 / n) * _by_rows(n, rows_of)


def dct3_halves(a, b):
    """The N-point DCT-3 pair as two real halves: y = DCT-3 of a on the
    cosine basis plus b on the sine basis, operation for operation as
    phasekit computed it when the cosine and sine halves were two real arrays
    (Makhoul's folding into one complex ``ifft``).  Not an independent
    route: a bit-for-bit reference for the one complex spectrum a + jb."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.size
    half = (n + 1) // 2
    twiddles = np.empty(n, dtype=complex)
    angle = np.arange(n) * (np.pi / (2 * n))
    np.cos(angle, out=twiddles.real)
    np.sin(angle, out=twiddles.imag)
    twiddles *= np.sqrt(0.5 / n)
    twiddles[0] = np.sqrt(1.0 / n)
    out = np.empty(n)
    v = np.empty(n, dtype=complex)
    np.add(a, b, out=v.real)
    np.subtract(b[:0:-1], a[:0:-1], out=v.imag[1:])
    v[0] = a[0]
    v *= twiddles
    u = np.fft.ifft(v, norm="forward")
    np.add(u.real[:half], u.imag[:half], out=out[::2])
    np.subtract(u.real[:half - 1:-1], u.imag[:half - 1:-1], out=out[1::2])
    return out


def dct3_sine(b):
    """The N-point resynthesis of real b on the sine basis, sqrt(2/N)
    sum_k b[k] sin(pi k (2n+1) / 2N), through one real ``irfft``: (-1)^n
    times the DCT-3 of d = (0, b[N-1], ..., b[1]), whose Hermitian half
    v[k] = e^{j pi k / 2N} (d[k] - j d[N-k]) / 2 is formed from a real and
    an imaginary array built apart.  Not an independent route: a bit-for-bit
    reference for the one-sided inverse of the N-point DCT route."""
    b = np.asarray(b, dtype=float)
    n = b.size
    half, bins = (n + 1) // 2, n // 2 + 1
    twiddles = np.empty(bins, dtype=complex)
    angle = np.arange(bins) * (np.pi / (2 * n))
    np.cos(angle, out=twiddles.real)
    np.sin(angle, out=twiddles.imag)
    twiddles *= np.sqrt(0.5 / n)
    twiddles[0] = np.sqrt(1.0 / n)
    d = np.concatenate(([0.0], b[:0:-1]))
    real = d[:bins]
    imag = np.concatenate(([0.0], -b[1:bins]))  # -d[N-k]
    v = np.empty(bins, dtype=complex)
    v.real, v.imag = real, imag
    v *= twiddles
    u = np.fft.irfft(v, n, norm="forward")
    out = np.empty(n)
    out[::2] = u[:half]
    out[1::2] = -u[:half - 1:-1]
    return out


def dft2d_direct(g):
    """Direct separable 2-D DFT with 1/(M N) on the forward transform."""
    g = np.asarray(g)
    rows, cols = g.shape
    fr = np.exp(-2j * np.pi * np.outer(np.arange(rows), np.arange(rows)) / rows)
    fc = np.exp(-2j * np.pi * np.outer(np.arange(cols), np.arange(cols)) / cols)
    return fr @ g @ fc.T / (rows * cols)


def idft2d_direct(grid):
    grid = np.asarray(grid)
    rows, cols = grid.shape
    fr = np.exp(2j * np.pi * np.outer(np.arange(rows), np.arange(rows)) / rows)
    fc = np.exp(2j * np.pi * np.outer(np.arange(cols), np.arange(cols)) / cols)
    return fr @ grid @ fc.T


def signed_frequency(k, n):
    """Map DFT bin k of an N-point transform to its signed integer frequency."""
    return k if k <= n // 2 else k - n


def pt_dft_direct(x, alpha):
    """O(N^2) phase transform: e^{-j alpha_|f| sign(f)} on the DFT bins,
    cos(alpha_0) on the DC bin and cos(alpha_{N/2}) on the Nyquist bin of an
    even length; alpha is one phase, or one per bin 0..N//2."""
    x = np.asarray(x, dtype=float)
    n = x.size
    freqs = np.array([signed_frequency(k, n) for k in range(n)])
    alphas = np.broadcast_to(np.asarray(alpha, dtype=float), (n // 2 + 1,))[np.abs(freqs)]
    mask = np.exp(-1j * alphas * np.sign(freqs))
    mask[freqs == 0] = np.cos(alphas[freqs == 0])
    if n % 2 == 0:
        mask[n // 2] = np.cos(alphas[n // 2])
    return idft_direct(dft_direct(x) * mask).real


def gain_direct(x, gains):
    """O(N^2) one-sided gains on real samples: each column of ``gains``, one
    value per bin 0..N//2, acts on the DFT bins of frequency f >= 0 and its
    conjugate on f < 0, only its real part on DC and on the Nyquist bin of an
    even length; one output column per column of gains."""
    x = np.asarray(x, dtype=float)
    n = x.size
    freqs = np.array([signed_frequency(k, n) for k in range(n)])
    mask = np.asarray(gains, dtype=complex).reshape(n // 2 + 1, -1)[np.abs(freqs)]
    mask[freqs < 0] = np.conj(mask[freqs < 0])
    edges = (freqs == 0) | (2 * freqs == n)  # DC, and an even length's Nyquist bin
    mask[edges] = mask[edges].real
    bins = dft_direct(x)[:, None] * mask
    twiddle = np.exp(2j * np.pi * np.arange(n) / n)
    return _by_rows(n, lambda rows: twiddle[rows * np.arange(n) % n] @ bins).real


def pt2d_direct(g, alpha):
    """Brute-force 2-D phase transform: direct transforms, per-bin mask."""
    g = np.asarray(g, dtype=float)
    rows, cols = g.shape
    spectrum = dft2d_direct(g)
    mask = np.empty((rows, cols), dtype=complex)
    for k1 in range(rows):
        f1 = signed_frequency(k1, rows)
        for k2 in range(cols):
            f2 = signed_frequency(k2, cols)
            nyq = (rows % 2 == 0 and k1 == rows // 2) or \
                  (cols % 2 == 0 and k2 == cols // 2)
            total = f1 * cols + f2 * rows  # sign of Omega1 + Omega2, exactly
            if nyq or total == 0:
                mask[k1, k2] = np.cos(alpha)
            elif total > 0:
                mask[k1, k2] = np.exp(-1j * alpha)
            else:
                mask[k1, k2] = np.exp(1j * alpha)
    return idft2d_direct(spectrum * mask).real


def half_plane_half_mask(rows, cols, alpha):
    """Columns 0..cols//2 of pt2d_direct's mask (the half a real-input 2-D FFT
    keeps), vectorized, or the exact pair (0, 1) for alpha None; each value is
    cos alpha or complex(cos alpha, -+sin alpha), as the library forms them."""
    cos, sin = (0.0, 1.0) if alpha is None else (np.cos(alpha), np.sin(alpha))
    f1 = np.array([signed_frequency(k, rows) for k in range(rows)])[:, None]
    f2 = np.array([signed_frequency(k, cols) for k in range(cols // 2 + 1)])[None, :]
    total = f1 * cols + f2 * rows
    mask = np.where(total > 0, complex(cos, -sin), complex(cos, sin))
    mask[(total == 0) | (2 * f1 == rows) | (2 * f2 == cols)] = cos
    return mask


def half_plane_one_shot(g, alpha):
    """The 2-D phase transform (alpha None: the quadrature) as one numpy
    irfftn(rfftn(g) * H) over the whole image, H of half_plane_half_mask."""
    g = np.asarray(g, dtype=float)
    spectrum = np.fft.rfftn(g, axes=(0, 1)) * half_plane_half_mask(*g.shape, alpha)
    return np.fft.irfftn(spectrum, g.shape, axes=(0, 1))


def kernel2d_closed_form(m: int, n: int) -> float:
    """Infinite-extent 2-D quadrature kernel h[m, n].

    Supported only on the main diagonal and the axes:
    h[0,0] = 0, h[m,m] = 1/(pi m), h[m,0] = -cos(pi m)/(pi m),
    h[0,n] = -cos(pi n)/(pi n), zero elsewhere.  This is the limit shape of
    the circular kernel idft2d(H) as the image grows: a reference for sign
    checks.
    """
    m = int(m)
    n = int(n)
    if m == 0 and n == 0:
        return 0.0
    if m == n:
        return 1.0 / (np.pi * m)
    if n == 0:
        return -np.cos(np.pi * m) / (np.pi * m)
    if m == 0:
        return -np.cos(np.pi * n) / (np.pi * n)
    return 0.0


def circular_convolve(x, kernel):
    """Direct O(N^2) circular convolution."""
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    n = x.size
    p = np.arange(n)
    return _by_rows(n, lambda m: kernel[(m - p) % n] @ x)


def circular_convolve_2d(g, kernel):
    """Direct O((MN)^2) circular convolution of small grids."""
    g = np.asarray(g)
    kernel = np.asarray(kernel)
    rows, cols = g.shape
    out = np.zeros((rows, cols), dtype=np.result_type(g, kernel))
    for m in range(rows):
        for n in range(cols):
            for p in range(rows):
                for q in range(cols):
                    out[m, n] += g[p, q] * kernel[(m - p) % rows, (n - q) % cols]
    return out


def morse_cpsi_closed_form(beta, gamma):
    """Closed form of the delta-pairing constant.

    With Psi(w) = A w^beta exp(-w^gamma) and A pinning the peak to 2,
    substituting v = w^gamma gives
    int Psi(w)/w dw = A Gamma(beta/gamma) / gamma.
    """
    r = beta / gamma
    log_a = np.log(2.0) - r * np.log(r) + r
    return float(np.exp(log_a) * gamma_fn(r) / gamma)


def awt_direct(x, scales, beta, gamma):
    """O(S N^2) analytic wavelet transform by direct DFT sums.

    The record is extended by reflection, one length on each side (a single
    sample is not extended), to M samples.  Row s is the inverse DFT of
    sqrt(s) Psi(s w_k) X[k] summed over the positive bins 0 < k < M/2 only,
    evaluated at the N samples of the record, with Psi written out as
    A w^beta exp(-w^gamma) and A = 2 (e gamma / beta)^(beta / gamma).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    ext = np.concatenate([x[::-1], x, x[::-1]]) if n > 1 else x
    m = ext.size
    k = np.arange(m)
    positive = (k > 0) & (2 * k < m)
    bins = np.exp(-2j * np.pi * np.outer(k, k) / m) @ ext
    t = np.arange(n) + (n if n > 1 else 0)
    synthesis = np.exp(2j * np.pi * np.outer(t, k) / m) / m
    amplitude = 2.0 * (np.e * gamma / beta) ** (beta / gamma)
    rows = []
    for s in scales:
        w = s * 2.0 * np.pi * k / m
        psi = np.where(positive, amplitude * w ** beta * np.exp(-w ** gamma), 0.0)
        rows.append(synthesis @ (np.sqrt(s) * psi * bins))
    return np.array(rows)


def admissibility_integral(spectrum_fn) -> float:
    """Integral of spectrum(omega)/omega over omega > 0 by adaptive quadrature."""
    value, abserr = quad(lambda w: spectrum_fn(w) / w, 0.0, np.inf, limit=400)
    if not np.isfinite(value) or value <= 0 or abserr > 1e-8 * abs(value):
        raise ValueError("admissibility integral did not converge")
    return value


def csv_bytes(header, names, rows):
    """phasekit's CSV layout formatted one value at a time with Python's
    '%.17g': '# key = value' lines, an optional names row, then the rows."""
    lines = [f"# {key} = {value}" for key, value in header.items()]
    if names is not None:
        lines.append(",".join(names))
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in np.asarray(rows, dtype=float)]
    return "".join(line + "\n" for line in lines).encode("ascii")


def zero_mean_zero_nyquist(x):
    """Project out the DC and (even length) Nyquist components."""
    x = np.asarray(x, dtype=float)
    x = x - x.mean()
    if x.size % 2 == 0:
        alt = np.where(np.arange(x.size) % 2 == 0, 1.0, -1.0)
        x = x - (x @ alt) / x.size * alt
    return x


def bandlimited_signal(rng, n, bins):
    """Random real signal supported on the given positive DFT bins."""
    t = np.arange(n)
    x = np.zeros(n)
    for b in bins:
        re = rng.standard_normal()
        im = rng.standard_normal()
        theta = 2.0 * np.pi * b * t / n
        x += 2.0 * (re * np.cos(theta) - im * np.sin(theta))
    return x / np.max(np.abs(x))
