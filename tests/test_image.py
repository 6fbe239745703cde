"""Tests for the 2-D phase transform, analytic signal, and kernel."""
import tracemalloc

import numpy as np
import pytest

import phasekit as pk
import phasekit.image
from phasekit.image import _signed_bin_sums
from oracles import (circular_convolve_2d, half_plane_half_mask, half_plane_one_shot,
                     kernel2d_closed_form, pt2d_direct)

# 1000x1001 and 1024x1024 end on a partial block of rows or of columns at the
# library's block size; the small shapes run on blocks of BLOCK_VALUES values
BLOCKED_SHAPES = [(1, 1), (1, 9), (9, 1), (5, 7), (6, 8), (33, 64), (64, 63), (130, 67),
                  (1000, 1001), (1024, 1024)]
BLOCK_VALUES = 1000  # 130x67: blocks of 14 rows and of 3 of the 34 half-spectrum columns


def plane_wave(rows, cols, k1, k2, phase=0.0):
    m, n = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return np.cos(2 * np.pi * (k1 * m / rows + k2 * n / cols) + phase)


class TestPt2d:
    def test_zero_phase_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((16, 12))
        out = pk.pt2d(img, 0.0)
        assert np.max(np.abs(out.pixels - img)) < 1e-10

    def test_plane_wave_shifts_by_alpha(self):
        rows = cols = 64
        m, n = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        g = np.cos(2 * np.pi * (3 * m + 5 * n) / 64)
        for alpha in (0.4, np.pi / 2, 2.9):
            out = pk.pt2d(g, alpha)
            want = np.cos(2 * np.pi * (3 * m + 5 * n) / 64 - alpha)
            assert np.max(np.abs(out.pixels - want)) < 1e-8

    def test_wave_below_the_line_gets_conjugate_shift(self):
        rows = cols = 32
        m, n = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        # frequencies (-2, 1): Omega1 + Omega2 < 0 as written, but the real
        # cosine equally contains (2, -1) with a positive sum, which is the
        # component the half-plane convention phase-advances
        g = np.cos(2 * np.pi * (-2 * m + 1 * n) / 32)
        alpha = 0.7
        out = pk.pt2d(g, alpha)
        want = np.cos(2 * np.pi * (2 * m - 1 * n) / 32 - alpha)
        assert np.max(np.abs(out.pixels - want)) < 1e-8

    @pytest.mark.parametrize("shape", [(8, 8), (16, 12), (9, 7), (33, 17),
                                       (1, 1), (1, 6), (6, 1), (2, 2), (4, 5)])
    def test_matches_brute_force_mask(self, shape):
        rng = np.random.default_rng(sum(shape))
        img = rng.standard_normal(shape)
        for alpha in (0.0, 1.1, np.pi / 2):
            fast = pk.pt2d(img, alpha).pixels
            slow = pt2d_direct(img, alpha)
            assert np.max(np.abs(fast - slow)) < 1e-8

    def test_separable_products_follow_the_higher_frequency(self):
        rows = cols = 64
        m, n = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        w1 = 2 * np.pi * 9 / rows   # higher frequency, along m
        w2 = 2 * np.pi * 4 / cols
        alpha = np.pi / 2
        cases = [
            (np.cos(w1 * m) * np.cos(w2 * n), np.sin(w1 * m) * np.cos(w2 * n)),
            (np.sin(w1 * m) * np.sin(w2 * n),
             np.sin(w1 * m - alpha) * np.sin(w2 * n)),
            (np.sin(w1 * m) * np.cos(w2 * n),
             np.sin(w1 * m - alpha) * np.cos(w2 * n)),
        ]
        for img, want in cases:
            out = pk.pt2d(img, alpha)
            assert np.max(np.abs(out.pixels - want)) < 1e-6

    def test_composition_inverse_periodicity(self):
        rng = np.random.default_rng(1)
        img = rng.standard_normal((24, 24))
        img -= img.mean()
        a1, a2 = 0.8, 1.7
        once = pk.pt2d(img, a1)
        twice = pk.pt2d(once, a2)
        # composition requires no mass on the zero-sum line; remove it
        total, on_line = _signed_bin_sums(24, 24)
        spectrum = np.fft.fft2(img)
        spectrum[on_line] = 0.0
        clean = np.fft.ifft2(spectrum).real
        twice = pk.pt2d(pk.pt2d(clean, a1), a2)
        direct = pk.pt2d(clean, a1 + a2)
        assert np.max(np.abs(twice.pixels - direct.pixels)) < 1e-9
        back = pk.pt2d(pk.pt2d(clean, a1), -a1)
        assert np.max(np.abs(back.pixels - clean)) < 1e-9
        wrapped = pk.pt2d(clean, a1 + 2 * np.pi)
        assert np.max(np.abs(wrapped.pixels - pk.pt2d(clean, a1).pixels)) < 1e-10

    def test_energy_preserved_off_the_line(self):
        rng = np.random.default_rng(2)
        total, on_line = _signed_bin_sums(20, 14)
        spectrum = np.fft.fft2(rng.standard_normal((20, 14)))
        spectrum[on_line] = 0.0
        img = np.fft.ifft2(spectrum).real
        for alpha in (0.5, 1.9):
            out = pk.pt2d(img, alpha).pixels
            assert abs(np.sum(out**2) - np.sum(img**2)) < 1e-8

    def test_spectral_path_equals_circular_kernel_convolution(self):
        rng = np.random.default_rng(3)
        img = rng.standard_normal((8, 6))
        alpha = 1.3
        mask = pk.HalfPlaneMask.build(8, 6, alpha).values
        kernel = np.fft.ifft2(mask)
        assert np.max(np.abs(kernel.imag)) < 1e-12
        conv = circular_convolve_2d(img, kernel.real)
        out = pk.pt2d(img, alpha).pixels
        assert np.max(np.abs(conv - out)) < 1e-10


class TestBlockedRoute:
    """The blocked in-place route against numpy's one-shot irfftn(rfftn(g) * H)."""

    @pytest.mark.parametrize("shape, block", [(shape, None) for shape in BLOCKED_SHAPES]
                             + [(shape, BLOCK_VALUES) for shape in BLOCKED_SHAPES[:-2]])
    def test_bit_for_bit_one_shot(self, shape, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(phasekit.image, "_BLOCK_VALUES", block)
        g = np.random.default_rng(sum(shape)).standard_normal(shape) * 100.0
        for alpha in (0.0, 0.7, np.pi / 2, 2.3):
            assert np.array_equal(pk.pt2d(g, alpha).pixels.view(np.int64),
                                  half_plane_one_shot(g, alpha).view(np.int64))
        assert np.array_equal(pk.analytic2d(g).view(np.int64),
                              (g + 1j * half_plane_one_shot(g, None)).view(np.int64))

    @pytest.mark.parametrize("shape", [(12, 10), (7, 9), (8, 5), (1, 4)])
    def test_oracle_mask_is_the_library_mask(self, shape):
        for alpha in (0.0, 1.3, None):
            half = slice(0, shape[1] // 2 + 1)
            want = phasekit.image._mask_values(*shape, alpha, half)
            assert np.array_equal(half_plane_half_mask(*shape, alpha), want)

    @pytest.mark.parametrize("cols", [12, 13])
    def test_column_blocks_of_the_mask(self, cols):
        full = pk.HalfPlaneMask.build(10, cols, 0.4).values
        for part in (slice(0, 3), slice(3, 6), slice(5, 7)):
            assert np.array_equal(phasekit.image._mask_values(10, cols, 0.4, part), full[:, part])

    @pytest.mark.parametrize("shape", [(1, 1), (9, 1), (1, 9), (64, 63)])
    def test_result_reuses_the_half_spectrum(self, shape):
        g = np.random.default_rng(9).standard_normal(shape)
        out = pk.pt2d(g, 0.7).pixels
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, g)
        assert out.base is not None and out.base.nbytes <= shape[0] * (shape[1] // 2 + 1) * 16

    def test_peak_memory(self):
        # the input is not counted: one half spectrum (1.004 images), whose
        # bytes the output reuses, and blocks of 2^16 float64 words: 1.66
        # images (2.26 with the output as its own array, 4.0 on the one-shot route)
        g = np.random.default_rng(7).standard_normal((512, 512))
        pk.pt2d(g, 0.7)
        tracemalloc.start()
        try:
            pk.pt2d(g, 0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * g.nbytes


class TestAnalytic2d:
    def test_constant_image_stays_real(self):
        z = pk.analytic2d(np.full((8, 8), 1.5))
        assert np.allclose(z.real, 1.5, atol=1e-12)
        assert np.max(np.abs(z.imag)) < 1e-12

    def test_plane_wave_becomes_complex_exponential(self):
        rows = cols = 32
        m, n = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        theta = 2 * np.pi * (3 * m + 4 * n) / 32
        z = pk.analytic2d(np.cos(theta))
        assert np.max(np.abs(z - np.exp(1j * theta))) < 1e-10
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-8  # flat envelope

    def test_spectrum_vanishes_below_the_line(self):
        rng = np.random.default_rng(4)
        img = rng.standard_normal((16, 16))
        z = pk.analytic2d(img)
        spectrum = pk.dft2d(z)
        total, on_line = _signed_bin_sums(16, 16)
        assert np.max(np.abs(spectrum[(total < 0) & ~on_line])) < 1e-10

    def test_real_part_is_input_imag_is_quadrature(self):
        rng = np.random.default_rng(5)
        img = rng.standard_normal((10, 14))
        z = pk.analytic2d(img)
        assert np.max(np.abs(z.real - img)) < 1e-10
        quad = pk.pt2d(img, np.pi / 2).pixels
        assert np.max(np.abs(z.imag - quad)) < 1e-10

    @pytest.mark.parametrize("shape, kind", [((512, 512), "normal"), ((8, 9), "zero"),
                                             ((16, 15), "signed zeros")])
    def test_bit_for_bit_the_complex_sum(self, shape, kind):
        # the one preallocated array keeps the sign of every zero of g + 1j q
        rng = np.random.default_rng(shape[0])
        g = {"normal": rng.standard_normal(shape), "zero": np.zeros(shape),
             "signed zeros": np.where(rng.random(shape) < 0.5, 0.0, -0.0)}[kind]
        want = g + 1j * half_plane_one_shot(g, None)
        z = pk.analytic2d(g)
        assert z.dtype == want.dtype
        assert np.array_equal(z.view(np.int64), want.view(np.int64))

    def test_peak_memory(self):
        # the complex output (2 images) and the quadrature beside it; 3.06
        # images when the complex sum was formed from 1j q
        g = np.random.default_rng(8).standard_normal((512, 512))
        pk.analytic2d(g)
        tracemalloc.start()
        try:
            pk.analytic2d(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.02 * g.nbytes

    def test_constant_image_has_exactly_zero_quadrature(self):
        # the DC bin lies on the line, where the exact quadrature mask is 0
        z = pk.analytic2d(np.full((8, 8), 1.5))
        assert np.all(z.imag == 0.0)
        assert np.all(z.real == 1.5)


class TestKernel2dClosedForm:
    def test_pinned_values(self):
        assert kernel2d_closed_form(0, 0) == 0.0
        assert kernel2d_closed_form(1, 1) == pytest.approx(1 / np.pi)
        assert kernel2d_closed_form(2, 2) == pytest.approx(1 / (2 * np.pi))
        assert kernel2d_closed_form(1, 0) == pytest.approx(1 / np.pi)
        assert kernel2d_closed_form(2, 0) == pytest.approx(-1 / (2 * np.pi))
        assert kernel2d_closed_form(0, 1) == pytest.approx(1 / np.pi)
        assert kernel2d_closed_form(1, 2) == 0.0
        assert kernel2d_closed_form(-3, 2) == 0.0

    def test_sign_pattern_matches_circular_kernel(self):
        # the finite circular kernel inherits the closed form's sign pattern
        # on the diagonal and axes once aliasing is small
        size = 128
        mask = pk.HalfPlaneMask.build(size, size, np.pi / 2).values
        kernel = np.fft.ifft2(mask).real
        for m in range(-5, 6):
            for n in range(-5, 6):
                closed = kernel2d_closed_form(m, n)
                sampled = kernel[m % size, n % size]
                if closed != 0.0:
                    assert np.sign(sampled) == np.sign(closed)
                    assert abs(sampled - closed) < 1e-2
                else:
                    assert abs(sampled) < 1e-2


class TestHalfPlaneMask:
    def test_cosine_mask_is_conjugate_symmetric(self):
        mask = pk.HalfPlaneMask.build(12, 10, 0.8).values
        rolled = np.conj(mask[(-np.arange(12)) % 12][:, (-np.arange(10)) % 10])
        assert np.max(np.abs(mask - rolled)) < 1e-14

    def test_build_validation(self):
        with pytest.raises(ValueError):
            pk.HalfPlaneMask.build(0, 4, 0.1)
        with pytest.raises(ValueError):
            pk.HalfPlaneMask.build(4, 4, np.inf)
