"""Signal model: atoms, synthesis, SNR accounting, input validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linespec.errors import DegenerateInput, InvalidDimension
from linespec.optimizer import _FactoredKernel, _Kernel
from linespec.signal_model import (
    TWO_PI,
    NoiseSpec,
    Signal,
    Sinusoid,
    as_samples,
    atom,
    atom_split,
    atom_table,
    design_matrix,
    ls_amplitudes,
    noise_var_for_snr,
    synthesize,
    wrap_angle,
)


def test_atom_matches_direct_exponential():
    w = 1.2345
    n = 7
    a = atom(w, n)
    expected = np.array([np.exp(1j * w * k) for k in range(n)])
    np.testing.assert_allclose(a, expected, rtol=0, atol=1e-15)
    assert a[0] == 1.0 + 0.0j


def test_design_matrix_columns_are_atoms():
    omegas = [0.1, 2.0, 5.9]
    A = design_matrix(omegas, 9)
    assert A.shape == (9, 3)
    for i, w in enumerate(omegas):
        np.testing.assert_array_equal(A[:, i], atom(w, 9))


def test_atom_split_is_computed_once_per_n_and_read_only():
    b, k = atom_split(33)
    assert b == 6
    assert k[:, 0].tolist() == [0, 1, 2, 3, 4, 5, 0, 6, 12, 18, 24, 30]
    assert atom_split(33)[1] is k
    assert not k.flags.writeable
    assert atom_split(1)[0] == 1
    with pytest.raises(InvalidDimension):
        atom_split(0)


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 512])
def test_atom_table_has_the_training_kernels_bits(n):
    # Frequencies below 0 and above 2*pi included, and M = 0 to 8 nodes.
    # Both kernels take the frequencies as a contiguous array or as the
    # imaginary view of complex slots, as train_inner passes them, with the
    # same bits. _Kernel's A is the table; _FactoredKernel's exps
    # exp(j*w) and exp(j*B*w) are its rows 1 and B.
    omegas = np.array([-2.5, -0.1, 0.0, 1.3, TWO_PI - 1e-3, TWO_PI + 0.7, 3.0 * TWO_PI + 2.2, -40.0])
    b = atom_split(n)[0]
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for m in range(omegas.size + 1):
        w = omegas[:m]
        table = atom_table(w, n)
        assert table.shape == (n, m)
        slots = np.zeros(2 * m, dtype=np.complex128)
        view = slots[m:].imag
        view[:] = w
        alphas = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for cls in (_Kernel, _FactoredKernel):
            kernel = cls(y, m)
            from_view = kernel.residual(view, alphas).copy()
            assert kernel.residual(w.copy(), alphas).tobytes() == from_view.tobytes()
            if cls is _Kernel:
                assert table.tobytes() == kernel.A.tobytes()
            else:
                z1, zb = kernel._z[:, 0]
                assert n < 2 or table[1].tobytes() == z1.tobytes()
                assert n <= b or table[b].tobytes() == zb.tobytes()
        # A column's bits do not depend on the other columns, so a scalar
        # and an array of frequencies agree (rho relies on it).
        for i in range(m):
            assert atom_table(w[i], n)[:, 0].tobytes() == table[:, i].tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs 80-bit long double")
@pytest.mark.parametrize("n", [512, 4096])
def test_atom_table_is_as_accurate_as_the_direct_exp(n):
    # Against phases and exponentials in extended precision, the largest
    # entry error over 20 draws of 8 frequencies is within 10 % of
    # design_matrix's: both are set by the rounding of the phase k*w.
    rng = np.random.default_rng(n)
    idx = np.arange(n, dtype=np.longdouble)[:, None]
    worst_table = worst_direct = 0.0
    for _ in range(20):
        w = rng.uniform(0.0, TWO_PI, 8)
        phase = idx * w.astype(np.longdouble)
        re, im = np.cos(phase), np.sin(phase)

        def error(A):
            dre = A.real.astype(np.longdouble) - re
            dim = A.imag.astype(np.longdouble) - im
            return float(np.sqrt(dre**2 + dim**2).max())

        worst_table = max(worst_table, error(atom_table(w, n)))
        worst_direct = max(worst_direct, error(design_matrix(w, n)))
    assert worst_table <= 1.1 * worst_direct


def test_no_frequencies_give_an_empty_model():
    assert design_matrix([], 9).shape == (9, 0)
    np.testing.assert_array_equal(synthesize([], 9, NoiseSpec()).samples, np.zeros(9))
    assert ls_amplitudes([], np.ones(9, dtype=complex)).shape == (0,)


def test_ls_amplitudes_matches_lstsq_oracle():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    omegas = TWO_PI * np.array([5, 17, 40]) / 128
    ref, *_ = np.linalg.lstsq(design_matrix(omegas, 32), y, rcond=None)
    np.testing.assert_allclose(ls_amplitudes(omegas, y), ref, rtol=1e-10)


def test_ls_amplitudes_splits_equal_frequencies_in_halves():
    # The duplicate column is rank deficient: the minimum-norm fit gives
    # each copy half of the one-atom amplitude instead of raising.
    rng = np.random.default_rng(3)
    y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    w = TWO_PI * 5 / 64
    (one,) = ls_amplitudes([w], y)
    np.testing.assert_allclose(ls_amplitudes([w, w], y), [one / 2, one / 2], rtol=1e-12)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_wrap_angle_lands_in_fundamental_interval(w):
    wrapped = wrap_angle(w)
    assert 0.0 <= wrapped < TWO_PI
    assert math.isclose(math.cos(wrapped), math.cos(w), abs_tol=1e-6)
    assert math.isclose(math.sin(wrapped), math.sin(w), abs_tol=1e-6)


def test_wrap_angle_wraps_arrays_elementwise_and_folds_two_pi():
    # -1e-300 rounds up to exactly 2*pi under np.mod; it must fold to 0.
    wrapped = wrap_angle(np.array([TWO_PI + 0.3, -0.2, -1e-300, 1.0]))
    assert isinstance(wrapped, np.ndarray)
    assert wrapped[0] == pytest.approx(0.3, rel=1e-12)
    assert wrapped[1] == pytest.approx(TWO_PI - 0.2, rel=1e-12)
    assert wrapped[2] == 0.0
    assert wrapped[3] == 1.0
    assert type(wrap_angle(-1e-300)) is float
    assert wrap_angle(-1e-300) == 0.0


def test_sinusoid_wraps_frequency_and_exposes_normalized():
    s = Sinusoid(1.0 + 2.0j, TWO_PI + 0.5)
    assert math.isclose(s.omega, 0.5, rel_tol=1e-12)
    assert math.isclose(s.normalized_freq, 0.5 / TWO_PI, rel_tol=1e-12)


def test_sinusoid_rejects_non_finite():
    with pytest.raises(DegenerateInput):
        Sinusoid(complex("inf"), 1.0)
    with pytest.raises(DegenerateInput):
        Sinusoid(1.0, float("nan"))


def test_signal_validation():
    with pytest.raises(InvalidDimension):
        Signal(np.zeros((2, 2)))
    with pytest.raises(InvalidDimension):
        Signal(np.zeros(0))
    with pytest.raises(DegenerateInput):
        Signal(np.array([1.0, np.inf]))


def test_signal_rejects_only_an_energy_that_overflows():
    # 8 * 1e306 is a finite energy, 8 * 1e308 is not.
    tone = np.exp(0.3j * np.arange(8))
    assert Signal(1e153 * tone).n_samples == 8
    with pytest.raises(DegenerateInput, match="energy"):
        Signal(1e154 * tone)
    with pytest.raises(DegenerateInput, match="energy"):
        Signal(np.array([1.0, complex(0.0, np.nan)]))


def test_as_samples_accepts_signal_and_lists():
    sig = Signal(np.array([1.0 + 1j, 2.0]))
    np.testing.assert_array_equal(as_samples(sig), sig.samples)
    # A run hands its stages the Signal, and numpy reads it as its samples.
    assert np.size(sig) == 2
    assert np.asarray(sig) is sig.samples
    out = as_samples([1.0, 2.0, 3.0])
    assert out.dtype == np.complex128
    with pytest.raises(InvalidDimension):
        as_samples([])


def test_noiseless_synthesis_is_exact_superposition():
    comps = [Sinusoid(2.0 - 1j, 0.7), Sinusoid(0.5j, 2.9)]
    sig = synthesize(comps, 16, NoiseSpec())
    expected = design_matrix([0.7, 2.9], 16) @ np.array([2.0 - 1j, 0.5j])
    np.testing.assert_allclose(sig.samples, expected, rtol=0, atol=1e-14)


def test_synthesis_accepts_amplitude_frequency_pairs():
    a = synthesize([(1.0 + 0j, 1.0)], 8, NoiseSpec())
    b = synthesize([Sinusoid(1.0, 1.0)], 8, NoiseSpec())
    np.testing.assert_array_equal(a.samples, b.samples)


def test_synthesis_is_seed_reproducible_and_seed_sensitive():
    comps = [Sinusoid(1.0, 1.0)]
    y1 = synthesize(comps, 32, NoiseSpec(sigma2=0.1, seed=5)).samples
    y2 = synthesize(comps, 32, NoiseSpec(sigma2=0.1, seed=5)).samples
    y3 = synthesize(comps, 32, NoiseSpec(sigma2=0.1, seed=6)).samples
    np.testing.assert_array_equal(y1, y2)
    assert np.any(y1 != y3)


def test_noise_variance_splits_between_parts():
    big = 200_000
    sig = synthesize([], big, NoiseSpec(sigma2=4.0, seed=0))
    assert abs(np.var(sig.samples.real) - 2.0) < 0.05
    assert abs(np.var(sig.samples.imag) - 2.0) < 0.05


def test_noise_var_for_snr_matches_definition():
    x = synthesize([Sinusoid(3.0, 1.1)], 64, NoiseSpec()).samples
    for snr_db in (-10.0, 0.0, 17.0):
        sigma2 = noise_var_for_snr(x, snr_db)
        power = float(np.vdot(x, x).real)
        achieved = 10.0 * math.log10(power / (64 * sigma2))
        assert math.isclose(achieved, snr_db, abs_tol=1e-12)


def test_noise_var_for_snr_rejects_zero_signal():
    with pytest.raises(DegenerateInput):
        noise_var_for_snr(np.zeros(8), 10.0)


@pytest.mark.parametrize("snr_db", [-math.inf, -3300.0, 4000.0, math.inf])
def test_noise_var_for_snr_rejects_snr_outside_float_range(snr_db):
    # 10^(snr_db / 10) underflows to 0 or overflows: no finite positive variance.
    with pytest.raises(DegenerateInput):
        noise_var_for_snr(np.ones(8), snr_db)


def test_noise_spec_rejects_negative_variance():
    with pytest.raises(DegenerateInput):
        NoiseSpec(sigma2=-1.0)


@pytest.mark.parametrize("sigma2", [math.nan, math.inf])
def test_noise_spec_rejects_non_finite_variance(sigma2):
    # NaN compares false with 0, so a bare sign check would let it through.
    with pytest.raises(DegenerateInput):
        NoiseSpec(sigma2=sigma2)


def test_noise_spec_rejects_negative_seed():
    # numpy's generator would reject it only at draw time, with a bare ValueError.
    with pytest.raises(DegenerateInput):
        NoiseSpec(sigma2=1.0, seed=-1)


@settings(max_examples=25)
@given(
    st.integers(min_value=1, max_value=32),
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
)
def test_atom_has_unit_modulus_everywhere(n, w):
    np.testing.assert_allclose(np.abs(atom(w, n)), 1.0, rtol=0, atol=1e-12)
