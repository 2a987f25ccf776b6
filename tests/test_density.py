import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfilter import DensityOperator, Tolerances, fidelity
from qfilter.density import _real_divide, _sqrt_psd, _validated
from qfilter.errors import (
    DimensionMismatchError,
    NegativeEigenvalueError,
    NonHermitianError,
    TraceDeviationError,
    ValidationError,
)
from qfilter.kraus import PROB_FLOOR
from qfilter.stability import random_density_operator


def random_hermitian_psd(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g @ g.conj().T) / d


class TestMatrixSqrt:
    def test_identity(self):
        s, lam_max = _sqrt_psd(np.eye(2))
        assert np.abs(s - np.eye(2)).max() < 1e-14
        assert lam_max == pytest.approx(1.0, abs=1e-15)

    def test_diagonal_analytic(self):
        s, lam_max = _sqrt_psd(np.diag([4.0, 9.0]))
        assert np.abs(s - np.diag([2.0, 3.0])).max() < 1e-14
        assert lam_max == pytest.approx(9.0, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 8, 32])
    def test_reconstruction_random_psd(self, rng, d):
        m = random_hermitian_psd(rng, d)
        s, _ = _sqrt_psd(m)
        bound = 1e-10 * d * np.abs(m).max()
        assert np.abs(s @ s - m).max() <= bound
        # result itself is Hermitian PSD
        assert np.abs(s - s.conj().T).max() < 1e-13
        assert np.linalg.eigvalsh(s)[0] > -1e-13

    def test_clamps_tolerated_negatives(self):
        s, _ = _sqrt_psd(np.diag([1.0, -1e-12]))
        assert np.abs(s - np.diag([1.0, 0.0])).max() < 1e-6


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert rho.dim == 2
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-15

    def test_trace_deviation_reports_magnitude(self):
        with pytest.raises(TraceDeviationError) as err:
            DensityOperator(np.diag([0.6, 0.5]))
        assert err.value.deviation == pytest.approx(0.1, abs=1e-12)

    def test_negative_eigenvalue_detected(self):
        # eigenvalues 1.1 and -0.1 by the 2x2 trace/determinant formula
        with pytest.raises(NegativeEigenvalueError) as err:
            DensityOperator([[0.5, 0.6], [0.6, 0.5]])
        assert err.value.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)

    def test_non_hermitian_detected(self):
        with pytest.raises(NonHermitianError):
            DensityOperator([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            DensityOperator([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("where", [(0, 0), (2, 2), (0, 1), (2, 0)])
    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, complex(0.2, np.nan), complex(0.0, -np.inf)]
    )
    def test_non_finite_entry_is_a_validation_error(self, where, value):
        # Not NonHermitianError, although the entry breaks m = m^dag too.
        m = np.tile(np.eye(3, dtype=complex) / 3, (2, 1, 1))
        m[1][where] = value
        for call in (
            lambda: DensityOperator(m[1]),
            lambda: _validated(m, Tolerances()),
            lambda: _validated(m, Tolerances(), np.empty_like(m), np.empty_like(m)),
        ):
            with pytest.raises(ValidationError) as err:
                call()
            assert type(err.value) is ValidationError

    def test_construction_cleans_drift(self, rng):
        rho = random_density_operator(rng, 3)
        dirty = rho.matrix + 1e-11 * (rng.standard_normal((3, 3)) * 1j)
        clean = DensityOperator(dirty)
        assert np.abs(clean.matrix - clean.matrix.conj().T).max() == 0.0
        assert abs(np.trace(clean.matrix).real - 1.0) < 1e-15

    def test_tolerance_override(self):
        loose = Tolerances(trace=0.2)
        rho = DensityOperator(np.diag([0.6, 0.5]), loose)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-15  # renormalized

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_bad_tolerance_rejected(self, value):
        # a NaN psd tolerance used to let diag(1.5, -0.5) validate
        with pytest.raises(ValidationError, match="psd"):
            DensityOperator(np.diag([1.5, -0.5]), Tolerances(psd=value))

    def test_matrix_is_readonly(self, mixed_qubit):
        with pytest.raises(ValueError):
            mixed_qubit.matrix[0, 0] = 0.7


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestInPlaceKernels:
    """The engine's in-place kernels against the allocating numpy forms, bit for bit."""

    def test_real_divide_matches_complex_division(self, rng):
        x = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
        x[0] = [[complex(a, b) for b in (0.0, -0.0, 1.5, -2.5)] for a in (0.0, -0.0, 3.0, -0.5)]
        x[1] = x[0].T
        x[2] *= 1e300
        x[3] *= 1e-300
        floor = np.nextafter(PROB_FLOOR, 1.0)
        # A quotient that underflows to zero may carry the other sign; no
        # pair below underflows (1e-300 / 1e300 would).
        cases = [
            (x, rng.uniform(0.5, 2.0, 6)),
            (x, np.array([floor, PROB_FLOOR * (1 + 1e-9), 1e300, 1e-300, 1.0, 3.0])),
            (x, np.full(6, 1e-300)),
            (x[[0, 1, 2, 4, 5]], np.full(5, 1e300)),
        ]
        with np.errstate(over="ignore"):
            for num, t in cases:
                expected = np.divide(num, t[:, None, None])
                assert np.array_equal(bits(_real_divide(num, t)), bits(expected))
                inplace = num.copy()
                _real_divide(inplace, t, out=inplace)
                assert np.array_equal(bits(inplace), bits(expected))
            for t in (2.0, 3.0, floor, 1e-300):
                assert np.array_equal(bits(_real_divide(x, t)), bits(x / t))

    def test_real_divide_of_real_x_is_the_real_part_of_the_complex_one(self, rng):
        x = rng.standard_normal((6, 4, 4))
        for t in (rng.uniform(0.5, 2.0, 6), 3.0, np.nextafter(PROB_FLOOR, 1.0)):
            got = _real_divide(x, t)
            assert got.dtype == np.float64
            assert np.array_equal(got, _real_divide(x + 0j, t).real)

    def test_validated_into_buffers_matches_allocating_call(self, rng):
        stack = np.stack([random_density_operator(rng, 5).matrix for _ in range(8)])
        noise = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
        dirty = (stack + 1e-11 * noise).reshape(2, 4, 5, 5)
        out, scratch = np.empty_like(dirty), np.full_like(dirty, np.nan)
        expected = _validated(dirty, Tolerances())
        got = _validated(dirty, Tolerances(), out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(bits(got), bits(expected))
        # The single-matrix path of the constructor gives the same bits.
        rho = DensityOperator(dirty[1, 2])
        assert np.array_equal(bits(rho.matrix), bits(expected[1, 2]))


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        for d in (2, 3, 5):
            rho = random_density_operator(rng, d)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        z = DensityOperator.basis_state(2, 0)
        o = DensityOperator.basis_state(2, 1)
        assert fidelity(z, o) == pytest.approx(0.0, abs=1e-14)

    def test_pure_vs_maximally_mixed(self):
        # For pure rho, F equals <psi| sigma |psi>; cross-checked through
        # the eigendecomposition route the implementation uses.
        z = DensityOperator.basis_state(2, 0)
        mixed = DensityOperator.maximally_mixed(2)
        assert fidelity(z, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_pure_state_reduction(self, rng):
        for _ in range(25):
            psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            psi /= np.linalg.norm(psi)
            phi /= np.linalg.norm(phi)
            overlap = abs(np.vdot(psi, phi)) ** 2
            f = fidelity(DensityOperator.from_pure(psi), DensityOperator.from_pure(phi))
            assert f == pytest.approx(overlap, abs=1e-12)

    def test_symmetry(self, rng):
        for d in (2, 3, 4):
            for _ in range(10):
                rho = random_density_operator(rng, d)
                rank = int(rng.integers(1, d + 1))
                sigma = random_density_operator(rng, d, rank=rank)
                assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-9

    def test_one_iff_equal_both_directions(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            rho = random_density_operator(rng, d)
            # same matrix up to 1e-10 perturbation: fidelity 1 within 1e-9
            wiggle = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            wiggle = (wiggle + wiggle.conj().T) * 1e-11
            near = DensityOperator(rho.matrix + wiggle)
            assert np.abs(near.matrix - rho.matrix).max() <= 1e-9
            assert fidelity(rho, near) >= 1.0 - 1e-9
            # clearly distinct states: fidelity strictly below 1
            other = random_density_operator(rng, d)
            if np.abs(other.matrix - rho.matrix).max() > 1e-3:
                assert fidelity(rho, other) < 1.0 - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(DensityOperator.maximally_mixed(2), DensityOperator.maximally_mixed(3))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 6))
    @example(seed=784, d=2)  # asymmetric by 6.8e-9 under a relative-only cut
    def test_bounds_property(self, seed, d):
        rng = np.random.default_rng(seed)
        rho = random_density_operator(rng, d)
        sigma = random_density_operator(rng, d, rank=int(rng.integers(1, d + 1)))
        f = fidelity(rho, sigma)
        assert 0.0 <= f <= 1.0
        assert abs(f - fidelity(sigma, rho)) <= 1e-9
