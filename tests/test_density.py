import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfilter import (
    DensityOperator,
    MeasurementStep,
    Tolerances,
    TrajectoryConfig,
    fidelity,
    run_trajectory,
    stability,
    verify,
)
from qfilter.density import _fidelities, _real_divide, _sqrt_psd, _validated
from qfilter.errors import (
    DimensionMismatchError,
    NegativeEigenvalueError,
    NonHermitianError,
    TraceDeviationError,
    ValidationError,
)
from qfilter.kraus import PROB_FLOOR
from qfilter.photonbox import PhotonBoxParams, composite_kraus, detection_error_model
from qfilter.verify import random_density_operator


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
        assert err.value.deviation == pytest.approx(-0.1, abs=1e-12)

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


def hermitian_with_spectrum(rng, eigenvalues, complex_=True):
    """An exactly Hermitian U diag(eigenvalues) U^dag with a random unitary U."""
    d = len(eigenvalues)
    g = rng.standard_normal((d, d))
    if complex_:
        g = g + 1j * rng.standard_normal((d, d))
    u, _ = np.linalg.qr(g)
    m = (u * np.asarray(eigenvalues)) @ u.conj().T
    return (m + m.conj().T) / 2  # exactly Hermitian, so validation leaves it as is


def eigvalsh_verdict(stack, tol):
    """The PSD decision of an eigvalsh over the stack: None, or the first
    failing matrix's smallest eigenvalue in C order."""
    lam_min = np.linalg.eigvalsh(stack)[..., 0]
    failing = lam_min < -tol.psd
    return lam_min[failing].flat[0] if failing.any() else None


class TestPsdCertificate:
    """The Cholesky certificate decides PSD as an eigvalsh of the stack does,
    and a failure names the same matrix and value."""

    TOL = Tolerances()

    def _check_against_eigvalsh(self, stack):
        expected = eigvalsh_verdict(stack, self.TOL)
        for call in (
            lambda: _validated(stack, self.TOL),
            lambda: _validated(stack, self.TOL, np.empty_like(stack), np.empty_like(stack)),
        ):
            if expected is None:
                call()
            else:
                with pytest.raises(NegativeEigenvalueError) as err:
                    call()
                assert err.value.deviation == expected
                assert err.value.tolerance == self.TOL.psd

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_rank_deficient_states_pass(self, rng, complex_, rank):
        d = 5
        stack = np.stack([
            hermitian_with_spectrum(rng, np.r_[np.full(rank, 1.0 / rank), np.zeros(d - rank)], complex_)
            for _ in range(4)
        ])
        assert eigvalsh_verdict(stack, self.TOL) is None
        self._check_against_eigvalsh(stack)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_threshold(self, rng, complex_, factor):
        # lambda_min = -tol.psd * (1 -+ 1e-3): inside the tolerance, then outside.
        lam = -self.TOL.psd * factor
        m = hermitian_with_spectrum(rng, [lam, 0.2, 0.3, 0.5 - lam], complex_)
        stack = np.stack([hermitian_with_spectrum(rng, [0.25] * 4, complex_), m])
        verdict = eigvalsh_verdict(stack, self.TOL)
        assert (verdict is None) == (factor < 1)
        self._check_against_eigvalsh(stack)
        self._check_against_eigvalsh(m)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("bad", [0, 3, 5])
    def test_only_matrix_i_fails(self, rng, complex_, bad):
        d = 4
        stack = np.stack([
            hermitian_with_spectrum(rng, rng.dirichlet(np.ones(d)), complex_)
            for _ in range(6)
        ])
        stack[bad] = hermitian_with_spectrum(rng, [-1e-3, 0.2, 0.3, 0.501], complex_)
        if bad < 5:  # a later failing matrix is not the one named
            stack[5] = hermitian_with_spectrum(rng, [-0.2, 0.3, 0.4, 0.5], complex_)
        self._check_against_eigvalsh(stack.reshape(2, 3, d, d))
        with pytest.raises(NegativeEigenvalueError) as err:
            _validated(stack, self.TOL)
        assert err.value.deviation == np.linalg.eigvalsh(stack[bad])[0]


def mp_fidelity(rho, sigma):
    """F(rho, sigma) at 40 digits, for the float64 matrices taken as exact.

    Negative eigenvalues (rounding on an exact zero) count as zero."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40
    w, v = mp.eighe(mp.matrix(rho.tolist()))
    root = mp.diag([mp.sqrt(max(x, 0)) for x in w])
    s = v * root * v.H
    inner = s * mp.matrix(sigma.tolist()) * s
    w = mp.eighe((inner + inner.H) / 2, eigvals_only=True)
    return float(mp.fsum(mp.sqrt(max(x, 0)) for x in w) ** 2)


def photonbox_pairs(alpha, steps=(1, 2)):
    """(optimal, agnostic) estimates after the first steps at a fixed drive:
    the optimal one is near-pure (smallest eigenvalues 1e-13 to 1e-21)."""
    params = PhotonBoxParams()
    step = MeasurementStep(composite_kraus(params, alpha), detection_error_model(params))
    record = run_trajectory(TrajectoryConfig(
        true_initial=DensityOperator.basis_state(11, 0),
        filter_initials={
            "optimal": DensityOperator.basis_state(11, 0),
            "agnostic": DensityOperator.maximally_mixed(11),
        },
        steps=step, horizon=max(steps), seed=3, store_states=True,
    ))
    states = record.filter_states
    return [(states["optimal"][k - 1].matrix, states["agnostic"][k - 1].matrix) for k in steps]


def without_top_level(rho):
    """rho with its last row and column zeroed and renormalized: exactly
    singular, so its Cholesky factorization fails."""
    cut = rho.copy()
    cut[-1, :] = cut[:, -1] = 0.0
    return cut / np.trace(cut).real


class TestFidelityPaths:
    """The three ways ``_fidelities`` evaluates F, against 40 digits."""

    @pytest.fixture
    def eigensolvers(self, monkeypatch):
        calls = {"eigh": 0, "cholesky_failed": 0}
        eigh, cholesky = np.linalg.eigh, np.linalg.cholesky

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        def counted_cholesky(*args, **kwargs):
            try:
                return cholesky(*args, **kwargs)
            except np.linalg.LinAlgError:
                calls["cholesky_failed"] += 1
                raise

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        return calls

    @pytest.mark.parametrize("alpha", [0.3, -0.7, 0.4])
    def test_near_pure_photonbox_pairs(self, alpha, eigensolvers):
        for rho, sigma in photonbox_pairs(alpha):
            singular = without_top_level(rho)
            cases = [
                # sigma factors
                ((rho, sigma), {"eigh": 0, "cholesky_failed": 0}),
                # sigma singular: rho factors
                ((sigma, singular), {"eigh": 0, "cholesky_failed": 1}),
                # both singular: the eigh form
                ((singular, without_top_level(sigma)), {"eigh": 1, "cholesky_failed": 2}),
            ]
            for (a, b), path in cases:
                eigensolvers.update(eigh=0, cholesky_failed=0)
                got = float(_fidelities(a, b))
                assert eigensolvers == path
                # F's sensitivity to rounding-level eigenvalues of near-pure
                # states, not the kernel, sets this scale.
                assert abs(got - mp_fidelity(a, b)) <= 3e-8

    def test_symmetric_when_one_matrix_is_singular(self, rng):
        for d in (2, 3, 5):
            rho = random_density_operator(rng, d).matrix
            sigma = random_density_operator(rng, d, rank=1).matrix
            assert _fidelities(rho, sigma) == _fidelities(sigma, rho)

    def test_argument_order_on_inequality_seed_4_instance_512(self, monkeypatch):
        # A full-rank rho against a numerically pure sigma (smallest stored
        # eigenvalue 5.3e-16): the eigh form alone puts one part's two
        # orders 6.6e-9 apart; both orders now factor the same matrix.
        # Replay the suite's draws and evaluate only instance 512.
        gaps = []
        real_check = stability.check_fidelity_inequality

        def only_512(operators, partition, rho, sigma):
            if len(gaps) == 512:
                states = []

                def both_orders(a, b, work=(None, None)):
                    states.append((a, b))
                    return _fidelities(a, b, work)

                with monkeypatch.context() as m:
                    m.setattr(stability, "_fidelities", both_orders)
                    real_check(operators, partition, rho, sigma)
                (a, b), = states
                gaps.append(np.abs(_fidelities(a, b) - _fidelities(b, a)).max())
                gaps.append(abs(fidelity(rho, sigma) - fidelity(sigma, rho)))
            else:
                gaps.append(None)
            return stability.OneStepCheck(0.0, 0.0, 0.0, np.zeros(1), ())

        monkeypatch.setattr(verify, "check_fidelity_inequality", only_512)
        verify.inequality_suite(n_instances=513, seed=4)
        assert max(gaps[512:]) <= 1e-12
