import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfilter import ErrorModel
from qfilter.errormodel import inverse_cdf_index, inverse_cdf_rows
from qfilter.errors import ColumnSumDeviationError, NegativeEntryError
from qfilter.photonbox import PhotonBoxParams, detection_error_model


class TestValidation:
    def test_identity_is_valid(self):
        model = ErrorModel(np.eye(4))
        assert model.m_real == model.m_ideal == 4

    def test_column_sum_deviation_named(self):
        with pytest.raises(ColumnSumDeviationError) as err:
            ErrorModel([[0.9], [0.2]])
        assert err.value.col == 0
        assert err.value.deviation == pytest.approx(0.1, abs=1e-12)

    def test_negative_entry_named(self):
        with pytest.raises(NegativeEntryError) as err:
            ErrorModel([[1.1], [-0.1]])
        assert (err.value.row, err.value.col) == (1, 0)

    def test_detection_model_instance_columns(self):
        # evaluate the detection formulas and confirm every column is stochastic
        params = PhotonBoxParams(
            detection_efficiency=0.8, assign_error_g=0.1, assign_error_e=0.15
        )
        model = detection_error_model(params)
        assert np.abs(model.eta.sum(axis=0) - 1.0).max() < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        m_real=st.integers(1, 5),
        m_ideal=st.integers(1, 5),
        corrupt=st.booleans(),
    )
    def test_accepts_exactly_the_stochastic_matrices(
        self, seed, m_real, m_ideal, corrupt
    ):
        rng = np.random.default_rng(seed)
        eta = rng.random((m_real, m_ideal)) + 0.01
        eta /= eta.sum(axis=0)
        eta[-1, :] = 1.0 - eta[:-1, :].sum(axis=0)
        if not corrupt:
            ErrorModel(eta)  # must not raise
            return
        bad = eta.copy()
        p = int(rng.integers(m_real))
        q = int(rng.integers(m_ideal))
        if rng.random() < 0.5:
            bad[p, q] += 1e-6  # break the column sum
            with pytest.raises(ColumnSumDeviationError):
                ErrorModel(bad)
        else:
            bad[p, q] = -1e-9  # negative entry (checked first)
            with pytest.raises((NegativeEntryError, ColumnSumDeviationError)):
                ErrorModel(bad)


def readings(model, columns, rng):
    """Detector readings drawn from the eta columns of the ideal jumps, one each."""
    columns = np.asarray(columns)
    return inverse_cdf_rows(model.eta.T[columns], rng.random(columns.size))


class TestSampling:
    def test_identity_model_is_deterministic(self, rng):
        model = ErrorModel.identity(4)
        assert (readings(model, [2] * 50, rng) == 2).all()

    def test_balanced_column_frequency(self):
        model = ErrorModel([[0.5, 0.0], [0.5, 1.0]])
        rng = np.random.default_rng(77)
        n = 10_000
        hits = int((readings(model, np.zeros(n, dtype=int), rng) == 0).sum())
        sigma = np.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) <= 3 * sigma

    def test_zero_entry_never_drawn(self):
        model = ErrorModel([[0.0, 1.0], [0.6, 0.0], [0.4, 0.0]])
        rng = np.random.default_rng(5)
        draws = set(readings(model, np.zeros(100_000, dtype=int), rng).tolist())
        assert 0 not in draws

    def test_reproducible_bit_exact(self):
        model = ErrorModel([[0.3, 0.2], [0.7, 0.8]])
        columns = np.arange(200) % 2
        seq_a = readings(model, columns, np.random.default_rng(99))
        seq_b = readings(model, columns, np.random.default_rng(99))
        assert np.array_equal(seq_a, seq_b)

    def test_residual_mass_goes_to_last_index(self):
        # u beyond the accumulated sum (cumulative rounding) selects the
        # final index; an exhausted-mass final entry is never hit otherwise
        assert inverse_cdf_index(np.array([0.5, 0.5]), 1.0 - 1e-16) == 1
        assert inverse_cdf_index(np.array([1.0, 0.0]), 1.0 - 1e-16) == 0
        assert inverse_cdf_index(np.array([0.3, 0.7 - 1e-6]), 1.0 - 1e-9) == 1


class TestInverseCdfRows:
    """The engine's vectorized draw against the scalar walk."""

    @staticmethod
    def _check(probs, us):
        probs = np.asarray(probs, dtype=np.float64)
        rows = np.broadcast_to(probs, (len(us), len(probs)))
        got = inverse_cdf_rows(rows, np.asarray(us, dtype=np.float64))
        assert got.tolist() == [inverse_cdf_index(probs, u) for u in us]

    def test_u_exactly_on_a_cumulative_sum(self):
        # u < acc is strict: u equal to a partial sum belongs to the next index
        self._check([0.25, 0.25, 0.5], [0.0, 0.25, 0.5, 0.75])

    def test_u_above_the_rounded_total_is_last_index(self):
        probs = np.full(10, 0.1)
        total = np.cumsum(probs)[-1]
        assert total < 1.0
        self._check(probs, [total, np.nextafter(1.0, 0.0), 0.95])
        self._check([0.3, 0.7 - 1e-6], [1.0 - 1e-9, 0.3, 0.29999999999999993])

    def test_zero_probability_entries(self):
        self._check([0.0, 0.5, 0.0, 0.5], [0.0, 0.25, 0.5, 0.9])
        self._check([0.5, 0.5, 0.0], [0.5, np.nextafter(1.0, 0.0)])
        self._check([1.0, 0.0], [0.0, 1.0 - 1e-16])

    def test_random_rows(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(7), size=500)
        probs[:, 2] = 0.0
        us = rng.random(500)
        got = inverse_cdf_rows(probs, us)
        assert got.tolist() == [inverse_cdf_index(p, u) for p, u in zip(probs, us)]
