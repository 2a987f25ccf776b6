import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfilter.errors import TruncationWarning, ValidationError
from qfilter.photonbox import (
    ATOM_JUMPS,
    CAVITY_JUMPS,
    DETECTIONS,
    PhotonBoxParams,
    atom_completeness_residual,
    cavity_completeness_deficit,
    composite_kraus,
    detection_error_model,
    displacement,
    fock_operators,
    l_operators,
)


class TestFockOperators:
    def test_two_level_annihilator(self):
        a, a_dag, n_op = fock_operators(1)
        assert np.abs(a - np.array([[0.0, 1.0], [0.0, 0.0]])).max() == 0.0
        assert np.abs(a_dag - a.conj().T).max() == 0.0

    def test_number_operator_diagonal(self):
        _, _, n_op = fock_operators(6)
        assert np.abs(np.diag(n_op).real - np.arange(7)).max() == 0.0

    def test_commutator_below_truncation(self):
        a, a_dag, _ = fock_operators(10)
        comm = a @ a_dag - a_dag @ a
        diag = np.diag(comm).real
        assert np.abs(diag[:10] - 1.0).max() < 1e-13
        # the corner entry differs: a_dag annihilates the top level
        assert diag[10] == pytest.approx(-10.0, abs=1e-12)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValidationError):
            fock_operators(0)


class TestDisplacement:
    def test_zero_amplitude_is_identity(self):
        assert np.abs(displacement(0.0, 10) - np.eye(11)).max() == 0.0

    def test_inverse_property(self):
        for alpha in (0.3, 0.5 + 0.2j, 1.0j):
            d = displacement(alpha, 10) @ displacement(-alpha, 10)
            assert np.abs(d - np.eye(11)).max() < 1e-8

    def test_unitary(self):
        d = displacement(0.7 + 0.1j, 10)
        assert np.abs(d.conj().T @ d - np.eye(11)).max() < 1e-6

    def test_coherent_mean_photon_number(self):
        # series oracle: mean photon number of a displaced vacuum is |alpha|^2
        d_op = displacement(0.5, 10)
        _, _, n_op = fock_operators(10)
        coherent = d_op[:, 0]
        mean_n = float((coherent.conj() @ n_op @ coherent).real)
        assert abs(mean_n - 0.25) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.05, 0.3, -0.7, 1.0])
    def test_real_amplitude_gives_a_real_orthogonal_operator(self, alpha):
        # Guards the real model: D(alpha) = exp(alpha (adag - a)) is real for
        # real alpha, with no eigensolver noise in its imaginary part.
        d = displacement(alpha, 10)
        assert not d.imag.any()
        assert np.abs(d.T @ d - np.eye(11)).max() <= 1e-14

    def test_truncation_warning(self):
        with pytest.warns(TruncationWarning):
            displacement(2.5, 8)


class TestElementaryOperators:
    def test_single_atom_certain_leaves_identity(self):
        params = PhotonBoxParams(p_atom=(1.0, 0.0, 0.0))
        ops = l_operators(params)
        assert np.abs(ops["no"] - np.eye(params.dim)).max() < 1e-15
        for label in ("g", "e", "gg", "ge", "eg", "ee"):
            assert np.abs(ops[label]).max() == 0.0

    def test_atom_jumps_are_diagonal(self):
        # photon-number states are fixed points of the probe (QND)
        ops = l_operators(PhotonBoxParams())
        for label in ATOM_JUMPS:
            op = ops[label]
            assert np.abs(op - np.diag(np.diag(op))).max() == 0.0

    def test_two_atom_orders_share_a_matrix(self):
        ops = l_operators(PhotonBoxParams())
        assert ops["ge"] is not ops["eg"]
        assert np.abs(ops["ge"] - ops["eg"]).max() == 0.0

    def test_atom_sector_exactly_complete(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(3))
            params = PhotonBoxParams(
                n_max=int(rng.integers(2, 12)),
                p_atom=(float(p[0]), float(p[1]), float(1 - p[0] - p[1])),
                phase_per_photon=float(rng.uniform(0, math.pi)),
                reference_phase=float(rng.uniform(0, 2 * math.pi)),
            )
            assert atom_completeness_residual(params) <= 1e-12

    def test_cavity_sector_deficit_second_order(self):
        params = PhotonBoxParams(decoherence_strength=1e-2, thermal_occupation=5e-2)
        deficit = cavity_completeness_deficit(params)
        assert deficit <= 30.0 * params.decoherence_strength**2
        halved = dataclasses.replace(params, decoherence_strength=5e-3)
        ratio = deficit / cavity_completeness_deficit(halved)
        assert 3.5 <= ratio <= 4.5

    def test_boundary_artifact_is_first_order(self):
        # the raw corner defect scales linearly, which is why
        # cavity_completeness_deficit excludes it from the second-order check
        def corner_defect(params):
            ops = l_operators(params)
            total = sum(ops[k].conj().T @ ops[k] for k in CAVITY_JUMPS)
            return abs(total[-1, -1] - 1.0)

        params = PhotonBoxParams()
        halved = dataclasses.replace(params, decoherence_strength=5e-3)
        assert corner_defect(params) / corner_defect(halved) < 3.5


class TestCompositeKraus:
    def test_count_order_and_labels(self):
        family = composite_kraus(PhotonBoxParams(), 0.0)
        assert family.count == 21
        assert family.labels[0] == "(no,o)"
        assert family.labels[5] == "(g,-)"
        assert family.labels == tuple(
            f"({qa},{qc})" for qa in ATOM_JUMPS for qc in CAVITY_JUMPS
        )

    def test_assembly_matches_definition(self):
        params = PhotonBoxParams()
        alpha = 0.4 - 0.3j
        family = composite_kraus(params, alpha)
        ops = l_operators(params)
        d_alpha = displacement(alpha, params.n_max)
        for qa in ATOM_JUMPS:
            for qc in CAVITY_JUMPS:
                expected = ops[qc] @ d_alpha @ ops[qa]
                idx = family.labels.index(f"({qa},{qc})")
                assert np.array_equal(family.operators[idx], expected), (qa, qc)

    def test_p_atom_list_is_coerced(self):
        # a JSON list must give the same hashable, cached family as a tuple
        params = PhotonBoxParams(p_atom=[0.2, 0.7, 0.1])
        assert params == PhotonBoxParams(p_atom=(0.2, 0.7, 0.1))
        assert composite_kraus(params) is composite_kraus(PhotonBoxParams())

    def test_family_deficit_second_order(self):
        params = PhotonBoxParams()
        family = composite_kraus(params, 0.0)
        gram = np.einsum("qki,qkj->ij", family.operators.conj(), family.operators)
        deficit = float(np.abs(gram - np.eye(family.dim)).max())
        assert deficit <= 30.0 * params.decoherence_strength**2

    def test_dominated_by_no_jump_at_small_decoherence(self):
        params = PhotonBoxParams(
            p_atom=(1.0, 0.0, 0.0),
            decoherence_strength=1e-6,
            thermal_occupation=1e-6,
        )
        family = composite_kraus(params, 0.0)
        idx = family.labels.index("(no,o)")
        assert np.abs(family.operators[idx] - np.eye(params.dim)).max() < 1e-4
        others = [i for i in range(21) if i != idx]
        assert max(np.abs(family.operators[i]).max() for i in others) < 1e-2

    def test_cached_per_alpha(self):
        params = PhotonBoxParams()
        assert composite_kraus(params, 0.25) is composite_kraus(params, 0.25)


class TestDetectionErrorModel:
    def test_perfect_detector_maps_jump_to_reading(self):
        params = PhotonBoxParams(
            detection_efficiency=1.0, assign_error_g=0.0, assign_error_e=0.0
        )
        eta = detection_error_model(params).eta
        for col, qa in enumerate(qa for qa in ATOM_JUMPS for _ in CAVITY_JUMPS):
            reading = "ge" if qa == "eg" else qa  # order is not resolved
            expected = np.zeros(6)
            expected[DETECTIONS.index(reading)] = 1.0
            assert np.abs(eta[:, col] - expected).max() == 0.0

    def test_dead_detector_sees_nothing(self):
        params = PhotonBoxParams(detection_efficiency=0.0)
        eta = detection_error_model(params).eta
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.abs(eta - expected[:, None]).max() == 0.0

    def test_single_ground_column_values(self):
        params = PhotonBoxParams(
            detection_efficiency=0.8, assign_error_g=0.1, assign_error_e=0.15
        )
        eta = detection_error_model(params).eta
        col = eta[:, 3 * ATOM_JUMPS.index("g")]
        assert col == pytest.approx([0.2, 0.72, 0.08, 0.0, 0.0, 0.0], abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        eps_d=st.floats(0.0, 1.0),
        eta_g=st.floats(0.0, 1.0),
        eta_e=st.floats(0.0, 1.0),
    )
    def test_two_atom_columns_closed_form(self, eps_d, eta_g, eta_e):
        params = PhotonBoxParams(
            detection_efficiency=eps_d, assign_error_g=eta_g, assign_error_e=eta_e
        )
        eta = detection_error_model(params).eta
        miss, g_ok, e_ok = 1.0 - eps_d, 1.0 - eta_g, 1.0 - eta_e
        mixed = [
            miss * miss,
            eps_d * miss * (g_ok + eta_e),
            eps_d * miss * (e_ok + eta_g),
            eps_d * eps_d * eta_e * g_ok,
            eps_d * eps_d * (g_ok * e_ok + eta_g * eta_e),
            eps_d * eps_d * eta_g * e_ok,
        ]
        expected = {
            "gg": [
                miss * miss,
                2.0 * eps_d * miss * g_ok,
                2.0 * eps_d * miss * eta_g,
                eps_d * eps_d * g_ok * g_ok,
                2.0 * eps_d * eps_d * eta_g * g_ok,
                eps_d * eps_d * eta_g * eta_g,
            ],
            "ge": mixed,
            "eg": mixed,
            "ee": [
                miss * miss,
                2.0 * eps_d * miss * eta_e,
                2.0 * eps_d * miss * e_ok,
                eps_d * eps_d * eta_e * eta_e,
                2.0 * eps_d * eps_d * eta_e * e_ok,
                eps_d * eps_d * e_ok * e_ok,
            ],
        }
        for qa, col in expected.items():
            got = eta[:, 3 * ATOM_JUMPS.index(qa)]
            assert np.abs(got - col).max() <= 1e-15, qa
        ge, eg = (eta[:, 3 * ATOM_JUMPS.index(qa)] for qa in ("ge", "eg"))
        assert np.array_equal(ge, eg)

    def test_columns_stochastic_across_parameter_space(self, rng):
        for _ in range(100):
            p = rng.dirichlet(np.ones(3))
            params = PhotonBoxParams(
                p_atom=(float(p[0]), float(p[1]), float(1 - p[0] - p[1])),
                detection_efficiency=float(rng.random()),
                assign_error_g=float(rng.random()),
                assign_error_e=float(rng.random()),
            )
            eta = detection_error_model(params).eta
            assert np.abs(eta.sum(axis=0) - 1.0).max() <= 1e-12
            assert eta.min() >= 0.0

    def test_columns_ignore_cavity_jump(self):
        eta = detection_error_model(PhotonBoxParams()).eta
        for qa_idx in range(len(ATOM_JUMPS)):
            block = eta[:, 3 * qa_idx : 3 * qa_idx + 3]
            assert np.abs(block - block[:, :1]).max() == 0.0


class TestParams:
    def test_atom_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            PhotonBoxParams(p_atom=(0.5, 0.4, 0.2))

    def test_rates_bounded(self):
        with pytest.raises(ValidationError):
            PhotonBoxParams(detection_efficiency=1.2)

    def test_decoherence_must_be_positive(self):
        with pytest.raises(ValidationError):
            PhotonBoxParams(decoherence_strength=0.0)

    @pytest.mark.parametrize("n_max", [2.5, 10.0, True, "10"])
    def test_n_max_must_be_an_integer(self, n_max):
        with pytest.raises(ValidationError):
            PhotonBoxParams(n_max=n_max)

    @pytest.mark.parametrize(
        "name",
        ["phase_per_photon", "reference_phase", "thermal_occupation", "decoherence_strength"],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_fields_must_be_finite(self, name, value):
        with pytest.raises(ValidationError):
            PhotonBoxParams(**{name: value})

    def test_p_atom_must_be_finite(self):
        with pytest.raises(ValidationError):
            PhotonBoxParams(p_atom=(math.nan, 0.5, 0.5))

    @pytest.mark.parametrize(
        "eps, n_th, n_max", [(2.0, 5e-2, 10), (1e200, 5e-2, 10), (0.2, 0.5, 5)]
    )
    def test_no_jump_operator_must_stay_positive(self, eps, n_th, n_max):
        # eps * ((1 + 2 n_th) n_max + n_th) / 2 >= 1: the "o" corner is <= 0
        with pytest.raises(ValidationError):
            PhotonBoxParams(
                n_max=n_max, decoherence_strength=eps, thermal_occupation=n_th
            )

    def test_strongest_verify_draw_is_accepted(self):
        # the verify suite draws eps <= 10^-1.5, n_th <= 0.1 and n_max <= 10
        params = PhotonBoxParams(
            n_max=10, decoherence_strength=10**-1.5, thermal_occupation=0.1
        )
        o = l_operators(params)["o"]
        assert np.diag(o).real.min() == pytest.approx(1.0 - 0.191, abs=1e-3)
