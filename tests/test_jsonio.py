import json

import numpy as np
import pytest

from roofentropy import (
    DensityOperator,
    Ensemble,
    PureState,
    ValidationError,
    block_compression,
    channel_from_json,
    channel_to_json,
    commutative_channel,
    decode_matrix,
    decode_vector,
    density_from_json,
    diagonal_pinching,
    encode_matrix,
    encode_vector,
    ensemble_from_json,
    ensemble_to_json,
    pure_from_json,
    round_floats,
)


class TestScalarsAndArrays:
    def test_vector_roundtrip(self):
        v = np.array([1.0, 0.5 - 0.25j, 2j])
        assert np.array_equal(decode_vector(encode_vector(v)), v)

    def test_matrix_roundtrip(self):
        m = np.array([[1.0, 1j], [-1j, 0.0]])
        assert np.array_equal(decode_matrix(encode_matrix(m)), m)

    def test_plain_numbers_decode_as_real(self):
        assert np.array_equal(decode_vector([1, 2.5]), np.array([1.0, 2.5]))

    def test_pairs_decode_as_complex(self):
        assert decode_vector([[0.0, 1.0]])[0] == 1j

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValidationError, match="ragged"):
            decode_matrix([[1, 2], [3]])

    def test_empty_vector_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            decode_vector([])

    def test_junk_scalar_rejected(self):
        with pytest.raises(ValidationError, match="pair"):
            decode_vector(["one"])

    def test_three_element_entry_rejected(self):
        # [re, im, extra] is not a complex pair
        with pytest.raises(ValidationError):
            decode_vector([[1.0, 2.0, 3.0]])

    @pytest.mark.parametrize("data", [[True, 0], [[0.5, False]]])
    def test_booleans_are_not_numbers(self, data):
        with pytest.raises(ValidationError, match="pair"):
            decode_vector(data)

    def test_output_is_json_serializable(self):
        m = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
        text = json.dumps(encode_matrix(m))
        assert np.array_equal(decode_matrix(json.loads(text)), m)


class TestStates:
    def test_density_roundtrip(self):
        rho = DensityOperator(np.array([[0.75, 0.25j], [-0.25j, 0.25]]))
        again = density_from_json(encode_matrix(rho.matrix))
        assert np.allclose(again.matrix, rho.matrix, atol=1e-15)

    def test_density_validates(self):
        with pytest.raises(ValidationError, match="trace"):
            density_from_json(encode_matrix(np.eye(2)))

    def test_pure_roundtrip(self):
        psi = PureState(np.array([0.6, 0.8j]))
        again = pure_from_json(encode_vector(psi.vector))
        assert np.allclose(again.vector, psi.vector, atol=1e-15)


class TestEnsembles:
    def test_roundtrip(self):
        ens = Ensemble(
            np.array([0.3, 0.7]),
            (
                DensityOperator(np.diag([1.0, 0.0])),
                DensityOperator(np.eye(2) / 2),
            ),
        )
        again = ensemble_from_json(ensemble_to_json(ens))
        assert np.allclose(again.weights, ens.weights, atol=1e-15)
        for a, b in zip(again.states, ens.states):
            assert np.allclose(a.matrix, b.matrix, atol=1e-15)

    def test_unknown_key_rejected(self):
        data = ensemble_to_json(
            Ensemble(np.array([1.0]), (DensityOperator(np.eye(2) / 2),))
        )
        data["probs"] = [1.0]
        with pytest.raises(ValidationError, match="unknown keys"):
            ensemble_from_json(data)

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError, match="missing keys"):
            ensemble_from_json({"weights": [1.0]})

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError, match="JSON object"):
            ensemble_from_json([1.0])

    @pytest.mark.parametrize("weight", [True, "1", None])
    def test_weights_must_be_numbers(self, weight):
        with pytest.raises(ValidationError, match="weights must be JSON numbers"):
            ensemble_from_json({"weights": [weight], "states": [[[1, 0], [0, 0]]]})


class TestChannels:
    def test_explicit_roundtrip(self):
        channel = diagonal_pinching(3)
        again = channel_from_json(channel_to_json(channel))
        assert again.input_dim == 3
        assert again.block_dims == (1, 1, 1)
        for (b1, k1), (b2, k2) in zip(again.kraus, channel.kraus):
            assert b1 == b2
            assert np.allclose(k1, k2, atol=1e-15)

    def test_diagonal_shorthand(self):
        channel = channel_from_json({"type": "diagonal", "dim": 4})
        assert channel.block_dims == (1,) * 4

    def test_block_compression_shorthand(self):
        psi = np.array([0.0, 0.0, 1.0])
        channel = channel_from_json({"type": "block_compression", "psi": encode_vector(psi)})
        direct = block_compression(PureState(psi))
        assert channel.block_dims == direct.block_dims
        for (b1, k1), (b2, k2) in zip(channel.kraus, direct.kraus):
            assert b1 == b2
            assert np.allclose(k1, k2, atol=1e-12)

    def test_commutative_shorthand(self):
        projs = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        channel = channel_from_json(
            {"type": "commutative", "projections": [encode_matrix(p) for p in projs]}
        )
        direct = commutative_channel(projs)
        assert channel.block_dims == direct.block_dims

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown channel type"):
            channel_from_json({"type": "depolarizing", "dim": 2})

    def test_shorthand_extra_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown keys"):
            channel_from_json({"type": "diagonal", "dim": 2, "noise": 0.1})

    def test_kraus_term_keys_checked(self):
        data = channel_to_json(diagonal_pinching(2))
        data["kraus"][0]["weight"] = 1.0
        with pytest.raises(ValidationError, match="unknown keys"):
            channel_from_json(data)

    @pytest.mark.parametrize("dim", ["2", True, None, 2.7, 2.0, float("inf")])
    def test_dim_must_be_a_json_integer(self, dim):
        with pytest.raises(ValidationError, match="diagonal pinching dimension must be an integer"):
            channel_from_json({"type": "diagonal", "dim": dim})

    @pytest.mark.parametrize(
        "path,name",
        [(("input_dim",), "input_dim"), (("block_dims", 1), r"block_dims\[1\]"),
         (("kraus", 1, "block"), "Kraus term block")],
        ids=["input_dim", "block_dims", "kraus-block"],
    )
    def test_explicit_integer_fields_checked(self, path, name):
        data = channel_to_json(diagonal_pinching(2))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = False
        with pytest.raises(ValidationError, match=name + " must be an integer, got False"):
            channel_from_json(data)

    @pytest.mark.parametrize("field", ["block_dims", "kraus"])
    def test_explicit_lists_checked(self, field):
        data = dict(channel_to_json(diagonal_pinching(2)), **{field: {"0": 1}})
        with pytest.raises(ValidationError, match=field + " must be an array"):
            channel_from_json(data)


class TestRoundFloats:
    def test_rounds_to_significant_digits(self):
        assert round_floats(0.1234567890123456) == 0.123456789012

    def test_preserves_bools_and_ints(self):
        out = round_floats({"flag": True, "count": 3, "x": 1.0000000000001})
        assert out["flag"] is True
        assert out["count"] == 3
        assert out["x"] == 1.0

    def test_recurses_into_lists(self):
        out = round_floats([[1.23456789012345e-7], {"y": (2.0 / 3.0,)}])
        assert out[0][0] == 1.23456789012e-07
        assert out[1]["y"][0] == 0.666666666667

    def test_custom_digits(self):
        assert round_floats(np.pi, digits=4) == 3.142
