import math

import numpy as np
import pytest

from roofentropy import (
    BlockDensity,
    DensityOperator,
    Measurement,
    PureState,
    ReductionChannel,
    ValidationError,
    block_compression,
    block_entropy,
    commutative_channel,
    diagonal_pinching,
    identity_channel,
    pinching,
    reduce_state,
    von_neumann_entropy,
)

LN2 = 0.6931471805599453
LN3 = 1.0986122886681098


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g @ g.conj().T
    return DensityOperator(h / np.trace(h).real)


class TestReductionChannel:
    def test_completeness_enforced(self):
        half = 0.5 * np.eye(2)
        with pytest.raises(ValidationError, match="completeness"):
            ReductionChannel(2, (2,), ((0, half),))

    def test_block_index_bounds(self):
        with pytest.raises(ValidationError):
            ReductionChannel(2, (2,), ((1, np.eye(2)),))

    def test_kraus_shape_checked(self):
        with pytest.raises(ValidationError):
            ReductionChannel(2, (1,), ((0, np.eye(2)),))

    def test_non_finite_kraus_rejected(self):
        # NaN fails every comparison, so the completeness check alone lets it through
        with pytest.raises(ValidationError, match="non-finite"):
            ReductionChannel(2, (1, 1), ((0, [[1.0, np.nan]]), (1, [[0.0, 1.0]])))

    @pytest.mark.parametrize(
        "args,named",
        [
            ((2, (1.9, 1), ((0, [[1.0, 0.0]]), (1, [[0.0, 1.0]]))), r"block_dims\[0\]"),
            ((2, (True, 1), ((0, [[1.0, 0.0]]), (1, [[0.0, 1.0]]))), r"block_dims\[0\]"),
            ((2.0, (1, 1), ((0, [[1.0, 0.0]]), (1, [[0.0, 1.0]]))), "input_dim"),
            ((2, (1, 1), ((0, [[1.0, 0.0]]), (1.0, [[0.0, 1.0]]))), "Kraus term block"),
        ],
        ids=["fractional-block-dim", "bool-block-dim", "float-input-dim", "float-block-index"],
    )
    def test_dimensions_and_block_indices_must_be_integers(self, args, named):
        with pytest.raises(ValidationError, match=named + " must be an integer"):
            ReductionChannel(*args)

    def test_numpy_integers_accepted(self):
        i = np.int64
        ch = ReductionChannel(i(2), (i(1), i(1)), ((i(0), [[1.0, 0.0]]), (i(1), [[0.0, 1.0]])))
        assert (ch.input_dim, ch.block_dims) == (2, (1, 1))
        assert type(ch.input_dim) is int and [type(b) for b, _ in ch.kraus] == [int, int]

    @pytest.mark.parametrize("make", [identity_channel, diagonal_pinching])
    def test_constructors_take_integer_dimensions(self, make):
        with pytest.raises(ValidationError, match="dimension must be an integer"):
            make(2.0)

    def test_output_dim(self):
        ch = diagonal_pinching(3)
        assert ch.block_count == 3
        assert ch.output_dim == 3

    def test_kraus_grouped_by_block_in_term_order(self):
        s = math.sqrt(0.5)
        terms = ((2, [[s, 0.0]]), (0, s * np.eye(2)), (2, [[0.0, s]]))
        ch = ReductionChannel(2, (2, 1, 1), terms)
        assert [len(ops) for ops in ch.by_block] == [1, 0, 2]
        assert np.array_equal(ch.by_block[0][0], s * np.eye(2))
        assert [k.tolist() for k in ch.by_block[2]] == [[[s, 0.0]], [[0.0, s]]]
        assert "by_block" not in repr(ch)


class TestIdentityChannel:
    def test_reduce_is_identity(self, rng):
        rho = random_density(rng, 3)
        bd = reduce_state(identity_channel(3), rho)
        assert bd.block_dims == (3,)
        assert np.allclose(bd.blocks[0], rho.matrix)
        assert block_entropy(bd) == pytest.approx(von_neumann_entropy(rho), abs=1e-12)


class TestDiagonalPinching:
    def test_maximally_mixed(self):
        bd = reduce_state(diagonal_pinching(2), DensityOperator(np.eye(2) / 2))
        assert bd.probabilities() == pytest.approx([0.5, 0.5])
        assert block_entropy(bd) == pytest.approx(LN2, abs=1e-12)

    def test_kills_coherences(self):
        rho = DensityOperator([[0.5, 0.5], [0.5, 0.5]])
        bd = reduce_state(diagonal_pinching(2), rho)
        assert bd.probabilities() == pytest.approx([0.5, 0.5])

    def test_requires_dim_at_least_two(self):
        with pytest.raises(ValidationError):
            diagonal_pinching(1)


class TestPinching:
    def test_two_block_partition(self, rng):
        q1 = np.diag([1.0, 1.0, 0.0])
        q2 = np.diag([0.0, 0.0, 1.0])
        ch = pinching([q1, q2])
        assert ch.block_dims == (2, 1)
        rho = random_density(rng, 3)
        bd = reduce_state(ch, rho)
        assert np.allclose(bd.blocks[0], rho.matrix[:2, :2])
        assert bd.blocks[1][0, 0] == pytest.approx(rho.matrix[2, 2])
        assert sum(bd.probabilities()) == pytest.approx(1.0, abs=1e-12)

    def test_rotated_projections(self, rng):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        q1 = u[:, :2] @ u[:, :2].conj().T
        q2 = u[:, 2:] @ u[:, 2:].conj().T
        ch = pinching([q1, q2])
        rho = random_density(rng, 3)
        bd = reduce_state(ch, rho)
        # compression spectrum matches the projected operator's nonzero part
        direct = np.linalg.eigvalsh(q1 @ rho.matrix @ q1)
        got = np.linalg.eigvalsh(bd.blocks[0])
        assert np.allclose(sorted(direct[-2:]), sorted(got), atol=1e-10)

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError, match="idempotent"):
            pinching([0.5 * np.eye(2), 0.5 * np.eye(2)])

    def test_rejects_overlapping_pair(self):
        q = np.diag([1.0, 0.0])
        with pytest.raises(ValidationError, match="orthogonal"):
            pinching([q, q])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="projection 0 has non-finite"):
            pinching([np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])])

    def test_rejects_incomplete_family(self):
        with pytest.raises(ValidationError, match="identity"):
            pinching([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])])


@pytest.mark.parametrize("build", [
    lambda: ReductionChannel(2, (1,), ((0, [[1.0, 0.0]]),)),
    lambda: pinching([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]),
    lambda: Measurement((np.diag([1.0, 0.0]),)),
], ids=["kraus", "projections", "outcomes"])
def test_families_share_the_identity_sum_check(build):
    with pytest.raises(ValidationError, match="do not sum to identity: completeness defect 1.000e"):
        build()


class TestBlockCompression:
    def test_basis_direction_on_mixed(self):
        psi = PureState(np.array([0.0, 0.0, 1.0]))
        ch = block_compression(psi)
        assert ch.block_dims == (2, 1)
        bd = reduce_state(ch, DensityOperator(np.eye(3) / 3))
        assert bd.probabilities() == pytest.approx([2 / 3, 1 / 3])
        assert block_entropy(bd) == pytest.approx(LN3, abs=1e-12)

    def test_distinguished_weight_is_expectation(self, rng):
        rho = random_density(rng, 4)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = PureState(g / np.linalg.norm(g))
        bd = reduce_state(block_compression(psi), rho)
        lam = float(np.vdot(psi.vector, rho.matrix @ psi.vector).real)
        assert bd.blocks[1][0, 0] == pytest.approx(lam, abs=1e-12)

    def test_on_the_distinguished_pure_state(self):
        psi = PureState(np.array([0.0, 1.0]))
        bd = reduce_state(block_compression(psi), psi.density())
        assert bd.probabilities() == pytest.approx([0.0, 1.0], abs=1e-12)


class TestCommutativeChannel:
    def test_blocks_are_scalars_per_projection(self, rng):
        q1 = np.diag([1.0, 1.0, 0.0])
        q2 = np.diag([0.0, 0.0, 1.0])
        ch = commutative_channel([q1, q2])
        assert ch.block_dims == (1, 1)
        rho = random_density(rng, 3)
        bd = reduce_state(ch, rho)
        assert bd.blocks[0][0, 0] == pytest.approx(
            float(np.trace(q1 @ rho.matrix).real), abs=1e-12
        )

    def test_entropy_is_shannon_of_weights(self):
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        ch = commutative_channel([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])
        bd = reduce_state(ch, rho)
        assert block_entropy(bd) == pytest.approx(
            -(0.8 * math.log(0.8) + 0.2 * math.log(0.2)), abs=1e-12
        )

    @pytest.mark.parametrize("bad", [np.zeros((0, 0)), np.float64(1.0)], ids=["empty", "0-d"])
    def test_rejects_empty_or_scalar_projection(self, bad):
        with pytest.raises(ValidationError, match="projection 0 has shape"):
            commutative_channel([bad])


class TestBlockDensity:
    def test_traces_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="trace"):
            BlockDensity((np.array([[0.5]]), np.array([[0.6]])))

    def test_blocks_must_be_positive(self):
        with pytest.raises(ValidationError):
            BlockDensity((np.array([[1.5]]), np.array([[-0.5]])))

    def test_non_finite_block_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            BlockDensity((np.array([[np.nan]]), np.array([[0.5]])))

    def test_to_dense_direct_sum(self):
        bd = BlockDensity((np.array([[0.5]]), np.array([[0.5]])))
        assert np.allclose(bd.to_dense(), np.diag([0.5, 0.5]))

    def test_state_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            reduce_state(diagonal_pinching(2), DensityOperator(np.eye(3) / 3))
