"""``random_matrix_polynomial`` draws every term in one call: the same
coefficients and the same generator state as one draw per term."""

import pytest

from symbidisc.generators import random_matrix_polynomial, rng_from_seed

from _oracles import matrix_polynomial_oracle


@pytest.mark.parametrize("seed", [0, 1, 7, 1310])
def test_one_draw_is_the_per_term_stream(seed):
    rng, ref = rng_from_seed(seed), rng_from_seed(seed)
    for degree in range(5):
        for block_dim in (1, 2, 3):
            got = random_matrix_polynomial(rng, degree, block_dim)
            want = matrix_polynomial_oracle(ref, degree, block_dim)
            assert got.coeffs.shape == want.coeffs.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert rng.bit_generator.state == ref.bit_generator.state
    got, want = random_matrix_polynomial(rng), matrix_polynomial_oracle(ref)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize("degree, block_dim", [(-1, 2), (-2, 2), (3, 0)])
def test_invalid_inputs_raise_as_before(degree, block_dim):
    rng, ref = rng_from_seed(5), rng_from_seed(5)
    with pytest.raises(ValueError) as got:
        random_matrix_polynomial(rng, degree, block_dim)
    with pytest.raises(ValueError) as want:
        matrix_polynomial_oracle(ref, degree, block_dim)
    assert str(got.value) == str(want.value)
    assert rng.bit_generator.state == ref.bit_generator.state
