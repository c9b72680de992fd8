import numpy as np
import pytest

from hotspot.seeds import derive_seed, splitmix64, splitmix64_array

_GOLDEN = 0x9E3779B97F4A7C15


@pytest.mark.parametrize("as_numpy", [np.int32, np.int64, np.uint64])
def test_numpy_integer_tokens_derive_the_python_int_seed(as_numpy):
    assert derive_seed(1, "n", as_numpy(5)) == derive_seed(1, "n", 5)
    assert derive_seed(as_numpy(3), as_numpy(0), "x") == derive_seed(3, 0, "x")


def test_token_kinds_stay_distinct():
    assert derive_seed(1, True) == derive_seed(1, 1)
    assert derive_seed(1, 5) != derive_seed(1, 5.0)
    assert derive_seed(1, 5) != derive_seed(1, "5")
    assert derive_seed(1, 2**64 + 5) == derive_seed(1, 5)  # tokens wrap at 64 bits


def test_splitmix64_array_is_bit_identical_to_the_scalar():
    edges = [0, 1, 2**63, 2**64 - 1,
             2**64 - _GOLDEN - 1, 2**64 - _GOLDEN, 2**64 - _GOLDEN + 1]  # + golden wraps
    words = edges + np.random.default_rng(4).integers(
        0, 2**64, size=10_000, dtype=np.uint64).tolist()
    got = splitmix64_array(np.array(words, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [splitmix64(w) for w in words]
    assert splitmix64_array(5).tolist() == [splitmix64(5)]
