import numpy as np
import pytest

from hotspot.seeds import derive_seed


@pytest.mark.parametrize("as_numpy", [np.int32, np.int64, np.uint64])
def test_numpy_integer_tokens_derive_the_python_int_seed(as_numpy):
    assert derive_seed(1, "n", as_numpy(5)) == derive_seed(1, "n", 5)
    assert derive_seed(as_numpy(3), as_numpy(0), "x") == derive_seed(3, 0, "x")


def test_token_kinds_stay_distinct():
    assert derive_seed(1, True) == derive_seed(1, 1)
    assert derive_seed(1, 5) != derive_seed(1, 5.0)
    assert derive_seed(1, 5) != derive_seed(1, "5")
    assert derive_seed(1, 2**64 + 5) == derive_seed(1, 5)  # tokens wrap at 64 bits
