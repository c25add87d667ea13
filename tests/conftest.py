import numpy as np
import pytest

from lrcdec import Field, construct_tamo_barg, linalg, random_pmds


@pytest.fixture(scope="session")
def gf16():
    return Field(16)


@pytest.fixture(scope="session")
def gf8():
    return Field(8)


@pytest.fixture(scope="session")
def grs_membership():
    """membership(code) is the codeword test of a GRS code: length n and a
    zero syndrome under a parity check built once, when it is called."""

    def membership(code):
        parity = linalg.right_nullspace(code.generator, code.field)

        def is_codeword(word):
            if len(word) != code.n:
                return False
            word = np.asarray(word, dtype=np.int64)
            return not linalg.matmul(parity, word[:, None], code.field).any()

        return is_codeword

    return membership


@pytest.fixture(scope="session")
def tb_15_6(gf16):
    """The [15, 6, 3, 3] code over GF(16) used throughout."""
    return construct_tamo_barg(gf16, 15, 6, 3, 3)


@pytest.fixture(scope="session")
def pmds_12_4():
    """Verified random [12, 4, 2, 2] PMDS instance over GF(2^10)."""
    return random_pmds(2**10, 12, 4, 2, 2, seed=1)
