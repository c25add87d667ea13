"""The numpy kernels against scalar field arithmetic and linear-algebra identities."""

import numpy as np
import pytest

from lrcdec import _kernels, linalg
from lrcdec.galois import Field


def _matmul_cases():
    """(q, A shape, B shape): the first two keep their original ids; the
    shapes are a generator block, the (47, 63) @ (63, 1) syndrome of the
    [63, 16] LRC check, the empty inner dimension of the zero code's
    encode, and a leading batch axis."""
    cases = [pytest.param(16, (6, 4), (4, 5), id="16"), pytest.param(7, (6, 4), (4, 5), id="7")]
    shapes = [((8, 12), (12, 8)), ((47, 63), (63, 1)), ((1, 0), (0, 7)), ((3, 4, 5), (3, 5, 2))]
    for q in [2, 16, 1024, 7, 13]:
        for a, b in shapes:
            dims = "@".join("x".join(map(str, shape)) for shape in (a, b))
            cases.append(pytest.param(q, a, b, id=f"{q}-{dims}"))
    return cases


@pytest.mark.parametrize("q, a_shape, b_shape", _matmul_cases())
def test_matmul_backends_agree(q, a_shape, b_shape):
    """The numpy kernel against scalar Field arithmetic, per batch element."""
    field = Field(q)
    rng = np.random.default_rng(q + 1)
    a = rng.integers(0, q, size=a_shape, dtype=np.int64)
    b = rng.integers(0, q, size=b_shape, dtype=np.int64)
    got = _kernels.matmul(a, b, field)
    assert got.dtype == np.int64 and got.shape == a_shape[:-1] + b_shape[-1:]
    for *batch, i, j in np.ndindex(got.shape):
        acc = 0
        for l in range(a_shape[-1]):
            acc = field.add(acc, field.mul(int(a[(*batch, i, l)]), int(b[(*batch, l, j)])))
        assert acc == got[(*batch, i, j)]


def _gauss_jordan(a, field, cols=None):
    """Oracle: (reduced form, rank, pivot columns) of the matrix a by scalar
    Field arithmetic, pivoting on the first nonzero entry at or below the
    current row, in the first cols columns only (default: all)."""
    m = a.tolist()
    pivots = []
    for c in range(a.shape[1] if cols is None else cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            f = m[i][c]
            if i != r and f:
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, len(pivots), pivots


@pytest.mark.parametrize("q", [2, 16, 1024, 7, 13])
def test_rref_matches_scalar_gauss_jordan(q):
    """Seeded matrices: zero columns with repeated rows (wide and tall), full
    rank (square and wide, rows and columns shuffled), all zero; sparse ones
    (rows already reduced, a rank-deficient unit block, no rows); and each
    with pivots limited to its first cols columns.  rref never writes to
    its argument."""
    field = Field(q)
    rng = np.random.default_rng(q + 7)
    deficient = rng.integers(0, q, size=(8, 16))
    deficient[:, [0, 5, 6]] = 0
    deficient[[3, 6]] = deficient[1]
    tall = rng.integers(0, q, size=(9, 4))
    tall[:, 2] = 0
    tall[4] = tall[0]
    unit = np.triu(rng.integers(0, q, size=(6, 6)), 1) + np.eye(6, dtype=np.int64)
    square = unit[rng.permutation(6)]
    wide = np.concatenate([unit[:5, :5], rng.integers(0, q, size=(5, 4))], axis=1)
    wide = wide[rng.permutation(5)][:, rng.permutation(9)]
    reduced = np.concatenate([np.eye(4, dtype=np.int64), rng.integers(0, q, size=(4, 3))], axis=1)
    sparse = np.zeros((7, 9), dtype=np.int64)  # a few scattered entries, rank 3
    sparse[[1, 1, 4, 6], [2, 7, 5, 0]] = rng.integers(1, q, size=4)
    sparse[5] = sparse[1]
    cases = [deficient, tall, square, wide, np.zeros((3, 4), dtype=np.int64), reduced,
             reduced[:, ::-1], sparse, np.zeros((0, 5), dtype=np.int64)]
    ranks = []
    for a in cases:
        before = a.copy()
        for cols in (None, *range(a.shape[1] + 1)):
            want, want_rank, want_piv = _gauss_jordan(a, field, cols)
            red, rank, piv = linalg.rref(a, field, cols)
            assert red.tolist() == want, cols
            assert rank == want_rank and piv.tolist() == want_piv, cols
            assert np.array_equal(a, before)
        ranks.append(linalg.rref(a, field)[1])
    assert ranks[0] <= 6 and ranks[1] <= 3 and ranks[2:] == [6, 5, 0, 4, 4, 3, 0]
    frozen = unit.copy()
    frozen.flags.writeable = False  # a read-only argument is reduced all the same
    assert linalg.rref(frozen, field)[1] == 6


@pytest.mark.parametrize("q", [2, 16, 1024, 7, 13])
def test_solve_and_nullspace(q):
    field = Field(q)
    rng = np.random.default_rng(5)
    a = rng.integers(0, q, size=(6, 9), dtype=np.int64)
    ns = linalg.right_nullspace(a, field)
    assert ns.shape[0] == 9 - linalg.rank(a, field)
    assert not linalg.matmul(a, ns.T, field).any()

    x_true = rng.integers(0, q, size=(9, 2), dtype=np.int64)
    b = linalg.matmul(a, x_true, field)
    x = linalg.solve(a, b, field)
    assert x is not None
    assert np.array_equal(linalg.matmul(a, x, field), b)


def _rank_cases(q, rng):
    """Seeded stacks: random, zero, rank-deficient; square, tall and wide."""
    field = Field(q)
    stacks = []
    for rows, cols in [(4, 4), (6, 3), (3, 6), (5, 5), (1, 4), (4, 1)]:
        s = rng.integers(0, q, size=(24, rows, cols), dtype=np.int64)
        s[0] = 0
        for b in range(1, 12):  # rank at most inner < min(rows, cols)
            inner = b % min(rows, cols)
            s[b] = linalg.matmul(
                rng.integers(0, q, size=(rows, inner)),
                rng.integers(0, q, size=(inner, cols)),
                field,
            )
        s[12] = s[13]  # repeated rows stay rank-deficient after a swap
        s[12, -1] = s[12, 0]
        stacks.append(s)
    return field, stacks


@pytest.mark.parametrize("q", [2, 16, 1024, 7])
def test_stacked_rank_matches_per_matrix_rank(q):
    field, stacks = _rank_cases(q, np.random.default_rng(q + 3))
    deficient = 0
    for s in stacks:
        got = linalg.rank(s, field)
        want = [linalg.rref(m, field)[1] for m in s]
        assert got.dtype == np.int64 and got.tolist() == want
        deficient += sum(w < min(s.shape[1:]) for w in want)
    assert deficient >= 6 * 12


def test_stacked_rank_empty_and_degenerate():
    field = Field(16)
    assert linalg.rank(np.zeros((0, 3, 4), dtype=np.int64), field).tolist() == []
    assert linalg.rank(np.zeros((2, 0, 4), dtype=np.int64), field).tolist() == [0, 0]
    assert linalg.rank(np.zeros((2, 3, 0), dtype=np.int64), field).tolist() == [0, 0]
    stack = np.array([np.eye(3, dtype=np.int64)] * 2)
    linalg.rank(stack, field)
    assert np.array_equal(stack, [np.eye(3)] * 2)  # the input is copied


def test_solve_inconsistent():
    field = Field(16)
    a = np.array([[1, 0], [2, 0], [0, 0]], dtype=np.int64)
    b = np.array([[0], [0], [1]], dtype=np.int64)
    assert linalg.solve(a, b, field) is None


def test_odd_extension_field_has_no_kernel_ctx():
    """The eliminations take a Field, and no Field exists for GF(9)."""
    with pytest.raises(ValueError, match="power of 2 or a prime"):
        linalg.rref(np.eye(2, dtype=np.int64), Field(9))


def _products_agree(field, a, b):
    """_vec_mul against scalar Field.mul and the table-free product."""
    got = _kernels._vec_mul(a, b, field)
    want = [field.mul(int(x), int(y)) for x, y in zip(a, b)]
    raw = [field._mul_raw(int(x), int(y)) for x, y in zip(a, b)]
    assert got.tolist() == want == raw


@pytest.mark.parametrize("q", [2, 4, 16, 256])
def test_vec_mul_every_pair(q):
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    _products_agree(Field(q), a.ravel(), b.ravel())


def test_vec_mul_largest_field():
    q = 2**20
    rng = np.random.default_rng(20)
    a = rng.integers(0, q, size=10**4, dtype=np.int64)
    b = rng.integers(0, q, size=10**4, dtype=np.int64)
    edge = np.array([0, 1, q - 1], dtype=np.int64)
    ea, eb = np.meshgrid(edge, edge, indexing="ij")
    zero_one = np.repeat([0, 1], a.size)
    others = np.tile(a, 2)
    _products_agree(
        Field(q),
        np.concatenate([a, ea.ravel(), zero_one, others]),
        np.concatenate([b, eb.ravel(), others, zero_one]),
    )


@pytest.mark.parametrize("q", [2, 16, 256, 13])
def test_powers_every_element(q):
    """Row i of powers is x^i for every element x, 0^0 = 1 included."""
    field = Field(q)
    got = _kernels.powers(np.arange(q), q + 1, field)
    assert got.shape == (q + 1, q)
    assert got[0].tolist() == [1] * q
    for i in range(q + 1):
        assert got[i].tolist() == [field._pow_raw(x, i) for x in range(q)]


@pytest.mark.parametrize("q", [2, 16, 256, 13])
def test_vec_inv_every_element(q):
    field = Field(q)
    xs = np.arange(1, q)
    assert _kernels._vec_inv(xs, field).tolist() == [field._pow_raw(x, q - 2) for x in range(1, q)]


def _sums_agree(field, a, b):
    """add and sub against plain integer sums taken mod p."""
    p = field.p
    assert _kernels.add(a, b, field).tolist() == ((a + b) % p).tolist()
    assert _kernels.sub(a, b, field).tolist() == ((a - b) % p).tolist()


def test_prime_add_sub_every_pair():
    field = Field(31)
    a, b = np.meshgrid(np.arange(31), np.arange(31), indexing="ij")
    _sums_agree(field, a.ravel(), b.ravel())
    # Python-int operands, as linalg's sub(0, x) passes
    for x in range(31):
        for y in range(31):
            assert _kernels.add(x, y, field) == (x + y) % 31
            assert _kernels.sub(x, y, field) == (x - y) % 31


def test_prime_add_sub_sampled_pairs():
    p = 3001
    rng = np.random.default_rng(3001)
    a = rng.integers(0, p, size=10**5, dtype=np.int64)
    b = rng.integers(0, p, size=10**5, dtype=np.int64)
    edge = np.array([0, 1, p - 2, p - 1], dtype=np.int64)
    ea, eb = np.meshgrid(edge, edge, indexing="ij")
    _sums_agree(Field(p), np.concatenate([a, ea.ravel()]), np.concatenate([b, eb.ravel()]))
