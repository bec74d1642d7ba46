import numpy as np
import pytest

from calderon.csalg import (
    AlgebraElement,
    CStarAlgebra,
    cyclic_table,
    is_positive,
    norm,
    spectrum,
    star,
    symmetric_table,
)
from calderon.errors import StructureError


def test_cyclic_table_is_group():
    table = cyclic_table(5)
    assert table[0] == list(range(5))
    assert table[2][3] == 0


def test_symmetric_table_order():
    assert len(symmetric_table(3)) == 6
    assert len(symmetric_table(4)) == 24


def test_bad_cayley_tables_rejected():
    with pytest.raises(StructureError):
        CStarAlgebra.group([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(StructureError):
        CStarAlgebra.group([[1, 0], [0, 1]])  # identity not at index 0


def test_size_limits():
    with pytest.raises(StructureError):
        CStarAlgebra.matrix(9)
    with pytest.raises(StructureError):
        CStarAlgebra.cyclic(25)


def test_regular_representation_faithful_homomorphism():
    alg = CStarAlgebra.symmetric(3)
    basis = alg._group_basis
    for g in range(6):
        for h in range(6):
            assert np.allclose(basis[g] @ basis[h], basis[alg.table[g][h]])
    flat = basis.reshape(6, -1)
    assert np.linalg.matrix_rank(flat) == 6


def test_cstar_identity(algebra, rng):
    for _ in range(50):
        a = algebra.random_element(rng)
        assert norm(star(a) * a) == pytest.approx(norm(a) ** 2, rel=1e-10)


def test_positivity(algebra, rng):
    for _ in range(20):
        a = algebra.random_element(rng)
        assert is_positive(star(a) * a)
        assert not is_positive(-(star(a) * a) - algebra.scalar(0.1))


def test_spectrum_of_projection():
    alg = CStarAlgebra.matrix(3)
    p = alg.element(np.diag([1.0, 1.0, 0.0]))
    eigs = np.sort_complex(spectrum(p))
    assert np.allclose(eigs, [0.0, 1.0, 1.0])


def test_group_membership_projection(rng):
    alg = CStarAlgebra.cyclic(4)
    a = alg.random_element(rng)
    assert alg.membership_defect(a.mat) < 1e-12
    junk = rng.standard_normal((4, 4))
    assert alg.membership_defect(junk) > 1e-3
    with pytest.raises(StructureError):
        alg.element(junk)


def test_descriptor_roundtrip(algebra):
    again = CStarAlgebra.from_descriptor(algebra.descriptor())
    assert again == algebra


def test_element_arithmetic(algebra, rng):
    a = algebra.random_element(rng)
    b = algebra.random_element(rng)
    lhs = star(a * b)
    rhs = star(b) * star(a)
    assert np.linalg.norm(lhs.mat - rhs.mat, 2) < 1e-12
    assert isinstance(2.0 * a - b, AlgebraElement)


def test_algebra_mismatch_rejected(rng):
    a = CStarAlgebra.matrix(2).random_element(rng)
    b = CStarAlgebra.cyclic(4).random_element(rng)
    with pytest.raises(StructureError):
        a + b


@pytest.mark.parametrize(
    "alg",
    [CStarAlgebra.matrix(2), CStarAlgebra.matrix(3), CStarAlgebra.cyclic(4)],
    ids=["M2", "M3", "Z4"],
)
@pytest.mark.parametrize("size", [(5,), (3, 19)], ids=["k", "k-by-19"])
def test_random_element_stack_is_the_sequential_stream(alg, size):
    rng_stacked = np.random.default_rng(7)
    # a power-of-two factor scales every value exactly
    stacked = 0.5 * alg.random_element(rng_stacked, size=size).mat
    rng = np.random.default_rng(7)
    one_by_one = [
        0.5 * alg.random_element(rng).mat for _ in range(np.prod(size))
    ]
    m = alg.rep_dim
    assert stacked.shape == size + (m, m)
    expected = np.stack(one_by_one).reshape(size + (m, m))
    assert np.array_equal(stacked, expected)
    # both streams are left at the same point
    assert rng_stacked.standard_normal() == rng.standard_normal()


@pytest.mark.parametrize(
    "alg",
    [CStarAlgebra.matrix(2), CStarAlgebra.matrix(3), CStarAlgebra.cyclic(4)],
    ids=["M2", "M3", "Z4"],
)
def test_random_element_default_draw(alg):
    # one element: real then imaginary coordinates, in the representation
    a = 2.0 * alg.random_element(np.random.default_rng(3)).mat
    rng = np.random.default_rng(3)
    if alg.kind == "matrix":
        m = alg.rep_dim
        mat = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    else:
        coeff = rng.standard_normal(alg.order) + 1j * rng.standard_normal(
            alg.order
        )
        mat = np.einsum("g,gij->ij", coeff, alg._group_basis)
    assert a.shape == (alg.rep_dim, alg.rep_dim)
    assert np.array_equal(a, 2.0 * mat)
