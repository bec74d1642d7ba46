import numpy as np
import pytest

from calderon.csalg import CStarAlgebra
from calderon.dirac import CollarGrid, ProductDiracModel


def algebra_family():
    return [
        CStarAlgebra.matrix(2),
        CStarAlgebra.matrix(3),
        CStarAlgebra.cyclic(4),
        CStarAlgebra.symmetric(3),
    ]


@pytest.fixture(params=["M2", "M3", "Z4", "S3"])
def algebra(request):
    return {
        "M2": CStarAlgebra.matrix(2),
        "M3": CStarAlgebra.matrix(3),
        "Z4": CStarAlgebra.cyclic(4),
        "S3": CStarAlgebra.symmetric(3),
    }[request.param]


@pytest.fixture
def rng():
    return np.random.default_rng(20240824)


def hermitian(rng, n, scale=1.0):
    mat = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (mat + mat.conj().T)


def cylinder_fixture(seed=424242):
    """Constant-potential cylinder over M2 used across the suite."""
    rng = np.random.default_rng(seed)
    alg = CStarAlgebra.matrix(2)
    model = ProductDiracModel("cylinder", alg, r=1, v=hermitian(rng, 2))
    grid = CollarGrid(n_u=24, n_y=12, kind="chebyshev")
    return model, grid


def y_coupled_model():
    """Cylinder over M2 with V(y) = diag(0.9, -0.4) + 0.3 cos(y): its double
    has one y-coupled channel per fiber coordinate."""
    alg = CStarAlgebra.matrix(2)
    base = np.diag([0.9, -0.4]).astype(complex)
    return ProductDiracModel(
        "cylinder", alg, v=lambda y: base + 0.3 * np.cos(y) * np.eye(2)
    )


def twisted_model(v=None):
    """Cylinder over M2 with holonomy diag(e^{2 pi i/4}, e^{2 pi i 0.6}) and
    V = diag(1, 0.5), or the given (constant or callable) v."""
    alg = CStarAlgebra.matrix(2)
    if v is None:
        v = np.diag([1.0, 0.5]).astype(complex)
    holonomy = np.diag(np.exp(2j * np.pi * np.array([0.25, 0.6])))
    return ProductDiracModel("cylinder", alg, v=v, holonomy=holonomy)


def fixture_models():
    """The model family exercised by the double/projector acceptance tests."""
    rng = np.random.default_rng(99)
    m2 = CStarAlgebra.matrix(2)
    z4 = CStarAlgebra.cyclic(4)
    out = []
    out.append(
        (
            "segment-M2",
            ProductDiracModel(
                "segment", m2, r=1, v=np.diag([1.0, -0.5]).astype(complex)
            ),
            CollarGrid(n_u=16, n_y=1, kind="chebyshev"),
        )
    )
    out.append(
        (
            "cylinder-M2",
            ProductDiracModel("cylinder", m2, r=1, v=hermitian(rng, 2)),
            CollarGrid(n_u=20, n_y=12, kind="chebyshev"),
        )
    )
    out.append(
        (
            "cylinder-Z4",
            ProductDiracModel(
                "cylinder",
                z4,
                r=1,
                v=np.diag([0.7, -0.3, 1.1, 0.2]).astype(complex),
            ),
            CollarGrid(n_u=20, n_y=12, kind="chebyshev"),
        )
    )
    out.append(
        (
            "cylinder-M2-antiperiodic",
            ProductDiracModel(
                "cylinder",
                m2,
                r=1,
                v=np.zeros((2, 2), dtype=complex),
                holonomy=-np.eye(2, dtype=complex),
            ),
            CollarGrid(n_u=20, n_y=12, kind="chebyshev"),
        )
    )
    return out
