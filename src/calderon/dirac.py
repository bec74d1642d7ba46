"""Product-form Dirac models on the segment and the cylinder, and their
invertible double.

The model operator is D+ = G (d/du + B) on u in [0,1] with G = i sigma_2
(tensored with the twist) and tangential part B = sigma_1 (-i d/dy) + sigma_3
V(y); G is unitary with G* = -G and anticommutes with B.  The double is
realized as a transmission problem for the pair (phi, tau), where phi is the
side-1 section and tau is the side-2 section pulled back to [0,1] in the
Clifford gauge tau = G* sigma_2-side-section.  In that gauge the side-2
operator reads (-d/du + B) and the gluing conditions are

    tau(0) = phi(0),        tau(1) = -phi(1),

so homogeneous solutions phi = exp(-uB) a, tau = exp(uB) a must satisfy
exp(2B) a = -a, which is impossible for self-adjoint B: the double is
injective mode by mode.

Two choices are independent.  The u-rule comes from ``grid.kind``:
Chebyshev collocation, or 4th-order finite differences with one-sided
closures on a uniform grid.  The channels come from V
(:meth:`ProductDiracModel.mode_channels`): a constant V gives one channel
per dealiased y-mode and holonomy eigenphase; a V(y) gives one y-coupled
channel per cluster of the commutant split of its samples and the
holonomy (:func:`commutant_split`), whose tangential block is B,
pseudospectral in y and Hermitian as well, on the (y-point, cluster)
coordinates.  The double's channel list is the one channel map: each
channel reads its own y-slabs of boundary data (``ModeChannel.slabs``: its
y-Fourier coefficient per mode, from one y-FFT for all of them; every
sample on a y-coupled channel) through its embedding, and adds back into
them, with one code path for both kinds.  Past that, every channel runs
the same code on either u-grid.

A holonomy H, s(y + 2 pi) = H s(y), is taken in the periodic gauge
s = e^{iy Theta} p, Theta = sum of shift * basis basis^* over the
eigenphase channels (e^{2 pi i Theta} = H).  Grid values and boundary data
always mean p, on which B reads sigma_1 (-i d/dy + Theta) + sigma_3 V(y);
V(y) must commute with H.

Every channel is solved and certified in the eigenbasis of its Hermitian
tangential block b = U diag(lambda) U*.  The channel system kron(D, I) +
kron(S, b) plus identity gluing rows is unitarily similar to the block
diagonal of the real scalar transmission systems A(lambda_k) of size
2(n_u+1), one per eigenvalue.  Both u-rules have J D J = -D bit for bit (J
reverses the nodes), so in the unknown z = phi + i J tau each A(lambda) is
the realification of the complex half system

    C(lambda) = C(0) + lambda T = [(D + lambda I)[1:]; e_0^T + i e_n^T]

of size n_u+1 (:func:`_realify` gives A back): the double of [0, 1] is a
circle of length 2, closed by the factor i.  Every singular value of
A(lambda) is one of C(lambda), counted twice.  The double stores one
C(lambda) per distinct eigenvalue of all its channels (only bit-identical
ones merge, as the spectra of the modes eta and -eta do).  Their full SVDs
give each channel's smallest singular value (no estimate), the stack split
over the CPUs by :func:`~calderon.csalg.map_members`, and a solve is
one batched ``np.linalg.solve`` over the channel's C(lambda_k), whose
columns are filled straight from the rotated data (A(lambda) is never
formed to solve); no LU factors are stored.  The eigendecomposition
residual ||bU - U Lambda||_2 and the unitarity defect ||U*U - I||_2 are
kept with the channel: by Weyl's inequality the decoupled sigma_min is
within ||bU - U Lambda||_2 + 2 ||b||_2 ||U*U - I||_2 of that of the coupled
channel system.

:meth:`DoubleSystem.solve` is the one solve of the double: the inverse
(:func:`invert_double`) and the Poisson operator are that transmission
solve with different data.

Each channel keeps its exact oracle P(e^{-b}) = 1/2 [[I + tanh b, sech
b], [sech b, I - tanh b]] (:func:`exact_channel`), bounded at any ||b||:
no e^{+-b} is formed (:func:`tanh_sech`), so nothing rounds at eps e^{||b||}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csalg import AlgebraElement, adjoint_defect, dagger, herm, map_groups
from .csalg import map_members, opnorm, singular_values
from .errors import CertificationError, StructureError

SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

#: smallest certified singular value for the assembled double
DOUBLE_CERT_TOL = 1e-10

#: :func:`commutant_split`: the seed of its combination, the relative
#: eigenvalue gap it splits at and the bound it certifies a split to
SPLIT_SEED = 20100521
SPLIT_GAP = 1e-3
SPLIT_TOL = 1e-12


# -- u-axis discretizations --------------------------------------------


def chebyshev_nodes_diff(n):
    """Chebyshev-Lobatto nodes on [0,1] (ascending) and the differentiation
    matrix that is exact on polynomials of degree n."""
    if n < 2:
        raise StructureError("need at least 2 intervals")
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)  # descending on [-1,1]
    c = np.ones(n + 1)
    c[0] = c[n] = 2.0
    c = c * (-1.0) ** j
    big_x = np.tile(x, (n + 1, 1)).T
    dx = big_x - big_x.T
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    # map x -> u = (1-x)/2: ascending nodes, d/du = -2 d/dx
    u = (1.0 - x) / 2.0
    d_u = -2.0 * d
    # J D J = -D bit for bit (J reverses the nodes), as the continuum
    # reflection u -> 1 - u gives; exact, since IEEE subtraction is
    # antisymmetric and halving is exact
    return u, 0.5 * (d_u - d_u[::-1, ::-1])


def clenshaw_curtis_weights(n):
    """Quadrature weights for the ascending Chebyshev-Lobatto nodes on [0,1]."""
    if n % 2:
        raise StructureError("Clenshaw-Curtis needs an even interval count")
    w = np.zeros(n + 1)
    theta = np.pi * np.arange(n + 1) / n
    for j in range(n + 1):
        s = 0.0
        for kk in range(1, n // 2 + 1):
            b = 2.0 if kk < n // 2 else 1.0
            s += b / (4.0 * kk**2 - 1.0) * np.cos(2.0 * kk * theta[j])
        w[j] = (2.0 / n) * (1.0 - s)
    w[0] /= 2.0
    w[n] /= 2.0
    return w / 2.0  # interval length 1 (weights are symmetric in the node)


_FD4_EDGE = np.array(
    [
        [-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -1.0 / 4.0],
        [-1.0 / 4.0, -5.0 / 6.0, 3.0 / 2.0, -1.0 / 2.0, 1.0 / 12.0],
    ]
)
_FD4_CENTER = np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0])


def fd4_diff(n, h):
    """4th-order first-derivative matrix on n+1 uniform nodes, one-sided
    closures at the two boundary rows on each end."""
    if n < 4:
        raise StructureError("need at least 4 intervals for the FD4 stencil")
    d = np.zeros((n + 1, n + 1))
    d[0, :5] = _FD4_EDGE[0]
    d[1, :5] = _FD4_EDGE[1]
    for i in range(2, n - 1):
        d[i, i - 2 : i + 3] = _FD4_CENTER
    d[n - 1, n - 4 :] = -_FD4_EDGE[1][::-1]
    d[n, n - 4 :] = -_FD4_EDGE[0][::-1]
    return d / h


def simpson_weights(n, h):
    if n % 2:
        raise StructureError("Simpson needs an even interval count")
    w = np.zeros(n + 1)
    w[0] = w[n] = 1.0
    w[1:n:2] = 4.0
    w[2:n:2] = 2.0
    return w * h / 3.0


@dataclass(frozen=True)
class CollarGrid:
    """u-discretization of the collar [0,1] plus the boundary circle."""

    n_u: int  # number of u-intervals
    n_y: int  # y-points on the boundary circle (1 for the segment)
    kind: str  # u-rule: 'chebyshev' (collocation) | 'uniform' (FD4)

    def __post_init__(self):
        if self.kind not in ("chebyshev", "uniform"):
            raise StructureError("grid kind must be chebyshev or uniform")
        if self.n_u < 4 or self.n_u % 2:
            raise StructureError("n_u must be even and >= 4")
        if self.n_y != 1 and (self.n_y < 8 or self.n_y % 2):
            raise StructureError("n_y must be 1 or even >= 8")

    @property
    def n_nodes(self):
        return self.n_u + 1

    def u_nodes(self):
        if self.kind == "chebyshev":
            return chebyshev_nodes_diff(self.n_u)[0]
        return np.linspace(0.0, 1.0, self.n_u + 1)

    def diff_matrix(self):
        if self.kind == "chebyshev":
            return chebyshev_nodes_diff(self.n_u)[1]
        return fd4_diff(self.n_u, 1.0 / self.n_u)

    def quad_weights(self):
        if self.kind == "chebyshev":
            return clenshaw_curtis_weights(self.n_u)
        return simpson_weights(self.n_u, 1.0 / self.n_u)


def mode_radius(n_y):
    """Largest |eta| of the integer y-frequencies kept by the 2/3 rule."""
    return n_y // 3


def y_points(n_y):
    """The n_y equispaced sample points 2 pi j / n_y of the boundary circle."""
    return 2.0 * np.pi * np.arange(n_y) / n_y


def y_weight(n_y):
    """Quadrature weight of one y-sample (1 on the segment, where n_y = 1)."""
    return 2.0 * np.pi / n_y if n_y > 1 else 1.0


class CollarFunction:
    """Section sampled on a collar grid: shape (n_nodes, n_y, fiber, m)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 4 or values.shape[:2] != (grid.n_nodes, grid.n_y):
            raise StructureError(
                "values shape %r does not match collar grid" % (values.shape,)
            )
        self.grid = grid
        self.values = values

    def norm(self):
        """Quadrature L^2 norm (Frobenius fiberwise)."""
        w = self.grid.quad_weights()
        dens = np.sum(np.abs(self.values) ** 2, axis=(2, 3))
        dy = y_weight(self.grid.n_y)
        return float(np.sqrt(np.sum(w[:, None] * dens) * dy))


# -- the model ----------------------------------------------------------


def _check_finite(a, name):
    """Refuse an operator, or a stack of them, with a NaN or infinite entry
    or with a 1-norm that overflows: :func:`tanh_sech` scales by it."""
    if not np.isfinite(a).all():
        raise StructureError("%s must have finite entries" % name)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.abs(a).sum(axis=-2)).all():
            raise StructureError("%s must have a finite 1-norm" % name)


def _check_self_adjoint(a, name):
    """Refuse a matrix, or a stack of them, that is not self-adjoint to
    1e-12 relative to its 2-norm.  Like the holonomy checks, it passes only
    a defect <= its bound, so a defect that overflows to NaN fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.all(adjoint_defect(a) <= 1e-12 * np.maximum(1.0, opnorm(a)))
    if not ok:
        raise StructureError("%s must be self-adjoint" % name)


def commutant_split(mats):
    """Invariant subspaces of all Hermitian ``mats`` (k, n, n) (the
    commutant step of Murota, Kanno, Kojima & Kojima, Japan J. Indust.
    Appl. Math. 27, 2010): the eigenvectors E of one combination
    sum c_j mats[j], the c_j in [1, 2) from a generator seeded SPLIT_SEED,
    cut into clusters at eigenvalue gaps above SPLIT_GAP times its norm.
    Returns E, the clusters (column slices) and the certificate: their
    count, ||E*E - I||_2 and the largest off-block part of E* mats[j] E
    relative to max(1, ||mats[j]||_2), as :func:`_check_self_adjoint`
    measures.  One cluster, or a split that fails SPLIT_TOL (matrices that
    do not commute), is returned as E = I.  Matrices whose combination, or
    the gaps of its eigenvalues, overflow are refused (StructureError)."""
    mats = np.asarray(mats, dtype=complex)
    n = mats.shape[-1]
    coef = np.random.default_rng(SPLIT_SEED).uniform(1.0, 2.0, len(mats))
    with np.errstate(over="ignore", invalid="ignore"):
        comb = np.tensordot(coef, mats, axes=1)
    if not np.isfinite(comb).all():
        raise StructureError("the combination of the v samples overflows")
    w, e = np.linalg.eigh(comb)
    with np.errstate(over="ignore"):
        gaps = np.diff(w)
    if not np.isfinite(gaps).all():
        raise StructureError("the eigenvalue gaps of the v samples overflow")
    cuts = [0, *np.flatnonzero(gaps > SPLIT_GAP * np.abs(w).max()) + 1]
    clusters = [slice(a, b) for a, b in zip(cuts, cuts[1:] + [n])]
    rot = dagger(e) @ mats @ e
    for c in clusters:
        rot[:, c, c] = 0.0
    residual = float((opnorm(rot) / np.maximum(1.0, opnorm(mats))).max())
    defect = float(opnorm(dagger(e) @ e - np.eye(n)))
    if len(clusters) == 1 or max(residual, defect) > SPLIT_TOL:
        e, clusters, residual, defect = np.eye(n), [slice(0, n)], 0.0, 0.0
    return e, clusters, {
        "commutant_clusters": len(clusters),
        "commutant_unitarity_defect": defect,
        "commutant_offblock_residual": residual,
    }


def _fiber_embedding(basis):
    """diag(basis, basis), (2rm, 2q), by slice assignment: np.kron would
    write 0 * (-x) = -0.0 into the off-blocks."""
    rm, q = basis.shape
    embedding = np.zeros((2 * rm, 2 * q), dtype=complex)
    embedding[:rm, :q] = embedding[rm:, q:] = basis
    return embedding


@dataclass
class ModeChannel:
    """One channel block: the integer frequency ``eta`` of the periodic
    part, the eigenphase ``shift``, the channel's embedding and the
    y-slabs it reads.

    ``embedding`` = E = diag(basis, basis) embeds the channel's coordinates,
    spinor x subspace (orthonormal ``basis``, (rm, q)), into the full
    fiber, and ``slabs`` selects the y-slabs of boundary data it reads:
    the y-Fourier coefficient k = eta mod n_y per mode, every sample on a
    y-coupled channel (``coupled``, with the certificate ``split`` of its
    commutant split; eta = 0).  The channel's coordinates are E* at each of
    its slabs, so it embeds by I_k x E, and ``b_mat`` is B(eta + shift)
    on them, or B on the samples of a y-coupled channel.
    """

    eta: float
    shift: float
    embedding: np.ndarray  # (2rm, 2q)
    b_mat: np.ndarray  # (2q, 2q), or (n_y 2q, n_y 2q) y-coupled
    slabs: slice  # slice(k, k + 1) per mode, slice(None) y-coupled
    split: dict = None

    @property
    def coupled(self):
        return self.split is not None

    @property
    def dim(self):
        return self.b_mat.shape[0]


class ProductDiracModel:
    """The data (G, B) of a product-form Dirac operator.

    Parameters
    ----------
    base : 'segment' | 'cylinder'
    algebra : CStarAlgebra
    r : twist rank (the coefficient bundle is A^r)
    v : the sigma_3 potential; a self-adjoint (r*m, r*m) complex array, or
        a callable y -> (r*m, r*m) Hermitian complex matrix (V(y): the
        double then has one y-coupled channel per commutant cluster), or
        None (= 0)
    w : optional self-adjoint (r*m, r*m) sigma_1 term (segment only)
    holonomy : optional unitary (r*m, r*m) array twisting the
        y-periodicity (cylinder only); must commute with v (with V(y) at
        every sample)

    Every entry of v, w, the holonomy and each V(y) sample must be
    finite, and so must the 1-norm of each and of B(0).
    """

    def __init__(self, base, algebra, r=1, v=None, w=None, holonomy=None):
        if base not in ("segment", "cylinder"):
            raise StructureError("base must be 'segment' or 'cylinder'")
        self.base = base
        self.algebra = algebra
        self.r = int(r)
        self.m = algebra.rep_dim
        self.rm = self.r * self.m
        self.n_fiber = 2 * self.rm

        self.v_callable = None
        if callable(v):
            if base != "cylinder":
                raise StructureError("y-dependent v needs the cylinder base")
            self.v_callable = v
            self.v_rep = None
        elif v is None:
            self.v_rep = np.zeros((self.rm, self.rm), dtype=complex)
        else:
            self.v_rep = self._coerce_operator(v, "v")
            _check_self_adjoint(self.v_rep, "v")

        if w is not None and base != "segment":
            raise StructureError("the sigma_1 term is for the segment model")
        if w is None:
            self.w_rep = np.zeros((self.rm, self.rm), dtype=complex)
        else:
            self.w_rep = self._coerce_operator(w, "w")
            _check_self_adjoint(self.w_rep, "w")

        if holonomy is None:
            self.h_rep = None
        else:
            if base != "cylinder":
                raise StructureError("a holonomy needs the cylinder base")
            h = self.h_rep = self._coerce_operator(holonomy, "holonomy")
            with np.errstate(over="ignore", invalid="ignore"):
                unitary = opnorm(h @ h.conj().T - np.eye(self.rm)) <= 1e-10
            if not unitary:
                raise StructureError("holonomy must be unitary")
        if self.v_rep is not None:
            self._check_commutes(self.v_rep)
            # B(0) adds W to V's column sums; B(eta) adds only eta to B(0)
            _check_finite(self.tangential_matrix(0.0), "v with w")
        if self.y_dependent:  # sampling checks V(0), so a bad V(y) fails here
            self.v_samples(1)

    def _check_commutes(self, v):
        """Refuse a V, or any sample of a V(y) stack, with ||HV - VH||_2
        above 1e-10 max(1, ||V||_2); H is unitary, so the bound is
        relative to ||H|| too."""
        h = self.h_rep
        if h is None:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            bound = 1e-10 * np.maximum(1.0, opnorm(v))
            commutes = np.all(opnorm(h @ v - v @ h) <= bound)
        if not commutes:
            raise StructureError("holonomy must commute with v")

    def _coerce_operator(self, op, name):
        mat = np.asarray(op, dtype=complex)
        if mat.shape != (self.rm, self.rm):
            raise StructureError(
                "%s must be %d x %d" % (name, self.rm, self.rm)
            )
        _check_finite(mat, name)
        return mat

    # -- fiber operators ----------------------------------------------

    @property
    def g_rep(self):
        """Clifford gluing matrix: i sigma_2 tensor identity."""
        return np.kron(1j * SIGMA_2, np.eye(self.rm))

    def tangential_matrix(self, eta, v_rep=None):
        """B(eta) = sigma_1 (eta + W) + sigma_3 V as a fiber matrix (W only
        on the segment), or a stack of them for a stack of V (..., k, k),
        by slice assignment."""
        if v_rep is None:
            if self.v_rep is None:
                raise StructureError("y-dependent v has no per-mode matrix")
            v_rep = self.v_rep
        k = v_rep.shape[-1]
        off = eta * np.eye(k)
        if self.base == "segment":
            off = off + self.w_rep
        b = np.zeros(v_rep.shape[:-2] + (2 * k, 2 * k), dtype=complex)
        b[..., :k, :k] = v_rep
        b[..., k:, k:] = -v_rep
        b[..., :k, k:] = b[..., k:, :k] = off
        return b

    @property
    def y_dependent(self):
        return self.v_callable is not None

    def v_samples(self, n_y):
        """Samples of V(y) on the y-grid, shape (n_y, rm, rm).  A V(y) is
        sampled only here, so each sample is checked here, as a constant V
        is when the model is built: finite, self-adjoint, commuting with H."""
        if self.v_callable is None:
            return np.broadcast_to(self.v_rep, (n_y,) + self.v_rep.shape).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.array(
                [self.v_callable(y) for y in y_points(n_y)], complex
            )
        _check_finite(out, "v")
        _check_self_adjoint(out, "v")
        self._check_commutes(out)
        return out

    def holonomy_channels(self):
        """Split the twist fiber by holonomy eigenphase.

        Returns a list of (shift, basis) with shift in [0, 1) the frequency
        offset theta / (2 pi) and basis an orthonormal (rm, q) embedding.
        """
        if self.h_rep is None:
            return [(0.0, np.eye(self.rm, dtype=complex))]
        tol = 1e-9
        phases, vecs = np.linalg.eig(self.h_rep)
        # unitary: eigenvalues on the circle; cluster by angle, and a phase
        # within the tolerance below 2 pi joins the cluster at 0
        angles = np.mod(np.angle(phases), 2.0 * np.pi)
        angles[2.0 * np.pi - angles <= tol] = 0.0
        order = np.argsort(angles)
        angles = angles[order]
        vecs = vecs[:, order]
        channels = []
        start = 0
        for i in range(1, len(angles) + 1):
            if i == len(angles) or angles[i] - angles[start] > tol:
                block = vecs[:, start:i]
                block = np.linalg.qr(block)[0]
                channels.append((angles[start] / (2.0 * np.pi), block))
                start = i
        return channels

    def mode_channels(self, n_y):
        """The channels of the double on n_y boundary points.

        Constant V: one tangential block per dealiased frequency and
        holonomy eigenphase (on the segment, n_y = 1: the one block
        B(0)).  V(y): one y-coupled channel per cluster of the commutant
        split of the V(y) samples and the eigenphase projectors, whose
        block is (I x E)* B (I x E), B the operator of
        :func:`_tangential_apply` applied to the identity and I x E the
        channel's embedding.
        """
        holonomy = self.holonomy_channels()
        if self.y_dependent:
            f = self.n_fiber
            projectors = [p @ p.conj().T for _, p in holonomy]
            v = self.v_samples(n_y)
            e, clusters, split = commutant_split([*v, *projectors])
            eye = np.eye(n_y * f, dtype=complex).reshape(1, n_y, f, -1)
            b = _tangential_apply(self, n_y, eye, v).reshape(n_y, f, -1)
            channels = []
            for cols in clusters:
                emb = _fiber_embedding(e[:, cols])
                # rows, then columns, per y-point
                b_c = (dagger(emb) @ b).reshape(-1, n_y, f) @ emb
                b_c = b_c.reshape(n_y * emb.shape[1], -1)
                channels.append(
                    ModeChannel(0.0, 0.0, emb, b_c, slice(None), split)
                )
            return channels
        channels = []
        cut = mode_radius(n_y)
        for shift, basis in holonomy:
            v_sub = basis.conj().T @ self.v_rep @ basis
            embedding = _fiber_embedding(basis)
            for eta in range(-cut, cut + 1):
                b = self.tangential_matrix(eta + shift, v_sub)
                k = eta % n_y
                channels.append(ModeChannel(
                    float(eta), shift, embedding, b, slice(k, k + 1)
                ))
        return channels


# -- applying the operator ---------------------------------------------


def _tangential_apply(model, n_y, values, v_samples=None):
    """Apply B = sigma_1 (-i d/dy + Theta) + sigma_3 V(y) to periodic parts
    sampled on n_y boundary points, shape (n_nodes, n_y, n_fiber, cols).
    ``v_samples`` are the already checked samples of V, sampled here when
    omitted."""
    if values.shape[2] != model.n_fiber:
        raise StructureError("fiber dimension mismatch")
    # B(0) at every y-point, then sigma_1 tensor (-i d/dy + Theta)
    if v_samples is None:
        v_samples = model.v_samples(n_y)
    b0 = model.tangential_matrix(0.0, v_samples)
    out = np.einsum("yij,uyjm->uyim", b0, values)
    if n_y > 1:
        theta = sum(s * e @ e.conj().T for s, e in model.holonomy_channels())
        rm = model.rm
        eta = np.fft.fftfreq(n_y, d=1.0 / n_y)
        coeffs = np.fft.fft(values, axis=1)
        dy_vals = np.fft.ifft(1j * eta[None, :, None, None] * coeffs, axis=1)
        # (-i d/dy + Theta) on both spinor halves; sigma_1 swaps them
        d = -1j * dy_vals + np.einsum(
            "ij,uyjm->uyim", np.kron(np.eye(2), theta), values
        )
        out[:, :, :rm] += d[:, :, rm:]
        out[:, :, rm:] += d[:, :, :rm]
    return out


def apply_dirac(model, s, side=1):
    """Apply the side-1 operator G(d/du + B) or the pulled-back side-2
    operator (-d/du + B) G*, which is also the formal adjoint D- acting on
    side-1 E^- sections.

    The u-derivative uses the grid's differentiation matrix: spectral
    collocation on a Chebyshev grid, 4th-order finite differences with
    one-sided closures on a uniform grid.  The tangential part is applied
    pseudospectrally in y, for constant V and V(y) alike.
    """
    if side not in (1, 2):
        raise StructureError("side must be 1 or 2")
    grid = s.grid
    d = grid.diff_matrix()
    vals = s.values
    if side == 2:
        g_star = model.g_rep.conj().T
        vals = np.einsum("ij,uyjm->uyim", g_star, vals)
    dvals = np.einsum("uv,vyim->uyim", d, vals)
    bvals = _tangential_apply(model, grid.n_y, vals)
    if side == 1:
        out = np.einsum(
            "ij,uyjm->uyim", model.g_rep, dvals + bvals
        )
    else:
        out = -dvals + bvals
    return CollarFunction(grid, out)


def collar_inner_product(s1, s2):
    """A-valued L^2 inner product over the collar, as an m x m matrix."""
    if s1.grid != s2.grid:
        raise StructureError("grid mismatch")
    w = s1.grid.quad_weights()
    # sum_i x_i^* y_i at every node, then quadrature
    point = np.einsum("uyim,uyin->umn", s1.values.conj(), s2.values)
    return y_weight(s1.grid.n_y) * np.einsum("u,umn->mn", w, point)


def boundary_inner_product(p1, p2, n_y):
    """A-valued inner product of boundary y-profiles (shape (n_y, f, m))."""
    return y_weight(n_y) * np.einsum("yim,yin->mn", p1.conj(), p2)


def green_residual(model, s1, s2):
    """Defect of the Green formula for a pair of side-1 sections.

    Returns <D+ s1, s2> - <s1, D- s2> + sum over the two boundary circles of
    sign <c(v) s1, s2>, with c(v) = +G at u = 0 and -G at u = 1 (inward
    normal of side 1).  Vanishes identically in the continuum.
    """
    lhs = collar_inner_product(apply_dirac(model, s1, side=1), s2)
    rhs = collar_inner_product(s1, apply_dirac(model, s2, side=2))
    g = model.g_rep
    n_y = s1.grid.n_y
    gs_0 = np.einsum("ij,yjm->yim", g, s1.values[0])
    gs_1 = np.einsum("ij,yjm->yim", g, s1.values[-1])
    bnd = boundary_inner_product(gs_0, s2.values[0], n_y) - (
        boundary_inner_product(gs_1, s2.values[-1], n_y)
    )
    return AlgebraElement(model.algebra, lhs - rhs + bnd)


# -- the assembled double ----------------------------------------------


@dataclass
class ChannelSystem:
    """One channel, decoupled in the eigenbasis of its tangential block.

    ``b_mat = eigvecs @ diag(eigvals) @ eigvecs^*``; C(eigvals[k]) is
    ``systems[rows[k]]``.  The read-only ``matrix`` stacks their real
    scalar systems A(eigvals[k]) row-wise (a copy), shape (2q * 2(n_u+1),
    2(n_u+1)), so its row count is the channel's number of unknowns; only
    the tracer reads it.  No LU factors are kept: grid-level data is solved
    by one batched ``np.linalg.solve`` of the half systems
    (:func:`_solve_channel`).
    """

    channel: ModeChannel
    eigvals: np.ndarray  # (2q,)
    eigvecs: np.ndarray  # (2q, 2q)
    rows: np.ndarray  # (2q,) indices into systems
    systems: np.ndarray  # the double's store (L, n_u+1, n_u+1), shared
    sigma_min: float
    kernel_dim: int  # #{sigma(sech b) > 2}, 0 for b = b* (exact_channel)
    exact_block: np.ndarray  # (4q, 4q) P(e^{-b}), Hermitian (exact_channel)
    eig_residual: float  # ||b U - U Lambda||_2
    unitarity_defect: float  # ||U* U - I||_2

    # no stored factors; benchmarks/tracing.py still reads ``lu`` (and
    # DoubleSystem.dense_lu) when it counts the bytes a system holds
    lu = None

    @property
    def matrix(self):
        return _realify(self.systems[self.rows]).reshape(
            -1, 2 * self.systems.shape[-1]
        )


@dataclass
class DoubleSystem:
    """Discretized invertible double with transmission conditions."""

    model: ProductDiracModel
    grid: CollarGrid
    channels: list  # ChannelSystem, one per channel
    eigvals: np.ndarray  # (L,) the distinct eigenvalues of all channels
    systems: np.ndarray  # (L, n_u+1, n_u+1) their C(lambda): the one store
    sigma_min: float
    bound_constant: float

    @property
    def per_mode(self):
        """False on the double of a V(y) model, whose channels are
        y-coupled."""
        return not any(cs.channel.coupled for cs in self.channels)

    # dense_matrix (the row stack of every channel's matrix) and dense_lu
    # (channels[0].lu) are read-only aliases on the y-coupled double (None
    # per mode); they stay because benchmarks/tracing.py reads them for the
    # system's dof and bytes
    @property
    def dense_matrix(self):
        if self.per_mode:
            return None
        return np.concatenate([cs.matrix for cs in self.channels])

    @property
    def dense_lu(self):
        return None if self.per_mode else self.channels[0].lu

    def certificate(self):
        """How ``sigma_min`` was obtained: the method, the size of the full
        SVDs (of the complex half systems C(lambda)) and their number
        against the channels' scalar systems, and the largest
        eigendecomposition residual and unitarity defect; on the y-coupled
        double also the commutant split's certificate."""
        return {
            **(self.channels[0].channel.split or {}),
            "sigma_min_method": "%s decoupled full SVD of the complex half "
            "systems" % ("per-mode" if self.per_mode else "y-coupled"),
            "svd_max_dim": int(self.systems.shape[-1]),
            "distinct_eigenvalues": len(self.eigvals),
            "scalar_systems": sum(len(cs.rows) for cs in self.channels),
            "eig_residual": max(cs.eig_residual for cs in self.channels),
            "eig_unitarity_defect": max(
                cs.unitarity_defect for cs in self.channels
            ),
        }

    def kernel_dims(self):
        return [cs.kernel_dim for cs in self.channels]

    def solve(self, f1=None, f2=None, jump0=None, jump1=None):
        """Grid values (phi, tau) solving (d/du + B) phi = f1, (-d/du + B)
        tau = f2, phi(0) - tau(0) = jump0 and phi(1) + tau(1) = jump1.

        ``f1``/``f2`` have shape (n_nodes, n_y, n_fiber, cols), the jumps
        (n_y, n_fiber, cols); omitted data is zero.  Each given array is
        gathered into the channels' y-slabs, and the channel solutions are
        added back into them (:func:`_values_to_channels`).
        """
        grid = self.grid
        data = (f1, f2, jump0, jump1)
        cols = _column_count(*data)
        fiber = (grid.n_y, self.model.n_fiber, cols)
        shapes = [(grid.n_nodes,) + fiber] * 2 + [fiber] * 2
        for a, shape in zip(data, shapes):
            if a is not None and np.shape(a) != shape:
                raise StructureError(
                    "data shape %r, grid shape %r" % (np.shape(a), shape)
                )
        channels = [cs.channel for cs in self.channels]
        gathered = [
            [None] * len(channels) if a is None
            else _values_to_channels(a, channels, grid.n_y)
            for a in data
        ]
        sols = [
            _solve_channel(cs, *parts)
            for cs, *parts in zip(self.channels, *gathered)
        ]
        out = _channels_to_values(
            sols, channels, grid.n_y, (2, grid.n_nodes) + fiber
        )
        return out[0], out[1]


def _scalar_systems(grid):
    """C(0) and T of the complex half system of one eigenvalue, C(lambda) =
    C(0) + lambda T, in the unknown z = phi + i J tau at the n_u + 1 nodes:
    row r < n_u is (d/du + lambda) z at node r + 1, whose imaginary part
    is, as J D J = -D, the side-2 row at node n_u - 1 - r; row n_u is
    z(0) + i z(1) = jump0 + i jump1."""
    n = grid.n_u
    c0 = np.zeros((n + 1, n + 1), dtype=complex)
    c0[:n] = grid.diff_matrix()[1:]
    c0[n, 0], c0[n, n] = 1.0, 1j
    t = np.zeros_like(c0)
    t[np.arange(n), np.arange(1, n + 1)] = 1.0
    return c0, t


def _realify(c):
    """The real scalar systems A(lambda) (..., 2(n_u+1), 2(n_u+1)) of the
    complex half systems c = C(lambda) (..., n_u+1, n_u+1).

    Unknowns: phi then tau at the nodes.  Rows: (d/du + lambda) phi at the
    side-1 nodes 1..n_u, (-d/du + lambda) tau at the side-2 nodes
    0..n_u-1, then the gluing rows phi(0) - tau(0) (jump0, row 2 n_u)
    and phi(1) + tau(1) (jump1, row 2 n_u + 1).  On z = phi + i J tau, the
    real part of row c_r is [Re c_r, -Im c_r J] and its imaginary part
    [Im c_r, Re c_r J].
    """
    n = c.shape[-1] - 1
    re_rows = np.concatenate([c.real, -c.imag[..., ::-1]], axis=-1)
    im_rows = np.concatenate([c.imag, c.real[..., ::-1]], axis=-1)
    return np.concatenate(
        [re_rows[..., :n, :], im_rows[..., n - 1 :: -1, :],
         re_rows[..., n:, :], im_rows[..., n:, :]],
        axis=-2,
    )


#: :func:`tanh_sech` sums its series at ||x||_1 <= _TANH_SECH_START, to
#: degree 21 in x (_TANH_SECH_TERMS powers of x^2), whose tail is below
#: 1/22! < 1e-21.  On one thread of a 2-vCPU Xeon VM, exact_channel takes
#: 0.57 ms on the permode-cheb stack (21, 4, 4) at this start, and 0.64,
#: 0.66 and 0.71 ms at starts 0.5, 2 and 4 (8, 13 and 18 terms).
_TANH_SECH_START = 1.0
_TANH_SECH_TERMS = 10


def tanh_sech(b_mat):
    """tanh B and sech B of a matrix, or of each matrix of a stack (..., n,
    n), with no eigendecomposition: scale x = B / 2^s to ||x||_1 <=
    _TANH_SECH_START, sum cosh x and x^-1 sinh x in x^2 (for Hermitian x
    no term cancels), solve against cosh x for t = tanh x and c = sech x,
    and double s times by tanh 2x = 2t (I + t^2)^-1 and sech 2x = c^2 (I +
    t^2)^-1 (Higham, Functions of Matrices, SIAM 2008, ch. 12).  Each
    member keeps its own s, and step k doubles only those with s > k, so
    each is bit-identical to its one-matrix call."""
    b = np.asarray(b_mat, dtype=complex)
    shape, n = b.shape, b.shape[-1]
    b = b.reshape((-1, n, n))
    norm = np.abs(b).sum(axis=-2).max(axis=-1)  # the 1-norm of each member
    s = np.ceil(np.log2(np.maximum(norm / _TANH_SECH_START, 1.0))).astype(int)
    # a 1-norm past 2^1023 takes s = 1024, and 2.0**1024 overflows
    x = b / (2.0 ** np.minimum(s, 1023))[:, None, None]
    x[s > 1023] /= 2.0
    eye = np.eye(n)
    # cosh x = 1 + y/(1*2) (1 + y/(3*4) (...)), y = x^2, and x^-1 sinh x =
    # 1 + y/(2*3) (1 + ...): row k of ratios is 1/(j (j+1)), j = 2k+1, 2k+2
    j = np.arange(1.0, 2 * _TANH_SECH_TERMS + 1)
    ratios = (1.0 / (j * (j + 1))).reshape(-1, 2, 1, 1, 1)
    series, y = np.broadcast_to(eye, (2,) + x.shape), x @ x
    for r in ratios[::-1]:
        series = y @ series
        series *= r
        series += eye
    rhs = np.concatenate([x @ series[1], np.broadcast_to(eye, x.shape)], -1)
    tc = np.linalg.solve(series[0], rhs)  # [tanh x, sech x]
    for k in range(s.max(initial=0)):
        live = s > k
        t, c = np.split(tc[live], 2, axis=-1)
        rhs = np.concatenate([2.0 * t, c @ c], axis=-1)
        tc[live] = np.linalg.solve(eye + t @ t, rhs)
    return tc[..., :n].reshape(shape), tc[..., n:].reshape(shape)


def graph_projection(b_mat):
    """The graph projection P(e^{-B}) = 1/2 [[I + tanh B, sech B], [sech B,
    I - tanh B]] of a matrix or of each matrix of a stack, bounded at any
    ||B|| and Hermitian by construction (``csalg.herm`` of tanh B and sech
    B), and sech B before ``herm``."""
    t, sech = tanh_sech(b_mat)
    t, s = herm(t), herm(sech)
    eye = np.eye(t.shape[-1])
    return 0.5 * np.block([[eye + t, s], [s, eye - t]]), sech


def exact_channel(b_mat):
    """Exact oracle of one channel, or of each of a stack: its
    :func:`graph_projection` and the kernel dimension of the matching
    problem (an int, or an array over the stack): exp(-uB) a and exp(uB) c
    match iff a = c and 2 cosh(B) a = 0, counted as the singular values of
    sech B above 2.  A sanity check, not a certificate: it reads 0 for
    self-adjoint B, where 2 cosh B >= 2."""
    block, sech = graph_projection(b_mat)
    kernel_dim = np.sum(singular_values(sech) > 2.0, axis=-1)
    return block, int(kernel_dim) if kernel_dim.ndim == 0 else kernel_dim


def _decouple(b):
    """Eigenpairs, exact oracle and eigendecomposition certificate of a
    stack of tangential blocks b = U diag(lambda) U* (k, 2q, 2q): one
    stacked ``eigh``, one stacked :func:`exact_channel`, and one
    ``opnorm`` each for ||bU - U Lambda||_2 and ||U*U - I||_2."""
    w, u = np.linalg.eigh(b)
    block, kernel_dim = exact_channel(b)
    eig_residual = opnorm(b @ u - u * w[:, None, :])
    unitarity_defect = opnorm(dagger(u) @ u - np.eye(b.shape[-1]))
    return w, u, block, kernel_dim, eig_residual, unitarity_defect


def build_double(model, grid):
    """Assemble the discretized invertible double and certify injectivity.

    The channels come from the model (:meth:`ProductDiracModel.mode_channels`)
    and the u-rule from ``grid.kind``; every combination runs this one code
    path.  The certificate is sigma_min of the channel systems, each from
    its decoupled scalar systems (see the module docstring); the discrete
    analogue of the lower bound ||sigma|| <= C ||D sigma|| is reported as
    bound_constant = 1 / sigma_min.  Each channel keeps its exact oracle.
    """
    c0, t = _scalar_systems(grid)
    channels = model.mode_channels(grid.n_y)
    # one stacked pass per group of equal-sized channels
    parts = map_groups(_decouple, [ch.b_mat for ch in channels])
    lam = np.concatenate([w for w, *_ in parts])
    lam, inv = np.unique(lam, return_inverse=True)  # exact equality only
    systems = lam[:, None, None] * t
    systems += c0  # c0 + lam T, with no second (L, N, N) temporary
    sigmas = map_members(singular_values, systems).min(axis=1)
    offsets = np.cumsum([len(w) for w, *_ in parts])[:-1]
    channel_systems = []
    for ch, part, rows in zip(channels, parts, np.split(inv, offsets)):
        w, u, block, kernel_dim, residual, defect = part
        channel_systems.append(ChannelSystem(
            channel=ch, eigvals=w, eigvecs=u, rows=rows, systems=systems,
            sigma_min=float(sigmas[rows].min()),
            kernel_dim=int(kernel_dim), exact_block=block,
            eig_residual=float(residual), unitarity_defect=float(defect),
        ))
    sigma_min = float(sigmas.min())
    if sigma_min < DOUBLE_CERT_TOL:
        raise CertificationError(
            "double not certifiably invertible (sigma_min %.3e)" % sigma_min
        )
    return DoubleSystem(
        model=model, grid=grid, channels=channel_systems, eigvals=lam,
        systems=systems, sigma_min=sigma_min, bound_constant=1.0 / sigma_min,
    )


def _column_count(*data):
    """The column count of the first given array of ``data`` (None for
    zero data); StructureError if none is given."""
    for a in data:
        if a is not None:
            return np.shape(a)[-1]
    raise StructureError("no data to solve for")


def _solve_channel(cs, f1, f2, jump0, jump1):
    """Solve the transmission system of channel ``cs`` for its gathered data
    (``f1``/``f2`` (n_u+1, 2q, cols), the jumps (2q, cols), None for zero):
    rotate the fiber axis into the eigenbasis of b and fill the columns of
    the half systems C(lambda_k) directly, each complex data column viewed
    as two real ones.  The real part is f1 at nodes 1..n, then jump0; the
    imaginary part f2 at nodes n-1..0, then jump1 (the rows of
    :func:`_scalar_systems`).  One batched ``np.linalg.solve`` gives z, and
    (phi, tau) = (Re z, J Im z), rotated back, stacked (2, n_u+1, 2q, cols).
    """
    u = cs.eigvecs
    u_star = u.conj().T
    n = cs.systems.shape[-1] - 1
    cols = _column_count(f1, f2, jump0, jump1)
    beta = np.zeros((len(u), n + 1, 2 * cols), dtype=complex)
    for part, f, nodes, jump in (
        (beta.real, f1, slice(1, None), jump0),
        (beta.imag, f2, slice(n - 1, None, -1), jump1),
    ):
        if f is not None:
            part[:, :n] = np.swapaxes(u_star @ f[nodes], 0, 1).view(float)
        if jump is not None:
            part[:, n] = (u_star @ jump).view(float)
    z = np.linalg.solve(cs.systems[cs.rows], beta)
    sol = np.stack([z.real, z.imag[:, ::-1]]).view(complex)
    return u @ np.swapaxes(sol, 1, 2)


def _values_to_channels(values, channels, n_y):
    """The coefficients of each channel in values sampled on the boundary
    circle, shape (..., n_y, n_fiber, cols): embedding^* at each of the
    channel's y-slabs, flattened to (..., dim, cols).  The slabs are the
    y-Fourier coefficients (one y-FFT) on mode channels and the samples on
    y-coupled ones."""
    coupled = channels[0].coupled
    slabs = values if coupled else np.fft.fft(values, axis=-3) / n_y
    shape = values.shape[:-3] + (-1, values.shape[-1])
    return [
        (ch.embedding.conj().T @ slabs[..., ch.slabs, :, :]).reshape(shape)
        for ch in channels
    ]


def _channels_to_values(channel_vals, channels, n_y, shape):
    """The samples, of the given shape (..., n_y, n_fiber, cols), of one
    coefficient array per channel: the inverse of :func:`_values_to_channels`,
    embedding @ c added into the channel's y-slabs in channel order, then one
    inverse y-FFT on mode channels."""
    slabs = np.zeros(shape, dtype=complex)
    lead, cols = shape[:-3] + (-1,), shape[-1:]
    for ch, c in zip(channels, channel_vals):
        e = ch.embedding
        slabs[..., ch.slabs, :, :] += e @ c.reshape(lead + e.shape[1:] + cols)
    return slabs if channels[0].coupled else np.fft.ifft(slabs, axis=-3) * n_y


def invert_double(sys, f1, f2=None):
    """Solve the doubled operator with transmission conditions.

    ``f1`` is the side-1 right-hand side for D+ phi = f1 (E^- valued);
    ``f2`` the pulled-back side-2 rhs for (-d/du + B) tau = f2 (defaults to
    zero).  Both must live on the double's grid.  Returns the pair (phi,
    tau) of CollarFunctions.
    """
    if any(f is not None and f.grid != sys.grid for f in (f1, f2)):
        raise StructureError("right-hand side is not on the double's grid")
    g_star = sys.model.g_rep.conj().T
    phi, tau = sys.solve(
        f1=np.einsum("ij,uyjm->uyim", g_star, f1.values),
        f2=None if f2 is None else f2.values,
    )
    return CollarFunction(sys.grid, phi), CollarFunction(sys.grid, tau)


def ghost_solution_check(sys):
    """Certify that zero-Cauchy-trace side-1 solutions vanish.

    Stacks the side-1 collocation rows at every node with the two trace
    rows and reports the smallest singular value of the stacked operator
    per channel; a trivial kernel certifies the absence of discrete ghost
    solutions.  The stack decouples in the eigenbasis of b into the real
    scalar stacks S(lambda) = [D + lambda I; e_0^T; e_n^T].  As J D J = -D
    (J reverses the nodes), S(-lambda) J is S(lambda) with its first n + 1
    rows reversed and negated and its last two swapped, so both have the
    same singular values: one SVD per distinct |lambda| of the double,
    the stack split over the CPUs by :func:`~calderon.csalg.map_members`.
    """
    n = sys.grid.n_u
    eye_nodes = np.eye(n + 1)
    base = np.vstack([sys.grid.diff_matrix(), eye_nodes[[0, n]]])
    select = np.vstack([eye_nodes, np.zeros((2, n + 1))])
    mags, inv = np.unique(np.abs(sys.eigvals), return_inverse=True)
    stacks = base + mags[:, None, None] * select
    sigmas = map_members(singular_values, stacks).min(axis=1)[inv]
    per_channel = [float(sigmas[cs.rows].min()) for cs in sys.channels]
    sigma = min(per_channel)
    return {
        "sigma_min": sigma,
        "per_channel": per_channel,
        "trivial_kernel": bool(sigma > 1e-8),
    }
