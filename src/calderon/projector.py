"""Poisson operator, Calderon projector, principal symbol and the
comparison with the spectral (APS) boundary projection.

Boundary data for the doubled operator is the pair g = (g0, g1) of traces
on the two boundary circles.  For a per-mode tangential block b the Cauchy
data space of side 1 is the graph H1 = {(a, e^{-b} a)} and side 2
contributes H2 = {(c, -e^{b} c)}; the Calderon projector is the projection
onto H1 along H2, which for self-adjoint b is the orthogonal graph
projection

    P(T) = [[(1+T^2)^-1,   (1+T^2)^-1 T ],
            [T (1+T^2)^-1, T (1+T^2)^-1 T]],       T = e^{-b}.

The projector is assembled mode by mode and stored as one block per mode
channel; its columns are the traces of Poisson solves of jump data.  Its
principal symbol (the large |eta| limit of the u=0 block) is the positive
spectral projection of b, computed independently by a contour integral over
a half-disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.integrate
import scipy.linalg

from .dirac import (
    CollarFunction,
    _channel_to_values,
    _solve_block,
    _values_to_channel,
    mode_radius,
)
from .errors import CertificationError, StructureError
from .hilbmod import (
    ModuleOperator,
    membership_defect,
    orthogonalize_idempotent_matrix,
    relative_index,
)


# -- boundary data ------------------------------------------------------


class BoundaryData:
    """Pair of boundary traces (g0 at u=0, g1 at u=1).

    Each trace is sampled on the boundary circle: shape (n_y, n_fiber, m)
    with m the algebra representation dimension.
    """

    __slots__ = ("model", "n_y", "g0", "g1")

    def __init__(self, model, n_y, g0, g1):
        g0 = np.asarray(g0, dtype=complex)
        g1 = np.asarray(g1, dtype=complex)
        shape = (n_y, model.n_fiber, model.m)
        if g0.shape != shape or g1.shape != shape:
            raise StructureError(
                "boundary data must have shape %r" % (shape,)
            )
        self.model = model
        self.n_y = int(n_y)
        self.g0 = g0
        self.g1 = g1

    @classmethod
    def zero(cls, model, n_y):
        shape = (n_y, model.n_fiber, model.m)
        return cls(model, n_y, np.zeros(shape, complex), np.zeros(shape, complex))

    @classmethod
    def random_band_limited(cls, model, n_y, rng, scale=1.0):
        """Random data supported on the dealiased frequency set."""
        shape = (n_y, model.n_fiber, model.m)
        out = []
        cut = mode_radius(n_y)
        y = 2.0 * np.pi * np.arange(n_y) / n_y
        for _ in range(2):
            vals = np.zeros(shape, dtype=complex)
            for eta in range(-cut, cut + 1):
                coef = scale * (
                    rng.standard_normal(shape[1:])
                    + 1j * rng.standard_normal(shape[1:])
                )
                vals += np.exp(1j * eta * y)[:, None, None] * coef[None]
            out.append(vals)
        return cls(model, n_y, out[0], out[1])

    def norm(self):
        dy = 2.0 * np.pi / self.n_y if self.n_y > 1 else 1.0
        return float(
            np.sqrt(
                dy * (np.sum(np.abs(self.g0) ** 2) + np.sum(np.abs(self.g1) ** 2))
            )
        )

    def times(self, a):
        """Right A-action, applied to both traces."""
        if a.algebra != self.model.algebra:
            raise StructureError("algebra mismatch")
        return BoundaryData(
            self.model, self.n_y, self.g0 @ a.mat, self.g1 @ a.mat
        )

    def __sub__(self, other):
        return BoundaryData(
            self.model, self.n_y, self.g0 - other.g0, self.g1 - other.g1
        )

    # -- mode transforms ----------------------------------------------
    # the two traces are gathered and scattered as a 2-node axis

    def channel_coeff(self, ch):
        """Stacked (2 * ch.dim, m) coefficient of one mode channel."""
        traces = np.stack([self.g0, self.g1])
        coeff = _values_to_channel(traces, ch, self.n_y)
        return coeff.reshape(-1, self.model.m)

    @classmethod
    def from_channel_coeffs(cls, model, n_y, coeffs):
        """Inverse of channel_coeff: coeffs is a list of (channel, (2d, m))."""
        traces = np.zeros((2, n_y, model.n_fiber, model.m), dtype=complex)
        for ch, c in coeffs:
            _channel_to_values(c.reshape(2, ch.dim, -1), ch, n_y, traces)
        return cls(model, n_y, traces[0], traces[1])


# -- the boundary projector --------------------------------------------


@dataclass
class BoundaryProjector:
    """Projector acting on boundary data, assembled over the dealiased modes.

    Per mode the projector is stored once, as ``channel_blocks``: one
    (channel, matrix) pair per mode channel, the matrix acting on the
    channel's double trace (2 * channel.dim complex dimensions).  The
    read-only ``etas`` and ``blocks`` are derived from them once:
    ``blocks[i]`` acts on the full-fiber double trace (2 * n_fiber complex
    dimensions) of the integer frequency ``etas[i]``, and with holonomy it
    is the sum of the embedded eigenphase-channel blocks.  The y-coupled
    path stores its one channel block as ``dense``, a single matrix over
    all (component, y, fiber) coordinates.
    """

    model: object
    n_y: int
    method: str
    channel_blocks: list = field(default_factory=list)  # (channel, matrix)
    dense: np.ndarray = None

    @property
    def per_mode(self):
        return self.dense is None

    @cached_property
    def _by_eta(self):
        return _group_by_eta(self.model, self.channel_blocks)

    @property
    def etas(self):
        """Integer frequencies of ``blocks``, ascending."""
        return self._by_eta[0]

    @property
    def blocks(self):
        """Full-fiber blocks, one per integer frequency."""
        return self._by_eta[1]

    def matrix(self):
        """Assembled complex matrix (deterministic mode ordering)."""
        if not self.per_mode:
            return self.dense
        return scipy.linalg.block_diag(*self.blocks)

    def as_module_operator(self):
        mat = self.matrix()
        m = self.model.m
        if mat.shape[0] % m:
            raise StructureError("assembled dimension not a module multiple")
        rank = mat.shape[0] // m
        return ModuleOperator(self.model.algebra, rank, rank, mat)

    def apply(self, g):
        """Apply to boundary data (trivial holonomy)."""
        if g.model is not self.model and g.model.n_fiber != self.model.n_fiber:
            raise StructureError("boundary data model mismatch")
        if not self.per_mode:
            traces = np.stack([g.g0, g.g1])
            out = self.dense @ traces.reshape(-1, self.model.m)
            out = out.reshape(traces.shape)
            return BoundaryData(self.model, self.n_y, out[0], out[1])
        coeffs = []
        for ch, block in self.channel_blocks:
            coeffs.append((ch, block @ g.channel_coeff(ch)))
        return BoundaryData.from_channel_coeffs(self.model, self.n_y, coeffs)

    def diagnostics(self):
        """Idempotency and self-adjointness defects (2-norm), dimension and
        algebra-membership defect.  Per mode they are maxima over the
        diagonal blocks: the 2-norm of a block-diagonal matrix is the
        largest block norm, and its off-diagonal m-blocks are exactly zero.
        """
        blocks = self.blocks if self.per_mode else [self.dense]
        alg = self.model.algebra
        out = {
            "idempotency_defect": max(
                float(np.linalg.norm(b @ b - b, 2)) for b in blocks
            ),
            "self_adjointness_defect": max(
                float(np.linalg.norm(b - b.conj().T, 2)) for b in blocks
            ),
            "dimension": sum(b.shape[0] for b in blocks),
            "a_membership_defect": max(
                float(membership_defect(alg, b)) for b in blocks
            ),
        }
        if self.per_mode:
            out["mode_count"] = len(self.blocks)
        return out

    def a_linearity_defect(self, rng, trials=10):
        """Max of ||C(g a) - (C g) a|| over random data and algebra elements.

        A-linearity is structural (the projector acts on representation
        rows, the algebra on columns); this measures it directly anyway.
        """
        worst = 0.0
        for _ in range(trials):
            g = BoundaryData.random_band_limited(self.model, self.n_y, rng)
            a = self.model.algebra.random_element(rng)
            lhs = self.apply(g.times(a))
            rhs = self.apply(g).times(a)
            worst = max(worst, (lhs - rhs).norm())
        return worst


def _embed_channel_block(model, ch, block):
    """Embed a (2d x 2d) channel block into the full-fiber double trace."""
    rm = model.rm
    n_f = model.n_fiber
    q = ch.basis.shape[1]
    e_f = np.zeros((n_f, 2 * q), dtype=complex)
    e_f[:rm, :q] = ch.basis
    e_f[rm:, q:] = ch.basis
    e_b = scipy.linalg.block_diag(e_f, e_f)
    return e_b @ block @ e_b.conj().T


def _group_by_eta(model, channel_blocks):
    """Sum embedded channel blocks sharing the same integer frequency."""
    by_eta = {}
    for ch, block in channel_blocks:
        key = int(round(ch.eta))
        emb = _embed_channel_block(model, ch, block)
        if key in by_eta:
            by_eta[key] = by_eta[key] + emb
        else:
            by_eta[key] = emb
    etas = sorted(by_eta)
    return etas, [by_eta[e] for e in etas]


# -- Poisson operator and Calderon projector ---------------------------


def exact_projector_block(b_mat):
    """The graph projection P(e^{-b}) on the double trace of one mode."""
    t = scipy.linalg.expm(-np.asarray(b_mat, dtype=complex))
    e_plus = scipy.linalg.expm(np.asarray(b_mat, dtype=complex))
    q2 = t.shape[0]
    m_mat = e_plus + t
    top = np.linalg.solve(m_mat, np.hstack([e_plus, np.eye(q2)]))
    return np.vstack([top, t @ top])


def _collocation_projector_block(sys_channel, grid):
    """Channel block of C from the transmission solve with jump data."""
    q2 = sys_channel.channel.dim
    # columns: first q2 excite g0, last q2 excite g1
    jumps = np.eye(2 * q2, dtype=complex).reshape(2, q2, 2 * q2)
    phi = _solve_block(grid, sys_channel, jump0=jumps[0], jump1=jumps[1])[0]
    return np.vstack([phi[0], phi[-1]])


def poisson(sys, g, with_side2=False):
    """Solve the double with a boundary-data jump layer: the Poisson operator.

    Returns the side-1 solution; its traces are the Calderon projection of
    ``g`` and it solves the homogeneous equation in the interior.
    """
    phi, tau = sys.solve(jump0=g.g0, jump1=g.g1)
    out = CollarFunction(sys.grid, phi)
    if with_side2:
        return out, CollarFunction(sys.grid, tau)
    return out


def boundary_trace(model, s):
    """Traces of a side-1 collar section as boundary data."""
    return BoundaryData(model, s.grid.n_y, s.values[0], s.values[-1])


def calderon_projector(sys, method="collocation"):
    """Assemble the Calderon projector of the double system.

    One block per channel of the double.  ``method='collocation'`` reads
    the traces of the discrete transmission solves of the jump basis;
    ``method='exact'`` is the matrix-exponential graph projection of the
    channel's tangential block (exact in u; on the y-coupled path the
    y-discretization stays).
    """
    channel_blocks = []
    for cs in sys.channels:
        if method == "exact":
            block = exact_projector_block(cs.channel.b_mat)
        elif method == "collocation":
            block = _collocation_projector_block(cs, sys.grid)
        else:
            raise StructureError("unknown method %r" % (method,))
        channel_blocks.append((cs.channel, block))
    if sys.per_mode:
        stored = {"channel_blocks": channel_blocks}
    else:
        stored = {"dense": channel_blocks[0][1]}
    return BoundaryProjector(
        model=sys.model, n_y=sys.grid.n_y, method=method, **stored
    )


# -- independent Cauchy space oracle -----------------------------------


@dataclass
class CauchySpaces:
    """Bases of the two Cauchy data spaces of one mode, with certificates."""

    eta: float
    h1: np.ndarray  # (2 q2, q2) columns span side-1 traces
    h2: np.ndarray
    orthogonality_defect: float
    min_angle: float

    @property
    def dim_total(self):
        return self.h1.shape[1] + self.h2.shape[1]


def _ode_propagator(b_mat, sign, rtol=1e-12, atol=1e-14):
    """Fundamental solution of phi' = sign * b phi at u = 1, by integration.

    Deliberately avoids the matrix exponential so it can serve as an
    independent oracle for it.
    """
    q2 = b_mat.shape[0]

    def rhs(_, y):
        phi = y.reshape(q2, q2)
        return (sign * (b_mat @ phi)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, 1.0),
        np.eye(q2, dtype=complex).ravel(),
        rtol=rtol,
        atol=atol,
        method="DOP853",
    )
    if not sol.success:
        raise CertificationError("Cauchy-space ODE integration failed")
    return sol.y[:, -1].reshape(q2, q2)


def cauchy_space_oracle(model, eta):
    """Cauchy data spaces of one mode from direct ODE solves.

    H1 collects the u=0 and u=1 traces of decaying side-1 solutions
    phi' = -b phi; H2 those of the side-2 solutions in the pulled-back
    gauge, tau' = +b tau, whose contribution to the double trace carries
    the gluing sign at u=1.
    """
    b = model.tangential_matrix(eta)
    q2 = b.shape[0]
    prop_minus = _ode_propagator(b, -1.0)  # e^{-b}
    prop_plus = _ode_propagator(b, +1.0)  # e^{+b}
    h1 = np.vstack([np.eye(q2), prop_minus])
    h2 = np.vstack([np.eye(q2), -prop_plus])
    gram = h1.conj().T @ h2
    orth = float(np.linalg.norm(gram, 2))
    angles = scipy.linalg.subspace_angles(h1, h2)
    return CauchySpaces(
        eta=float(eta),
        h1=h1,
        h2=h2,
        orthogonality_defect=orth,
        min_angle=float(angles.min()) if angles.size else np.pi / 2,
    )


def graph_projection_least_squares(basis):
    """Orthogonal projection onto the column span, via normal equations."""
    gram = basis.conj().T @ basis
    return basis @ np.linalg.solve(gram, basis.conj().T)


# -- principal symbol by contour integration ---------------------------

PINCH_TOL = 1e-6


def _resolvent_sum(b_mat, taus, weights):
    q2 = b_mat.shape[0]
    taus = np.asarray(taus, dtype=complex)
    ib = 1j * b_mat
    batch = taus[:, None, None] * np.eye(q2) - ib[None]
    res = np.linalg.inv(batch)
    return np.einsum("k,kij->ij", np.asarray(weights, dtype=complex), res)


def _contour_quadrature(b_mat, radius, panels, nodes=10):
    """Gauss-Legendre contour integral of the resolvent over the half-disk
    boundary: diameter [-R, R] then arc R e^{i theta}, theta in [0, pi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    acc = np.zeros_like(b_mat, dtype=complex)
    # diameter
    edges = np.linspace(-radius, radius, panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        taus = mid + half * x
        acc += _resolvent_sum(b_mat, taus, half * w)
    # arc
    edges = np.linspace(0.0, np.pi, panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        thetas = mid + half * x
        taus = radius * np.exp(1j * thetas)
        dtau = 1j * taus  # d tau / d theta
        acc += _resolvent_sum(b_mat, taus, half * w * dtau)
    return acc / (2.0j * np.pi)


def principal_symbol(model_or_matrix, eta=None, tol=1e-12, max_doublings=10):
    """Positive spectral projection of the tangential symbol, by contour.

    Accepts either a model plus frequency (the fiber matrix is B(eta)) or a
    Hermitian matrix directly.  Integrates (1/2 pi i) of the resolvent of
    i*b over the boundary of the upper half-disk of radius
    R = 2 * spectral radius + 1, doubling the panel count until successive
    results agree to ``tol``.
    """
    if eta is not None or hasattr(model_or_matrix, "tangential_matrix"):
        b = model_or_matrix.tangential_matrix(eta)
    else:
        b = np.asarray(model_or_matrix, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise StructureError("fiber matrix must be square")
    scale = max(1.0, np.linalg.norm(b, 2))
    if np.linalg.norm(b - b.conj().T, 2) > 1e-10 * scale:
        raise StructureError("tangential symbol must be self-adjoint")
    eigs = np.linalg.eigvalsh(0.5 * (b + b.conj().T))
    if np.abs(eigs).min() < PINCH_TOL:
        raise CertificationError(
            "contour pinched: eigenvalue %.3e within %.0e of zero"
            % (np.abs(eigs).min(), PINCH_TOL)
        )
    radius = 2.0 * float(np.abs(eigs).max()) + 1.0
    panels = 8
    prev = _contour_quadrature(b, radius, panels)
    for _ in range(max_doublings):
        panels *= 2
        cur = _contour_quadrature(b, radius, panels)
        if np.linalg.norm(cur - prev, 2) < tol:
            return cur
        prev = cur
    raise CertificationError(
        "contour quadrature did not reach %.1e agreement" % tol
    )


def spectral_projection_positive(b_mat, zero_tol=1e-10):
    """Eigendecomposition projection onto eigenvalues > 0 (kernel included)."""
    b_mat = np.asarray(b_mat, dtype=complex)
    eigs, vecs = np.linalg.eigh(0.5 * (b_mat + b_mat.conj().T))
    mask = eigs >= -zero_tol
    v = vecs[:, mask]
    return v @ v.conj().T


def symbol_limit_check(model, etas=(2, 4, 8, 16)):
    """Large-frequency comparison of the projector with its symbol.

    For each eta computes delta = || (u=0 block of C(eta)) - positive
    spectral projection of B(eta) ||; certifies monotone decrease and the
    bound delta <= K / |eta|.  The eigendecomposition projection is used as
    the reference to keep the comparison floor at rounding level.
    """
    if model.y_dependent:
        raise StructureError("symbol limit check needs constant coefficients")
    etas = [float(e) for e in etas]
    if any(e <= 0 for e in etas) or sorted(etas) != etas:
        raise StructureError("frequency ladder must be positive increasing")
    deltas = []
    for eta in etas:
        b = model.tangential_matrix(eta)
        block = exact_projector_block(b)
        q2 = b.shape[0]
        top = block[:q2, :q2]
        q_plus = spectral_projection_positive(b)
        deltas.append(float(np.linalg.norm(top - q_plus, 2)))
    monotone = all(
        deltas[i + 1] <= deltas[i] + 1e-14 for i in range(len(deltas) - 1)
    )
    k_bound = max(d * e for d, e in zip(deltas, etas))
    inv = np.array([1.0 / e for e in etas])
    k_fit = float(np.dot(deltas, inv) / np.dot(inv, inv))
    residual = float(np.linalg.norm(np.array(deltas) - k_fit * inv))
    return {
        "etas": etas,
        "deltas": deltas,
        "monotone": bool(monotone),
        "k_bound": float(k_bound),
        "k_fit": k_fit,
        "fit_residual": residual,
        "satisfies_bound": bool(
            all(d <= k_bound / e + 1e-15 for d, e in zip(deltas, etas))
        ),
    }


# -- APS projection and the index comparison ---------------------------


def aps_projection(model, n_y=None, eta=None):
    """Spectral boundary projection, per mode or assembled.

    On the double trace of mode eta the block is diag(P+(B), P+(-B)): the
    inward normal at the second boundary circle reverses the tangential
    operator.  Kernel eigenvalues are assigned to the positive side.
    """

    def block(b):
        return scipy.linalg.block_diag(
            spectral_projection_positive(b), spectral_projection_positive(-b)
        )

    if eta is not None:
        return block(model.tangential_matrix(eta))
    if n_y is None:
        raise StructureError("need n_y for the assembled projection")
    channel_blocks = [(ch, block(ch.b_mat)) for ch in model.mode_channels(n_y)]
    return BoundaryProjector(
        model=model, n_y=n_y, method="aps", channel_blocks=channel_blocks
    )


def orthogonalized_calderon(projector):
    """Orthogonal projection with the same range, by the certified F-solve
    of each channel block (or of the dense matrix)."""

    def orth(mat):
        return orthogonalize_idempotent_matrix(mat)[0]

    method = projector.method + "+orthogonalized"
    if not projector.per_mode:
        return BoundaryProjector(
            model=projector.model,
            n_y=projector.n_y,
            method=method,
            dense=orth(projector.dense),
        )
    return BoundaryProjector(
        model=projector.model,
        n_y=projector.n_y,
        method=method,
        channel_blocks=[(ch, orth(b)) for ch, b in projector.channel_blocks],
    )


def calderon_vs_aps_index(sys, method="exact"):
    """Relative index of the APS projection against the Calderon range.

    Both projectors are assembled over the same dealiased mode set and
    compared with hilbmod.relative_index; the result is an integer
    (complex-dimension counting) reported with the truncation radius.
    """
    model = sys.model
    n_y = sys.grid.n_y
    c_proj = calderon_projector(sys, method=method)
    c_orth = orthogonalized_calderon(c_proj)
    pi_proj = aps_projection(model, n_y=n_y)
    index = relative_index(
        pi_proj.as_module_operator(), c_orth.as_module_operator()
    )
    return {
        "index": int(index),
        "mode_radius": mode_radius(n_y),
        "dimension": c_orth.matrix().shape[0],
    }
