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

The projector is stored as one block per channel of the double (per mode
and eigenphase, or the one y-coupled channel); its columns are the traces
of Poisson solves of jump data.  Its principal symbol (the large |eta|
limit of the u=0 block) is the positive spectral projection of b, computed
independently by a trapezoidal rule for the integral form of the matrix sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dirac import (
    CollarFunction,
    _channel_to_values,
    _solve_block,
    _values_to_channel,
    expm,
    mode_radius,
    y_points,
    y_weight,
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
        y = y_points(n_y)
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
        dy = y_weight(self.n_y)
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
        """Stacked (2 * ch.dim, m) coefficient of one channel."""
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
    """Projector acting on boundary data, one block per channel.

    The projector is stored once, as ``channel_blocks``: one (channel,
    matrix) pair per channel of the double, the matrix acting on the
    channel's double trace (2 * channel.dim complex dimensions).  The
    read-only ``blocks`` are derived from them once, in ascending integer
    frequency: per mode, a block acts on the full-fiber double trace
    (2 * n_fiber complex dimensions) of one frequency, and with holonomy it
    is the sum of the embedded eigenphase-channel blocks.  The y-coupled
    projector has one channel, with no basis: its block acts on all
    (component, y, fiber) coordinates and is its one full block.
    """

    model: object
    n_y: int
    method: str
    channel_blocks: list = field(default_factory=list)  # (channel, matrix)

    @property
    def per_mode(self):
        """False on the y-coupled projector, whose channel has no basis."""
        return all(ch.basis is not None for ch, _ in self.channel_blocks)

    @cached_property
    def blocks(self):
        """Full-fiber blocks, one per integer frequency."""
        return _group_by_eta(self.model, self.channel_blocks)

    def matrix(self):
        """Assembled complex matrix (deterministic mode ordering)."""
        return _block_diag(self.blocks)

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
        coeffs = []
        for ch, block in self.channel_blocks:
            coeffs.append((ch, block @ g.channel_coeff(ch)))
        return BoundaryData.from_channel_coeffs(self.model, self.n_y, coeffs)

    def diagnostics(self):
        """Idempotency and self-adjointness defects (2-norm), dimension and
        algebra-membership defect: maxima over the diagonal blocks, since
        the 2-norm of a block-diagonal matrix is the largest block norm and
        its off-diagonal m-blocks are exactly zero.
        """
        alg = self.model.algebra
        out = {
            "idempotency_defect": max(
                float(np.linalg.norm(b @ b - b, 2)) for b in self.blocks
            ),
            "self_adjointness_defect": max(
                float(np.linalg.norm(b - b.conj().T, 2)) for b in self.blocks
            ),
            "dimension": sum(b.shape[0] for b in self.blocks),
            "a_membership_defect": max(
                float(membership_defect(alg, b)) for b in self.blocks
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


def _block_diag(blocks):
    """Block-diagonal matrix with the given 2-d blocks along the diagonal."""
    rows, cols = np.sum([b.shape for b in blocks], axis=0)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r += b.shape[0]
        c += b.shape[1]
    return out


def _embed_channel_block(model, ch, block):
    """Embed a (2d x 2d) channel block into the full-fiber double trace."""
    if ch.basis is None:  # the y-coupled channel acts on it already
        return block
    rm = model.rm
    n_f = model.n_fiber
    q = ch.basis.shape[1]
    e_f = np.zeros((n_f, 2 * q), dtype=complex)
    e_f[:rm, :q] = ch.basis
    e_f[rm:, q:] = ch.basis
    e_b = _block_diag([e_f, e_f])
    return e_b @ block @ e_b.conj().T


def _group_by_eta(model, channel_blocks):
    """Sum embedded channel blocks sharing an integer frequency, ascending."""
    by_eta = {}
    for ch, block in channel_blocks:
        key = int(round(ch.eta))
        emb = _embed_channel_block(model, ch, block)
        if key in by_eta:
            by_eta[key] = by_eta[key] + emb
        else:
            by_eta[key] = emb
    return [by_eta[e] for e in sorted(by_eta)]


# -- Poisson operator and Calderon projector ---------------------------


def exact_projector_block(b_mat):
    """The graph projection P(e^{-b}) on the double trace of one mode."""
    t = expm(-np.asarray(b_mat, dtype=complex))
    e_plus = expm(np.asarray(b_mat, dtype=complex))
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
    return BoundaryProjector(
        model=sys.model,
        n_y=sys.grid.n_y,
        method=method,
        channel_blocks=channel_blocks,
    )


# -- principal symbol by the sign integral -----------------------------

PINCH_TOL = 1e-6


def principal_symbol(model_or_matrix, eta=None, tol=1e-12, max_doublings=10):
    """Positive spectral projection of the tangential symbol, by the
    integral form of the matrix sign.

    Accepts either a model plus frequency (the fiber matrix is B(eta)) or a
    Hermitian matrix directly.  Computes

        P+ = 1/2 + (1/pi) int t herm((b - i t)^{-1}) ds,   t = e^s,

    with the trapezoidal rule in s over [log|lambda|_min - 40,
    log|lambda|_max + 40] (the eigenvalues only set the window).  The
    integrand is analytic in |Im s| < pi/2, so the rule converges like
    exp(-pi^2 / h).  Starting at h ~ 1, each halving adds only the new
    midpoints; it stops when successive levels agree to ``tol`` in the
    2-norm.
    """
    return _principal_symbol_nodes(model_or_matrix, eta, tol, max_doublings)[0]


def _principal_symbol_nodes(
    model_or_matrix, eta=None, tol=1e-12, max_doublings=10
):
    """:func:`principal_symbol` and the number of resolvents it inverted."""
    if eta is not None or hasattr(model_or_matrix, "tangential_matrix"):
        b = model_or_matrix.tangential_matrix(eta)
    else:
        b = np.asarray(model_or_matrix, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise StructureError("fiber matrix must be square")
    scale = max(1.0, np.linalg.norm(b, 2))
    if np.linalg.norm(b - b.conj().T, 2) > 1e-10 * scale:
        raise StructureError("tangential symbol must be self-adjoint")
    eigs = np.abs(np.linalg.eigvalsh(0.5 * (b + b.conj().T)))
    if eigs.min() < PINCH_TOL:
        raise CertificationError(
            "sign integral pinched: eigenvalue %.3e within %.0e of zero"
            % (eigs.min(), PINCH_TOL)
        )
    lo = np.log(eigs.min()) - 40.0
    width = np.log(eigs.max()) + 40.0 - lo
    panels = int(np.ceil(width))
    h = width / panels
    eye = np.eye(b.shape[0])
    acc = np.zeros(b.shape, dtype=complex)  # sum of t (b - it)^{-1} so far
    offsets = np.arange(panels + 1.0)  # the first level includes both ends
    prev = None
    for _ in range(max_doublings + 1):
        t = np.exp(lo + h * offsets)
        res = np.linalg.inv(b - 1j * t[:, None, None] * eye)
        acc += np.einsum("k,kij->ij", t, res)
        cur = 0.5 * eye + (h / (2.0 * np.pi)) * (acc + acc.conj().T)
        if prev is not None and np.linalg.norm(cur - prev, 2) < tol:
            return cur, panels + 1
        prev = cur
        panels *= 2
        h *= 0.5
        offsets = np.arange(1.0, panels, 2.0)  # the new midpoints
    raise CertificationError(
        "sign integral did not reach %.1e agreement" % tol
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
        return _block_diag(
            [spectral_projection_positive(b), spectral_projection_positive(-b)]
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
    of each channel block."""
    return BoundaryProjector(
        model=projector.model,
        n_y=projector.n_y,
        method=projector.method + "+orthogonalized",
        channel_blocks=[
            (ch, orthogonalize_idempotent_matrix(b)[0])
            for ch, b in projector.channel_blocks
        ],
    )


def calderon_vs_aps_index(sys, method="exact"):
    """Relative index of the APS projection against the Calderon range.

    Both projectors are built over the same channels (the model's
    :meth:`~calderon.dirac.ProductDiracModel.mode_channels`, per mode or the
    one y-coupled channel) and compared with hilbmod.relative_index, block
    by block per integer frequency; the result is an integer
    (complex-dimension counting) reported with the truncation radius.
    """
    model = sys.model
    n_y = sys.grid.n_y
    c_proj = calderon_projector(sys, method=method)
    c_orth = orthogonalized_calderon(c_proj)
    pi_proj = aps_projection(model, n_y=n_y)
    index = relative_index(pi_proj.blocks, c_orth.blocks)
    return {
        "index": int(index),
        "mode_radius": mode_radius(n_y),
        "dimension": sum(b.shape[0] for b in c_orth.blocks),
    }
