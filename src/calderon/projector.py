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
and eigenphase, or per commutant cluster of a V(y)), built from the 2x2 maps
p(lambda) from jump data to traces of the double's scalar transmission
systems, the discrete P(e^{-lambda}), each read from one solve of its
complex half system C(lambda).  Its principal symbol (the large
|eta| limit of the u=0 block) is the positive spectral projection of b,
computed independently by the scaled Newton iteration for the matrix sign.
The spectral (APS) projection is stored the same way, its blocks read from
the eigenpairs of b that the double already holds; the relative index of
the two is the kernel count of those eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .csalg import adjoint_defect, dagger, herm, map_groups, map_members
from .csalg import opnorm, shape_groups
from .dirac import (
    CollarFunction,
    _channels_to_values,
    _values_to_channels,
    graph_projection,
    mode_radius,
    y_points,
    y_weight,
)
from .errors import CertificationError, StructureError
from .hilbmod import membership_defect, projection_defects


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
    def random_band_limited(cls, model, n_y, rng):
        """Random data supported on the dealiased frequency set."""
        g0, g1 = _band_limited(_band_limited_draw(model, n_y, rng), n_y)
        return cls(model, n_y, g0, g1)

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


def _band_limited_draw(model, n_y, rng):
    """Standard normal coefficients of both traces, (2, 2 cut + 1, 2,
    n_fiber, m): per trace and frequency the real then the imaginary
    part, as one draw of that shape consumes the stream."""
    cut = mode_radius(n_y)
    return rng.standard_normal((2, 2 * cut + 1, 2, model.n_fiber, model.m))


def _band_limited(g, n_y):
    """Samples (..., n_y, n_fiber, m) of sum_eta e^{i eta y} c_eta over the
    dealiased frequencies, c_eta = g[..., k, 0] + i g[..., k, 1] from
    coefficients g (..., 2 cut + 1, 2, n_fiber, m), any leading axes: the
    frequencies are added in ascending order, each e^{i eta y} formed
    once."""
    cut = mode_radius(n_y)
    y = y_points(n_y)
    coef = g[..., 0, :, :] + 1j * g[..., 1, :, :]
    vals = np.zeros(g.shape[:-4] + (n_y,) + g.shape[-2:], dtype=complex)
    for k, eta in enumerate(range(-cut, cut + 1)):
        vals += np.exp(1j * eta * y)[:, None, None] * coef[..., k, None, :, :]
    return vals


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
    projector has one channel per commutant cluster, and its one full block,
    on all (component, y, fiber) coordinates, is the sum of theirs embedded.
    The full blocks serve the membership defect and the export only.
    """

    model: object
    n_y: int
    channel_blocks: list = field(default_factory=list)  # (channel, matrix)

    @property
    def per_mode(self):
        """False on the y-coupled projector."""
        return not any(ch.coupled for ch, _ in self.channel_blocks)

    @cached_property
    def blocks(self):
        """Full-fiber blocks, one per integer frequency."""
        return _group_by_eta(self.channel_blocks)

    def matrix(self):
        """Assembled complex matrix (deterministic mode ordering)."""
        return _block_diag(self.blocks)

    def apply(self, g):
        """Apply to boundary data on the projector's grid (see
        :meth:`_apply_traces`)."""
        _check_data_model(g, self.model)
        if g.n_y != self.n_y:
            raise StructureError("data on n_y %d, not %d" % (g.n_y, self.n_y))
        out = self._apply_traces(np.stack([g.g0, g.g1]))
        return BoundaryData(self.model, self.n_y, out[0], out[1])

    def _apply_traces(self, traces):
        """The projector on trace pairs (..., 2, n_y, n_fiber, m), any
        leading axes: the traces are gathered into the channels' y-slabs
        and added back into them (the channel map of
        :func:`calderon.dirac._values_to_channels`), with one batched
        block product per group of equal-sized channels, b[:, None] @ c
        over the flattened leading axis; each member is bit-identical to
        its one-pair call."""
        flat = traces.reshape((-1,) + traces.shape[-4:])
        channels = [ch for ch, _ in self.channel_blocks]
        blocks = [block for _, block in self.channel_blocks]
        coeffs = _values_to_channels(flat, channels, self.n_y)
        coeffs = [c.reshape(len(flat), -1, self.model.m) for c in coeffs]
        out = map_groups(lambda b, c: b[:, None] @ c, blocks, coeffs)
        out = _channels_to_values(out, channels, self.n_y, flat.shape)
        return out.reshape(traces.shape)

    def diagnostics(self):
        """Idempotency and self-adjointness defects (2-norm) of the
        assembled projector P = W diag(p_c) W*, bounded from the channel
        blocks p_c with no SVD of an assembled block, and the dimension and
        algebra-membership defect.

        W is the fiber basis the channels embed by, and delta =
        ||W*W - I||_2 (``embedding_unitarity_defect``), read from the
        channels themselves (:func:`_basis_defect`).  With e_c = ||p_c^2 -
        p_c||_2 and a_c = ||p_c - p_c*||_2
        (:func:`~calderon.hilbmod.projection_defects`) and ||W||^2 <= 1 +
        delta, the reported values are

            ||P^2 - P|| <= (1 + delta) (max e_c + delta max x_c^2),
            ||P - P*||  <= (1 + delta) max a_c,

        x_c = (1 + a_c + sqrt((1 + a_c)^2 + 4 e_c))/2 >= ||p_c||_2, as
        ||p||^2 = ||p* p|| <= ||p^2|| + ||(p* - p) p||.  With delta = 0 they
        are the channel maxima.  With delta > 0 both add n eps max x_c^2, n
        the size of the largest full-fiber block, for the rounding of the
        embedding products of the float64 ``matrix()``, so that they bound
        the exported matrix as well.  The membership defect is taken on the
        full-fiber ``blocks`` (zero on M_n, with no SVD).
        """
        blocks = [b for _, b in self.channel_blocks]
        idem, asym = projection_defects(blocks)
        norm = 0.5 * (1.0 + asym + np.sqrt((1.0 + asym) ** 2 + 4.0 * idem))
        delta = _basis_defect([ch for ch, _ in self.channel_blocks])
        x2 = (norm**2).max()
        size = max(map(len, self.blocks))
        rounding = size * np.finfo(float).eps * x2 if delta else 0.0
        out = {
            "idempotency_defect": float(
                (1.0 + delta) * (idem.max() + delta * x2) + rounding
            ),
            "self_adjointness_defect": float(
                (1.0 + delta) * asym.max() + rounding
            ),
            "embedding_unitarity_defect": delta,
            "dimension": sum(map(len, blocks)),
            "a_membership_defect": max(
                membership_defect(self.model.algebra, b)
                for _, b in shape_groups(self.blocks)
            ),
        }
        if self.per_mode:
            out["mode_count"] = len(self.blocks)
        return out

    def a_linearity_defect(self, rng, trials=10):
        """Max of ||C(g a) - (C g) a|| over random data and algebra elements.

        A-linearity is structural (the projector acts on representation
        rows, the algebra on columns); this measures it directly anyway.
        Each trial draws the coefficients of trace 0, those of trace 1
        (as :meth:`BoundaryData.random_band_limited`) and then the algebra
        element; all trials, g a and g alike, run through one stacked
        :meth:`_apply_traces`, and each trial's norm is taken on its own,
        so the result is that of one trial at a time, bit for bit.
        """
        if not trials:
            return 0.0
        draws, mats = [], []
        for _ in range(trials):
            draws.append(_band_limited_draw(self.model, self.n_y, rng))
            mats.append(self.model.algebra.random_element(rng).mat)
        g = _band_limited(np.stack(draws), self.n_y)  # (trials, 2, n_y, f, m)
        a = np.stack(mats)[:, None, None]
        lhs, rhs = self._apply_traces(np.stack([g @ a, g]))
        diff = lhs - rhs @ a
        return max(
            BoundaryData(self.model, self.n_y, d[0], d[1]).norm() for d in diff
        )


def _basis_defect(channels):
    """||W*W - I||_2 of W, the distinct fiber bases of the channels side by
    side in channel order: those of the channels of the first frequency,
    one per eigenphase per mode and one per commutant cluster y-coupled
    (the upper left block of each embedding diag(basis, basis)).  0.0 with
    no SVD when W*W - I is exactly zero, as it is for W = I."""
    bases = [
        e[: len(e) // 2, : e.shape[1] // 2]
        for e in (ch.embedding for ch in channels if ch.eta == channels[0].eta)
    ]
    w = np.concatenate(bases, axis=1)
    gram = dagger(w) @ w - np.eye(w.shape[1])
    return float(opnorm(gram)) if gram.any() else 0.0


def _check_data_model(g, model):
    """Refuse boundary data over another algebra or fiber than ``model``'s."""
    if g.model is not model and (
        g.model.algebra != model.algebra or g.model.n_fiber != model.n_fiber
    ):
        raise StructureError("boundary data model mismatch")


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


def _embed_channel_block(ch, block):
    """Embed a channel block into the full-fiber double trace: (I_k x E)
    block (I_k x E)* by two products, E the channel's embedding and k its
    slab count on the two traces (2 per mode, 2 n_y y-coupled)."""
    e = ch.embedding
    f, q2 = e.shape
    k = len(block) // q2
    x = block.reshape(k, q2, k, q2).transpose(1, 0, 2, 3).reshape(q2, -1)
    x = (e @ x).reshape(-1, q2) @ dagger(e)
    return x.reshape(f, k, k, f).transpose(1, 0, 2, 3).reshape(k * f, -1)


def _group_by_eta(channel_blocks):
    """Sum embedded channel blocks sharing an integer frequency, ascending."""
    by_eta = {}
    for ch, block in channel_blocks:
        key = int(round(ch.eta))
        emb = _embed_channel_block(ch, block)
        if key in by_eta:
            by_eta[key] = by_eta[key] + emb
        else:
            by_eta[key] = emb
    return [by_eta[e] for e in sorted(by_eta)]


# -- Poisson operator and Calderon projector ---------------------------


def exact_projector_block(b_mat):
    """The graph projection P(e^{-b}) = 1/2 [[I + tanh b, sech b], [sech b,
    I - tanh b]] on the double trace of one mode, as the double's exact
    oracle :func:`calderon.dirac.exact_channel` forms it."""
    return graph_projection(b_mat)[0]


def _collocation_blocks(sys):
    """Channel blocks (I_2 x U) [p_ij(lambda_k)] (I_2 x U*) of C: p(lambda)
    maps the jumps (jump0, jump1) to phi(0), phi(1).  Both jumps enter the
    last row of the half system C(lambda), jump1 times i, so one batched
    complex 1-column solve w = C(lambda)^-1 e_n of the double's store,
    split over the CPUs by :func:`~calderon.csalg.map_members`, gives
    p = [[Re w_0, -Im w_0], [Re w_n, -Im w_n]].  The rotations run as one
    batched product per group of equal-sized channels."""
    n = sys.grid.n_u
    e = np.zeros((1, n + 1, 1), dtype=complex)
    e[0, n, 0] = 1.0
    w = map_members(lambda c: np.linalg.solve(c, e), sys.systems)
    w = w[:, [0, n], 0]
    p_all = np.stack([w.real, -w.imag], axis=-1)

    def rotate(u, rows):
        u_star, p = dagger(u), p_all[rows][:, None]
        upu = [[(u * p[..., i, j]) @ u_star for j in (0, 1)] for i in (0, 1)]
        return np.block(upu)

    channels = sys.channels
    return map_groups(
        rotate, [cs.eigvecs for cs in channels], [cs.rows for cs in channels]
    )


def poisson(sys, g, with_side2=False):
    """Solve the double with a boundary-data jump layer: the Poisson operator.

    Returns the side-1 solution; its traces are the Calderon projection of
    ``g`` and it solves the homogeneous equation in the interior.
    """
    _check_data_model(g, sys.model)
    phi, tau = sys.solve(jump0=g.g0, jump1=g.g1)
    out = CollarFunction(sys.grid, phi)
    if with_side2:
        return out, CollarFunction(sys.grid, tau)
    return out


def boundary_trace(model, s):
    """Traces of a side-1 collar section as boundary data."""
    return BoundaryData(model, s.grid.n_y, s.values[0], s.values[-1])


def calderon_projector(sys):
    """Assemble the Calderon projector of the double system.

    One block per channel of the double: the traces of the discrete
    transmission solve under jump data, from the 2x2 trace maps of the
    double's distinct eigenvalues rotated back with each channel's
    eigenvectors.
    """
    channel_blocks = list(
        zip([cs.channel for cs in sys.channels], _collocation_blocks(sys))
    )
    return BoundaryProjector(
        model=sys.model, n_y=sys.grid.n_y, channel_blocks=channel_blocks
    )


# -- principal symbol by the scaled Newton sign iteration ---------------

PINCH_TOL = 1e-6
#: the sign iteration stops when a step moves X by less than this
SIGN_TOL = 1e-12
#: steps before the sign iteration gives up; Byers-Xu needs at most 9
SIGN_MAX_STEPS = 16


def principal_symbol(b):
    """Positive spectral projection P+ = (I + sign b)/2 of a Hermitian
    fiber matrix ``b`` by the scaled Newton iteration for the matrix sign,
    with its number of steps (one inverse each) and the Frobenius norm of
    its last step.

    From X = b, each step X <- herm((mu X + X^{-1}/mu)/2) takes one
    inverse.  The Byers-Xu scaling mu_0 = 1/sqrt(ac), mu_1 = sqrt(2
    sqrt(ac)/(a + c)), mu <- 1/sqrt((mu + 1/mu)/2), with a and c the
    largest and smallest |eigenvalue| (they only set the schedule), reaches
    double precision in at most 9 steps.  It stops when a step moves X by
    less than SIGN_TOL in the Frobenius norm, a bound on the 2-norm.

    A stack (..., n, n) runs as one pass: each step inverts the matrices
    that have not stopped yet, each with its own mu, and each stops at its
    own step, so every member is bit-identical to its one-matrix call.  The
    projections then come with arrays (...) of step counts and last steps.
    Every member must be self-adjoint (else StructureError) and keep its
    eigenvalues PINCH_TOL away from zero (else CertificationError).
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise StructureError("fiber matrix must be square")
    n = b.shape[-1]
    lead = b.shape[:-2]
    b = b.reshape((-1, n, n))
    if np.any(adjoint_defect(b) > 1e-10 * np.maximum(1.0, opnorm(b))):
        raise StructureError("tangential symbol must be self-adjoint")
    x = herm(b)
    eigs = np.abs(np.linalg.eigvalsh(x))
    a, c = eigs.max(axis=-1), eigs.min(axis=-1)
    if np.any(c < PINCH_TOL):
        raise CertificationError(
            "sign iteration pinched: eigenvalue %.3e within %.0e of zero"
            % (c.min(), PINCH_TOL)
        )
    proj = np.empty_like(x)
    steps = np.zeros(len(x), dtype=int)
    last = np.zeros(len(x))
    live = np.arange(len(x))  # members still iterating
    mu = 1.0 / np.sqrt(a * c)
    for k in range(1, SIGN_MAX_STEPS + 1):
        m = mu[:, None, None]
        x, prev = 0.5 * (m * x + np.linalg.inv(x) / m), x
        x = herm(x)
        step = _frobenius(x - prev)
        done = step < SIGN_TOL
        idx = live[done]
        proj[idx] = 0.5 * (np.eye(n) + x[done])
        steps[idx], last[idx] = k, step[done]
        if done.all():
            if not lead:
                return proj[0], int(steps[0]), float(last[0])
            shape = lead + (n, n)
            return proj.reshape(shape), steps.reshape(lead), last.reshape(lead)
        go = ~done
        x, live, a, c, mu = x[go], live[go], a[go], c[go], mu[go]
        mu = (
            np.sqrt(2.0 * np.sqrt(a * c) / (a + c))
            if k == 1
            else 1.0 / np.sqrt(0.5 * (mu + 1.0 / mu))
        )
    raise CertificationError(
        "sign iteration did not reach %.1e agreement" % SIGN_TOL
    )


def _frobenius(d):
    """Frobenius norm of each matrix of a stack (k, n, n), by the strided
    dot products of real and imaginary parts that ``np.linalg.norm`` takes
    for one matrix (a row times a column is one such dot per member)."""
    rows = d.reshape(len(d), 1, -1)
    re, im = rows.real, rows.imag
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[:, 0, 0])


#: eigenvalues of magnitude up to this are kernel; the spectral
#: projections below put the kernel on the positive side
ZERO_EIG_TOL = 1e-10


def _positive_part(eigvals, eigvecs):
    """Projection onto the eigenvectors with eigenvalue >= -ZERO_EIG_TOL."""
    v = eigvecs[:, eigvals >= -ZERO_EIG_TOL]
    return v @ v.conj().T


def spectral_projection_positive(b_mat):
    """Eigendecomposition projection onto eigenvalues > 0 (kernel included),
    of a matrix or of each matrix of a stack (..., n, n) from one stacked
    eigh."""
    b_mat = np.asarray(b_mat, dtype=complex)
    n = b_mat.shape[-1]
    w, v = np.linalg.eigh(herm(b_mat))
    parts = map(_positive_part, w.reshape(-1, n), v.reshape(-1, n, n))
    return np.stack(list(parts)).reshape(b_mat.shape)


#: the frequency ladder of symbol_limit_check
SYMBOL_LIMIT_ETAS = (2.0, 4.0, 8.0, 16.0)


def symbol_limit_check(model):
    """Large-frequency comparison of the projector with its symbol.

    For each eta of SYMBOL_LIMIT_ETAS computes delta = ||(I + tanh b)/2 -
    P+(b)||, b = B(eta): the u=0 block of the exact graph projection
    (:func:`exact_projector_block`) against the positive spectral
    projection (the eigendecomposition one, to keep the floor at rounding),
    each from one stacked call over the ladder; certifies monotone decrease
    and delta <= K / |eta|.
    """
    if model.y_dependent:
        raise StructureError("symbol limit check needs constant coefficients")
    etas = list(SYMBOL_LIMIT_ETAS)
    b = np.stack([model.tangential_matrix(eta) for eta in etas])
    k = b.shape[-1]
    top = exact_projector_block(b)[..., :k, :k]
    deltas = opnorm(top - spectral_projection_positive(b)).tolist()
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


def aps_projection(sys):
    """Spectral boundary projection over the channels of the double.

    On the double trace of a channel the block is diag(P+(b), P+(-b)): the
    inward normal at the second boundary circle reverses the tangential
    operator.  Both come from the eigenpairs b = U diag(lambda) U* that
    the double already holds (``eigvecs``, ``eigvals``), so no further
    eigendecomposition is taken.  Kernel eigenvalues (|lambda| <=
    ``ZERO_EIG_TOL``) are assigned to the positive side of both.
    """
    channel_blocks = []
    for cs in sys.channels:
        w, v = cs.eigvals, cs.eigvecs
        block = _block_diag([_positive_part(w, v), _positive_part(-w, v)])
        channel_blocks.append((cs.channel, block))
    return BoundaryProjector(
        model=sys.model, n_y=sys.grid.n_y, channel_blocks=channel_blocks
    )


def kernel_count(values):
    """The number of |v| <= ZERO_EIG_TOL among the 1-d arrays ``values``,
    and its margin, the smallest |v| above it (inf if none)."""
    mags = np.abs(np.concatenate(values))
    kernel = mags <= ZERO_EIG_TOL
    return int(kernel.sum()), float(mags[~kernel].min(initial=np.inf))


def calderon_vs_aps_index(sys):
    """Relative index of the APS projection against the Calderon range.

    On a channel whose b has size n, the Calderon range (the graph of
    e^{-b}) has dimension n and the APS block of :func:`aps_projection`
    rank n + dim ker b: the index is the :func:`kernel_count` of the
    double's eigenvalues, with its margin and threshold.  It comes with
    the double trace's complex dimension and the frequencies it counts:
    ``mode_radius`` (|eta| <= n_y // 3) per mode, ``y_frequencies`` = n_y
    on the y-coupled channels."""
    index, margin = kernel_count([cs.eigvals for cs in sys.channels])
    out = {
        "index": index,
        "dimension": sum(2 * len(cs.eigvals) for cs in sys.channels),
        "eigenvalue_margin": margin,
        "kernel_tol": ZERO_EIG_TOL,
    }
    if sys.per_mode:
        out["mode_radius"] = mode_radius(sys.grid.n_y)
    else:
        out["y_frequencies"] = sys.grid.n_y
    return out
