"""Hilbert A-module linear algebra over the algebras of :mod:`calderon.csalg`.

Free modules A^k are realized concretely: a module vector is a k-tuple of
algebra elements, stored as a stacked (k*m) x m complex matrix (m the
representation dimension), and an adjointable operator A^k -> A^l is an
l x k array of algebra elements acting by block matrix multiplication.
Right A-action is multiplication on the representation columns, so module
kernels and ranges reduce to column-space computations on the representing
complex matrices.

Vectors and operators may carry leading axes: a stack (..., k*m, m) of
vectors or (..., l*m, k*m) of operators, built from stacked algebra
elements.  The module operations (``times``, ``apply``, ``compose``, sums,
:func:`inner_product`, :func:`rank_one`, :func:`adjoint`) then act member
by member in one pass, each member bit-identical to the one-object call,
and so does :func:`orthogonalize_idempotent_matrix` on a stack of
matrices.  The relative index and :func:`projection_defects` take lists of
blocks, stacked per shape; the relative index is the dense reference of
:func:`calderon.projector.calderon_vs_aps_index`.  The closed-range and
decomposition routines take one operator; :func:`mishchenko_decompose`
returns its generators as stacked vectors, one member per generator
(:func:`vectors_from_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csalg import AlgebraElement, adjoint_defect, dagger, herm, opnorm
from .csalg import shape_groups
from .errors import CertificationError, StructureError

#: relative singular-value threshold for numerical rank decisions
RANK_RTOL = 1e-9
#: smallest eigenvalue of T*T that certifies a closed range
GAP_TOL = 1e-9
#: relative idempotency defect accepted by the orthogonalization
IDEM_TOL = 1e-8
#: relative projection defects accepted by the relative index
PROJECTION_TOL = 1e-10


class ModuleVector:
    """Element of the free Hilbert module A^k.

    ``stack`` has shape (k*m, m): the representing matrices of the k
    coordinates, stacked vertically (with any leading axes of a stack).
    """

    __slots__ = ("algebra", "rank", "stack")

    def __init__(self, algebra, rank, stack):
        self.algebra = algebra
        self.rank = int(rank)
        stack = np.asarray(stack, dtype=complex)
        m = algebra.rep_dim
        if stack.shape[-2:] != (self.rank * m, m):
            raise StructureError("stack shape does not match rank/algebra")
        self.stack = stack

    @classmethod
    def from_entries(cls, entries):
        """Build from a sequence of AlgebraElements."""
        if not entries:
            raise StructureError("empty module vector")
        alg = entries[0].algebra
        for e in entries:
            if e.algebra != alg:
                raise StructureError("algebra mismatch among entries")
        mats = [e.mat for e in entries]
        return cls(alg, len(entries), np.concatenate(mats, axis=-2))

    @classmethod
    def random(cls, algebra, rank, rng):
        return cls.from_entries(
            [algebra.random_element(rng) for _ in range(rank)]
        )

    def times(self, a):
        """Right action x . a."""
        if a.algebra != self.algebra:
            raise StructureError("algebra mismatch")
        return ModuleVector(self.algebra, self.rank, self.stack @ a.mat)

    def __add__(self, other):
        self._compat(other)
        return ModuleVector(self.algebra, self.rank, self.stack + other.stack)

    def __sub__(self, other):
        self._compat(other)
        return ModuleVector(self.algebra, self.rank, self.stack - other.stack)

    def __rmul__(self, scalar):
        return ModuleVector(self.algebra, self.rank, complex(scalar) * self.stack)

    def norm(self):
        """Hilbert-module norm ||<x,x>_A||^(1/2): a float, or an array over
        the members of a stack."""
        return _per_member(np.sqrt(opnorm(inner_product(self, self).mat)))

    def _compat(self, other):
        if self.algebra != other.algebra or self.rank != other.rank:
            raise StructureError("rank/algebra mismatch")

    def __repr__(self):
        return "ModuleVector(rank=%d, %r)" % (self.rank, self.algebra)


class ModuleOperator:
    """Adjointable operator A^k -> A^l given by an l x k matrix over A.

    ``rep`` is the representing (l*m) x (k*m) complex matrix; it acts on the
    stacked representation of a module vector by left multiplication, which
    commutes with the right A-action on columns.  In these free modules
    every matrix over A is adjointable, the adjoint being the entrywise
    starred transpose.
    """

    __slots__ = ("algebra", "source_rank", "target_rank", "rep")

    def __init__(self, algebra, source_rank, target_rank, rep):
        self.algebra = algebra
        self.source_rank = int(source_rank)
        self.target_rank = int(target_rank)
        rep = np.asarray(rep, dtype=complex)
        m = algebra.rep_dim
        if rep.shape[-2:] != (self.target_rank * m, self.source_rank * m):
            raise StructureError("rep shape does not match ranks/algebra")
        self.rep = rep

    @classmethod
    def from_entries(cls, entries):
        """Build from an l x k nested sequence of AlgebraElements."""
        rows = [list(r) for r in entries]
        alg = rows[0][0].algebra
        rep = np.block([[e.mat for e in row] for row in rows])
        return cls(alg, len(rows[0]), len(rows), rep)

    @classmethod
    def random(cls, algebra, source_rank, target_rank, rng):
        return cls.from_entries(
            [
                [algebra.random_element(rng) for _ in range(source_rank)]
                for _ in range(target_rank)
            ]
        )

    def apply(self, x):
        if x.algebra != self.algebra or x.rank != self.source_rank:
            raise StructureError("rank/algebra mismatch")
        return ModuleVector(self.algebra, self.target_rank, self.rep @ x.stack)

    def compose(self, other):
        if (
            other.algebra != self.algebra
            or other.target_rank != self.source_rank
        ):
            raise StructureError("rank/algebra mismatch in composition")
        return ModuleOperator(
            self.algebra,
            other.source_rank,
            self.target_rank,
            self.rep @ other.rep,
        )

    def __add__(self, other):
        self._same_shape(other)
        return ModuleOperator(
            self.algebra, self.source_rank, self.target_rank, self.rep + other.rep
        )

    def __sub__(self, other):
        self._same_shape(other)
        return ModuleOperator(
            self.algebra, self.source_rank, self.target_rank, self.rep - other.rep
        )

    def __rmul__(self, scalar):
        return ModuleOperator(
            self.algebra,
            self.source_rank,
            self.target_rank,
            complex(scalar) * self.rep,
        )

    def norm(self):
        """Operator norm: a float, or an array over the members of a stack."""
        return _per_member(opnorm(self.rep))

    def _same_shape(self, other):
        if (
            other.algebra != self.algebra
            or other.source_rank != self.source_rank
            or other.target_rank != self.target_rank
        ):
            raise StructureError("shape/algebra mismatch")

    def __repr__(self):
        return "ModuleOperator(A^%d -> A^%d, %r)" % (
            self.source_rank,
            self.target_rank,
            self.algebra,
        )


def membership_defect(algebra, rep):
    """Max distance of the m x m blocks of ``rep``, or of every matrix of a
    stack (..., l*m, k*m), from the algebra span."""
    m = algebra.rep_dim
    l = rep.shape[-2] // m
    k = rep.shape[-1] // m
    # blocks[..., i, j] = rep[..., i*m:(i+1)*m, j*m:(j+1)*m]
    blocks = rep[..., : l * m, : k * m].reshape(rep.shape[:-2] + (l, m, k, m))
    blocks = blocks.swapaxes(-3, -2)
    return float(np.max(algebra.membership_defect(blocks), initial=0.0))


# -- basic operations ---------------------------------------------------


def _per_member(a):
    """A float for one member, the array itself for a stack."""
    return float(a) if np.ndim(a) == 0 else a


def inner_product(x, y):
    """A-valued inner product <x, y> = sum_i x_i^* y_i."""
    x._compat(y)
    return AlgebraElement(x.algebra, dagger(x.stack) @ y.stack)


def rank_one(x, y):
    """The rank-one operator z -> x <y, z>."""
    if x.algebra != y.algebra:
        raise StructureError("algebra mismatch")
    return ModuleOperator(
        x.algebra, y.rank, x.rank, x.stack @ dagger(y.stack)
    )


def adjoint(T):
    """Entrywise-starred transpose; satisfies <u, Tv> = <T* u, v>."""
    return ModuleOperator(
        T.algebra, T.target_rank, T.source_rank, dagger(T.rep)
    )


# -- closed range and the Mishchenko decomposition ----------------------


@dataclass
class ClosedRangeReport:
    gap: float
    closed: bool
    gap_adjoint: float


def closed_range_gap(T):
    """Spectral gap of T*T above zero, certifying closed range.

    ``gap`` is the smallest nonzero eigenvalue of T*T in the representation
    (0 for the zero operator); zero eigenvalues are identified with the
    relative threshold RANK_RTOL.  The same gap computed from TT* is
    reported as a finite-dimensional check of the closed-range lemma; the
    range is certified closed when ``gap`` >= GAP_TOL.
    """
    return _closed_range(T, np.linalg.svd(T.rep, compute_uv=False))[1]


def _closed_range(T, s):
    """Numerical rank of T and its :class:`ClosedRangeReport`, read from
    the singular values ``s`` of T, with one more SVD, of T*, for
    ``gap_adjoint``."""
    nonzero = s[s > RANK_RTOL * s.max(initial=0.0)]
    if nonzero.size == 0:
        return 0, ClosedRangeReport(gap=0.0, closed=True, gap_adjoint=0.0)
    gap = float(nonzero[-1] ** 2)
    # T*T and TT* share nonzero spectrum; at finite dimension the check is
    # exact up to eigensolver noise.
    s_adj = np.linalg.svd(dagger(T.rep), compute_uv=False)
    gap_adj = float(s_adj[s_adj > RANK_RTOL * s_adj[0]][-1] ** 2)
    return nonzero.size, ClosedRangeReport(
        gap=gap, closed=bool(gap >= GAP_TOL), gap_adjoint=gap_adj
    )


@dataclass
class MishchenkoDecomposition:
    """Generator stacks certifying M = Ker T (+) Ran T*, N = Ker T* (+) Ran T."""

    ker_basis: ModuleVector
    ran_basis: ModuleVector
    ker_adj_basis: ModuleVector
    ran_adj_basis: ModuleVector
    residuals: dict


def vectors_from_columns(algebra, rank, cols):
    """One module generator per column v of ``cols`` (rank*m, k), as a
    stacked ModuleVector (k, rank*m, m) whose members' representation
    columns span the A-orbits of the columns.

    For a group algebra the i-th entry is the element with coefficient
    vector v_i, so the columns of the stack are the right-translates of
    ``v`` -- these stay inside any subspace that is invariant under the
    operators of M_rank(A), in particular inside kernels and ranges.
    For a matrix algebra the entry simply carries v_i in its first column.
    """
    m = algebra.rep_dim
    v = np.asarray(cols, dtype=complex).T.reshape(-1, rank, m)
    if algebra.kind == "group":
        mats = np.einsum("kih,hrc->kirc", v, algebra._group_basis)
    else:
        mats = np.zeros(v.shape + (m,), dtype=complex)
        mats[..., 0] = v
    return ModuleVector(algebra, rank, mats.reshape(-1, rank * m, m))


def _cross(x, y):
    """Largest ||<x_a, y_b>||_2 over the members of two generator stacks,
    from one batched product and one ``opnorm``; 0 if either is empty."""
    return float(opnorm(dagger(x.stack)[:, None] @ y.stack).max(initial=0.0))


def _completeness(cols, rank):
    """||B B* - I||_2 for the columns of a unitary SVD factor put kernel
    first, range second: the two families together must reconstruct every
    ambient representation basis vector."""
    basis = np.hstack([cols[:, rank:], cols[:, :rank]])
    return float(opnorm(basis @ dagger(basis) - np.eye(len(basis))))


def mishchenko_decompose(T):
    """Orthogonal decomposition for an operator with certified closed range.

    The kernel and range of T as a module map are the column spaces of the
    representing matrix (the right A-action mixes representation columns
    only), so generator stacks are built from one complex SVD, whose
    singular values also certify the closed range, and certified:
    cross-orthogonality of the summands and reconstruction of every ambient
    basis vector, both below 1e-10.
    """
    u, s, vh = np.linalg.svd(T.rep)
    rank, report = _closed_range(T, s)
    if not report.closed:
        raise CertificationError(
            "range not certifiably closed (gap %.3e < %.3e)"
            % (report.gap, GAP_TOL)
        )
    alg, v = T.algebra, dagger(vh)
    ran = vectors_from_columns(alg, T.target_rank, u[:, :rank])
    ker_adj = vectors_from_columns(alg, T.target_rank, u[:, rank:])
    ran_adj = vectors_from_columns(alg, T.source_rank, v[:, :rank])
    ker = vectors_from_columns(alg, T.source_rank, v[:, rank:])
    residuals = {
        "ker_vs_ran_adj": _cross(ker, ran_adj),
        "ker_adj_vs_ran": _cross(ker_adj, ran),
        "source_completeness": _completeness(v, rank),
        "target_completeness": _completeness(u, rank),
        "gap": report.gap,
    }
    return MishchenkoDecomposition(ker, ran, ker_adj, ran_adj, residuals)


# -- idempotent orthogonalization and relative index --------------------


def orthogonalize_idempotent(C):
    """Orthogonal projection with the same range as the idempotent C.

    Computes F = C C* + (1 - C*)(1 - C) and returns C C* F^{-1}.  F must
    be certifiably invertible, else ``CertificationError`` is raised:
    singular F signals that C was not an idempotent.
    """
    orth, _ = orthogonalize_idempotent_matrix(C.rep)
    return ModuleOperator(C.algebra, C.source_rank, C.target_rank, orth)


def orthogonalize_idempotent_matrix(rep):
    """Matrix-level core of :func:`orthogonalize_idempotent`, also for
    idempotents that are not module-shaped: the orthogonal projection onto
    the range of ``rep`` and the certified smallest eigenvalue of F.  A
    stack (..., n, n) runs as one pass, each member checked on its own and
    bit-identical to its one-matrix call; the eigenvalues are then an
    array over the stack."""
    rep = np.asarray(rep)
    if rep.ndim < 2 or rep.shape[-1] != rep.shape[-2]:
        raise StructureError("idempotent must be square")
    eye = np.eye(rep.shape[-1])
    idem_defect = opnorm(rep @ rep - rep)
    if np.any(idem_defect > IDEM_TOL * np.maximum(1.0, opnorm(rep) ** 2)):
        raise StructureError(
            "operator is not idempotent within tolerance (defect %.3e)"
            % idem_defect.max()
        )
    rep_star = dagger(rep)
    f = rep @ rep_star + (eye - rep_star) @ (eye - rep)
    f_eigs = np.linalg.eigvalsh(herm(f))
    f_min = f_eigs.min(axis=-1)
    if np.any(f_min < 1e-12 * np.maximum(1.0, f_eigs.max(axis=-1))):
        raise CertificationError(
            "F numerically singular (min eigenvalue %.3e); "
            "input was not an idempotent" % f_min.min()
        )
    orth = dagger(np.linalg.solve(dagger(f), dagger(rep @ rep_star)))
    return orth, _per_member(f_min)


def _diagonal_blocks(P):
    """The diagonal blocks of a projection, a sequence of square matrices."""
    blocks = [np.asarray(b) for b in P]
    if any(b.ndim != 2 or b.shape[0] != b.shape[1] for b in blocks):
        raise StructureError("projection blocks must be square")
    return blocks


def projection_defects(blocks):
    """Idempotency and self-adjointness defects ||p^2 - p||_2 and
    ||p - p*||_2 of each block, as two arrays in block order, from one
    ``opnorm`` each per group of equal-shaped blocks.  Those of the block
    diagonal are their maxima."""
    idem, asym = np.zeros(len(blocks)), np.zeros(len(blocks))
    for idx, b in shape_groups(blocks):
        idem[idx] = opnorm(b @ b - b)
        asym[idx] = adjoint_defect(b)
    return idem, asym


def _projection_rank(blocks):
    """Rank of a block-diagonal orthogonal projection from one SVD per
    block (one stacked SVD per group of equal-shaped blocks), which also
    gives the scale (its largest singular value) of the projection checks
    and of the RANK_RTOL threshold."""
    s = [np.linalg.svd(b, compute_uv=False) for _, b in shape_groups(blocks)]
    top = max([0.0] + [v.max() for v in s if v.size])
    idem, asym = (d.max(initial=0.0) for d in projection_defects(blocks))
    if idem > PROJECTION_TOL * max(1.0, top) ** 2:
        raise StructureError("operator is not idempotent within tolerance")
    if asym > PROJECTION_TOL * max(1.0, top):
        raise StructureError("operator is not self-adjoint within tolerance")
    return sum(int(np.sum(v > RANK_RTOL * top)) for v in s)


def relative_index(P, Q):
    """Relative index of two orthogonal projections: the dense reference.

    Returns dim ker(QP: ran P -> ran Q) - dim ker(PQ: ran Q -> ran P) with
    dimensions counted over C in the representation.  Valued in Z rather
    than K_0(A); for group algebras this forgets the module structure.
    ``P`` and ``Q`` are block diagonals given as lists of their diagonal
    blocks, paired by position (an assembled matrix is a list of one); a
    block diagonal gives the same integer as its assembled matrix.

    For orthogonal projections (QP)* = PQ, so QP and PQ have the same rank
    and the index (rank P - rank QP) - (rank Q - rank PQ) is rank P -
    rank Q: only those two ranks are computed.
    """
    p_blocks = _diagonal_blocks(P)
    q_blocks = _diagonal_blocks(Q)
    if [b.shape for b in p_blocks] != [b.shape for b in q_blocks]:
        raise StructureError("projections act on different modules")
    return _projection_rank(p_blocks) - _projection_rank(q_blocks)
