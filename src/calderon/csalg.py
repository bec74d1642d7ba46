"""Finite-dimensional C*-algebras in a fixed faithful matrix representation.

Two families are supported: full matrix algebras M_n(C) and group algebras
C[G] of finite groups given by a Cayley table, represented faithfully by the
left regular representation.  Every element is stored as its representing
complex matrix, so *, norm, spectrum and positivity are all concrete
numerical linear algebra.
"""

from __future__ import annotations

import os
import threading
from itertools import permutations
from math import factorial

import numpy as np

from .errors import SpectrumError, StructureError

_MAX_MATRIX_N = 8
_MAX_GROUP_ORDER = 24

#: relative distance from the group-algebra span accepted by ``element``
SPAN_TOL = 1e-10
#: relative Hermitian defect and negative spectrum accepted by is_positive
POSITIVITY_TOL = 1e-10

#: members x rows x cols^2 of a stack below which :func:`map_members` runs
#: it inline: on a 2-core Haswell box with one BLAS thread, a (48, 17, 17)
#: complex SVD stack (0.24 M) took 0.94 ms inline and 0.98 ms split in
#: two, and a (44, 49, 49) one (5.2 M) 6.5 ms inline and 3.3 ms split
STACK_SPLIT_WORK = 1_000_000

# the worker threads of map_members: created on its first split, once per
# process (the lock makes that check-then-create safe across threads)
_POOL = None
_POOL_LOCK = threading.Lock()


def cyclic_table(n):
    """Cayley table of Z/n (entry [i][j] = i+j mod n, identity = 0)."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(n):
    """Cayley table of the symmetric group S_n (identity at index 0)."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    # composition (p*q)(x) = p(q(x))
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
    ]
    return table


class CStarAlgebra:
    """A matrix algebra M_n(C) or a finite group algebra C[G].

    The algebra carries a fixed faithful *-representation: the identity
    representation for M_n(C), the left regular representation for C[G].
    ``rep_dim`` is the dimension of that representation.
    """

    def __init__(self, kind, n=None, table=None):
        if kind == "matrix":
            if n is None or n < 1 or n > _MAX_MATRIX_N:
                raise StructureError(
                    "matrix algebra needs 1 <= n <= %d" % _MAX_MATRIX_N
                )
            self.kind = "matrix"
            self.n = int(n)
            self.rep_dim = int(n)
            self._group_basis = None
        elif kind == "group":
            if table is None:
                raise StructureError("group algebra needs a Cayley table")
            table = [list(row) for row in table]
            order = len(table)
            _check_group_order(order)
            _check_cayley_table(table)
            self.kind = "group"
            self.table = table
            self.order = order
            self.rep_dim = order
            self._group_basis = self._regular_representation()
        else:
            raise StructureError("unknown algebra kind %r" % (kind,))

    # -- constructors --------------------------------------------------

    @classmethod
    def matrix(cls, n):
        return cls("matrix", n=n)

    @classmethod
    def group(cls, table):
        return cls("group", table=table)

    @classmethod
    def cyclic(cls, n):
        _check_group_order(n)
        return cls.group(cyclic_table(n))

    @classmethod
    def symmetric(cls, n):
        if n < 0:
            raise StructureError("symmetric group needs n >= 0")
        # checked before the table is built: |S_n| = n! (S_0 has one
        # element), and past the cap n! is too, so min keeps it cheap
        _check_group_order(factorial(min(n, _MAX_GROUP_ORDER)))
        return cls.group(symmetric_table(n))

    @classmethod
    def from_descriptor(cls, desc):
        """Build from a serializable descriptor dict.

        Accepted forms: ``{"kind": "matrix", "n": 2}``,
        ``{"kind": "group", "table": [[...]]}``,
        ``{"kind": "group", "name": "cyclic", "n": 4}``,
        ``{"kind": "group", "name": "symmetric", "n": 3}``.
        """
        kind = desc.get("kind")
        if kind == "matrix":
            return cls.matrix(desc["n"])
        if kind == "group":
            if "table" in desc:
                return cls.group(desc["table"])
            name = desc.get("name")
            if name == "cyclic":
                return cls.cyclic(desc["n"])
            if name == "symmetric":
                return cls.symmetric(desc["n"])
            raise StructureError("unknown group descriptor %r" % (desc,))
        raise StructureError("unknown algebra descriptor %r" % (desc,))

    def descriptor(self):
        if self.kind == "matrix":
            return {"kind": "matrix", "n": self.n}
        return {"kind": "group", "table": self.table}

    # -- representation ------------------------------------------------

    def _regular_representation(self):
        """Left regular representation matrices L_g, g in group order."""
        order = self.order
        mats = np.zeros((order, order, order))
        for g in range(order):
            for h in range(order):
                mats[g, self.table[g][h], h] = 1.0
        return mats

    def project_matrix(self, mat):
        """Orthogonal projection of a rep_dim x rep_dim matrix, or of each
        matrix of a stack (..., rep_dim, rep_dim), onto the algebra.

        For M_n(C) this is the identity.  For a group algebra the regular
        representation images L_g are Hilbert-Schmidt orthogonal, so the
        projection is a sum of normalized HS inner products.
        """
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim < 2 or mat.shape[-2:] != (self.rep_dim, self.rep_dim):
            raise StructureError("matrix has wrong shape for this algebra")
        if self.kind == "matrix":
            return mat
        coeff = np.einsum("gij,...ij->...g", self._group_basis, mat) / self.order
        return np.einsum("...g,gij->...ij", coeff, self._group_basis)

    def membership_defect(self, mat):
        """Operator-norm distance from ``mat`` to the algebra span: a float,
        or an array of distances for a stack (..., rep_dim, rep_dim).

        On M_n the projection is the identity, so the distance is zero and
        no SVD is taken.  For finite input that is the SVD's value bit for
        bit; a NaN or infinite entry, on which the SVD raises
        ``LinAlgError``, also reads zero here (``BoundaryProjector``'s
        ``diagnostics`` raises that error from its projection defects
        before it asks for membership)."""
        mat = np.asarray(mat, dtype=complex)
        proj = self.project_matrix(mat)  # also checks the shape
        if self.kind == "matrix":
            defect = np.zeros(mat.shape[:-2])
        else:
            defect = opnorm(mat - proj)
        return float(defect) if defect.ndim == 0 else defect

    def element(self, mat):
        """Wrap a representing matrix as an algebra element.

        For group algebras the matrix must lie in the span of the regular
        representation (within SPAN_TOL); it is re-projected to kill rounding.
        """
        mat = np.asarray(mat, dtype=complex)
        if self.kind == "group":
            proj = self.project_matrix(mat)
            if opnorm(mat - proj) > SPAN_TOL * max(1.0, opnorm(mat)):
                raise StructureError(
                    "matrix does not lie in the group-algebra span"
                )
            mat = proj
        return AlgebraElement(self, mat)

    def scalar(self, z):
        return AlgebraElement(self, complex(z) * np.eye(self.rep_dim))

    def random_element(self, rng, size=()):
        """Random element with independent complex Gaussian coordinates.

        ``size`` (a shape) draws a stack: ``mat`` has shape size + (m, m),
        and the draw consumes the stream exactly as that many one-element
        calls in C order, each taking the real then the imaginary parts of
        its coordinates.
        """
        size = tuple(size)
        coords = (self.order,) if self.kind == "group" else (self.rep_dim,) * 2
        g = rng.standard_normal(size + (2,) + coords)
        re, im = np.moveaxis(g, len(size), 0)
        mat = re + 1j * im
        if self.kind == "group":
            mat = np.einsum("...g,gij->...ij", mat, self._group_basis)
        return AlgebraElement(self, mat)

    def __eq__(self, other):
        if not isinstance(other, CStarAlgebra):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "matrix":
            return self.n == other.n
        return self.table == other.table

    def __hash__(self):
        if self.kind == "matrix":
            return hash(("matrix", self.n))
        return hash(("group", tuple(map(tuple, self.table))))

    def __repr__(self):
        if self.kind == "matrix":
            return "CStarAlgebra(M_%d(C))" % self.n
        return "CStarAlgebra(C[G], |G|=%d)" % self.order


def _check_group_order(order):
    if order < 1 or order > _MAX_GROUP_ORDER:
        raise StructureError(
            "group order must be between 1 and %d" % _MAX_GROUP_ORDER
        )


def _check_cayley_table(table):
    order = len(table)
    rng_set = set(range(order))
    for row in table:
        if len(row) != order or set(row) != rng_set:
            raise StructureError("Cayley table rows must be permutations")
    for col in zip(*table):
        if set(col) != rng_set:
            raise StructureError("Cayley table columns must be permutations")
    # identity at index 0
    if any(table[0][j] != j or table[j][0] != j for j in range(order)):
        raise StructureError("Cayley table must have identity at index 0")
    # associativity
    for a in range(order):
        for b in range(order):
            for c in range(order):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise StructureError("Cayley table is not associative")


class AlgebraElement:
    """An algebra element stored as its representing matrix.

    ``mat`` may carry leading axes: a stack (..., m, m) of elements, on
    which the arithmetic and :func:`star` act matrix by matrix.
    """

    __slots__ = ("algebra", "mat")

    def __init__(self, algebra, mat):
        self.algebra = algebra
        self.mat = np.asarray(mat, dtype=complex)

    def __add__(self, other):
        self._compat(other)
        return AlgebraElement(self.algebra, self.mat + other.mat)

    def __sub__(self, other):
        self._compat(other)
        return AlgebraElement(self.algebra, self.mat - other.mat)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._compat(other)
            return AlgebraElement(self.algebra, self.mat @ other.mat)
        return AlgebraElement(self.algebra, self.mat * complex(other))

    def __rmul__(self, scalar):
        return AlgebraElement(self.algebra, complex(scalar) * self.mat)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.mat)

    def _compat(self, other):
        if self.algebra != other.algebra:
            raise StructureError("algebra mismatch")

    def __repr__(self):
        return "AlgebraElement(%r,\n%r)" % (self.algebra, self.mat)


def dagger(mat):
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(mat, -1, -2).conj()


def star(a):
    """Involution: conjugate transpose in the representation."""
    return AlgebraElement(a.algebra, dagger(a.mat))


def singular_values(a):
    """The singular values of a matrix, or of each matrix of a stack, in
    descending order: the package's one values-only SVD, which looks
    ``svd`` up on ``np.linalg`` at call time."""
    return np.linalg.svd(a, compute_uv=False)


def opnorm(a):
    """Operator 2-norm of a matrix, or of each matrix of a stack: its
    largest singular value, the C*-norm in the faithful representation.
    NumPy's matrix 2-norm takes the same ``svd`` and maximum."""
    return singular_values(a).max(axis=-1, initial=0.0)


def shape_groups(arrays):
    """The arrays grouped by shape, in order of first appearance: a list of
    (indices, stack) pairs, ``stack`` the arrays at ``indices`` stacked on
    a new leading axis.  A per-channel pass runs once per group on its
    stack; numpy's matrix products, solves and decompositions act on a
    stack member by member, so each member is bit-identical to its
    one-matrix call."""
    groups = {}
    for i, a in enumerate(arrays):
        groups.setdefault(np.shape(a), []).append(i)
    return [
        (idx, np.stack([arrays[i] for i in idx])) for idx in groups.values()
    ]


def map_groups(func, arrays, *more):
    """``func`` on the stack of each shape group of ``arrays`` (and on the
    stacks of the same members of each list in ``more``), split back into
    one result per array, in their order; a ``func`` that returns a tuple
    of stacks gives one tuple per array."""
    out = [None] * len(arrays)
    for idx, stack in shape_groups(arrays):
        res = func(stack, *(np.stack([m[i] for i in idx]) for m in more))
        for i, r in zip(idx, zip(*res) if isinstance(res, tuple) else res):
            out[i] = r
    return out


def worker_count():
    """The CPUs this process may run on: its affinity set, or
    ``os.cpu_count()`` where the platform reports none (``taskset``
    restricts the set, and so the threads of :func:`map_members`)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pool():
    """The per-process thread pool of :func:`map_members`, of
    ``worker_count() - 1`` threads (the caller runs one chunk itself).
    ``concurrent.futures`` is imported here, not with the package, as its
    import alone costs milliseconds of start-up."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(max(worker_count() - 1, 1))
        return _POOL


def map_members(func, stack):
    """``func(stack)`` for a ``func`` that acts on a stack (k, ...) member
    by member, as numpy's matrix decompositions and solves do: the leading
    axis is cut into one contiguous chunk per CPU (:func:`worker_count`),
    the caller runs the first chunk and the pool the others, and the
    results are concatenated in order, so each member is bit-identical to
    ``func(stack)``.  A stack of one member, or one whose members x rows x
    cols^2 is below STACK_SPLIT_WORK, or a process with one CPU, runs
    ``func(stack)`` inline.  Every chunk finishes before an error is
    raised; it is the first failing chunk's, in chunk order.  ``func``
    must not itself call map_members, whose pool threads would then wait
    on each other."""
    chunks = min(worker_count(), len(stack))
    work = len(stack) * stack.shape[-2] * stack.shape[-1] ** 2
    if chunks < 2 or work < STACK_SPLIT_WORK:
        return func(stack)
    from concurrent.futures import wait

    head, *rest = np.array_split(stack, chunks)
    pool = _pool()
    futures = [pool.submit(func, part) for part in rest]
    try:
        first = func(head)
    finally:
        wait(futures)
    return np.concatenate([first] + [f.result() for f in futures])


def adjoint_defect(a):
    """||a - a*||_2 of a matrix, or of each matrix of a stack."""
    return opnorm(a - dagger(a))


def herm(a):
    """Hermitian part (a + a*)/2 of a matrix, or of each matrix of a stack."""
    return 0.5 * (a + dagger(a))


def norm(a):
    """C*-norm: largest singular value of the representing matrix."""
    return float(opnorm(a.mat))


def spectrum(a):
    """Eigenvalues of the representing matrix, with multiplicity.

    The representation is faithful, so for group-algebra elements this is
    the C*-spectrum.
    """
    try:
        return np.linalg.eigvals(a.mat)
    except np.linalg.LinAlgError as exc:
        try:
            cond = float(np.linalg.cond(a.mat))
        except Exception:
            cond = None
        raise SpectrumError(
            "eigenvalue solver failed: %s" % exc, cond_estimate=cond
        ) from exc


def is_positive(a):
    """True iff ``a`` is Hermitian with spectrum >= 0, to POSITIVITY_TOL."""
    if adjoint_defect(a.mat) > POSITIVITY_TOL * max(1.0, opnorm(a.mat)):
        return False
    eigs = np.linalg.eigvalsh(herm(a.mat))
    return bool(eigs.min() >= -POSITIVITY_TOL)
