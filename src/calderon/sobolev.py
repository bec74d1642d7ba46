"""Discrete Sobolev modules on the grid torus and half-cylinder.

The double of the model cylinder [0,1] x S^1 is a torus with u-circumference
2 and y-circumference 2*pi; all fractional norms are defined spectrally
there via Fourier multipliers.  Half-domain functions live on u in [0,1]
and reach the torus through the odd reflection extension.

Norm convention: the L^2 norm is the mean square over grid points, so a
single unit-amplitude Fourier mode has ||f||_0 = 1 and ||f||_s =
(1+|xi|^2)^(s/2).  Fiber values are (rows x cols) complex blocks measured
in the Frobenius norm of the representation, which is the convention under
which the discrete Parseval identity is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError

U_CIRCUMFERENCE = 2.0  # the doubled normal axis
Y_CIRCUMFERENCE = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Grid on the 2-D torus (half=False) or the half-domain u in [0,1]."""

    n_u: int
    n_y: int
    half: bool = False

    def __post_init__(self):
        if self.n_u < 8 or self.n_u % 2:
            raise StructureError("n_u must be even and >= 8")
        if self.n_y < 8 or self.n_y % 2:
            raise StructureError("n_y must be even and >= 8")

    @property
    def du(self):
        return U_CIRCUMFERENCE / self.n_u

    @property
    def dy(self):
        return Y_CIRCUMFERENCE / self.n_y

    @property
    def n_u_points(self):
        """Number of stored u-samples (torus: n_u; half: n_u/2 + 1)."""
        return self.n_u // 2 + 1 if self.half else self.n_u

    def u_nodes(self):
        return self.du * np.arange(self.n_u_points)

    def y_nodes(self):
        return self.dy * np.arange(self.n_y)

    def xi_u(self):
        """u-frequencies on the circumference-2 torus: pi * k."""
        return np.pi * np.fft.fftfreq(self.n_u, d=1.0 / self.n_u)

    def eta(self):
        """Integer y-frequencies."""
        return np.fft.fftfreq(self.n_y, d=1.0 / self.n_y)

    def as_torus(self):
        return GridSpec(self.n_u, self.n_y, half=False)

    def as_half(self):
        return GridSpec(self.n_u, self.n_y, half=True)


class GridFunction:
    """Sampled section: values of shape (n_u_points, n_y, rows, cols)."""

    __slots__ = ("spec", "values")

    def __init__(self, spec, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 4 or values.shape[:2] != (
            spec.n_u_points,
            spec.n_y,
        ):
            raise StructureError(
                "values shape %r does not match grid" % (values.shape,)
            )
        self.spec = spec
        self.values = values

    def __sub__(self, other):
        return GridFunction(self.spec, self.values - other.values)

    def l2_norm(self):
        """Mean-square norm over grid points, Frobenius in the fiber."""
        return float(
            np.sqrt(np.mean(np.sum(np.abs(self.values) ** 2, axis=(2, 3))))
        )

    @classmethod
    def single_mode(cls, spec, k_u, k_y=0):
        """Unit-amplitude Fourier mode exp(i(pi k_u u + k_y y))."""
        if spec.half:
            raise StructureError("single modes are torus functions")
        u = spec.u_nodes()[:, None]
        y = spec.y_nodes()[None, :]
        phase = np.exp(1j * (np.pi * k_u * u + k_y * y))
        return cls(spec, phase[:, :, None, None])

    @classmethod
    def random_band_limited(cls, spec, rng, band_u=None, band_y=None):
        """Random scalar function with modes restricted to |k_u|<=band_u,
        |k_y|<=band_y."""
        if spec.half:
            raise StructureError("generate on the torus, then restrict")
        if band_u is None:
            band_u = spec.n_u // 4
        if band_y is None:
            band_y = spec.n_y // 4
        coeffs = np.zeros((spec.n_u, spec.n_y, 1, 1), dtype=complex)
        ku = np.fft.fftfreq(spec.n_u, d=1.0 / spec.n_u)
        ky = np.fft.fftfreq(spec.n_y, d=1.0 / spec.n_y)
        mask = (np.abs(ku)[:, None] <= band_u) & (np.abs(ky)[None, :] <= band_y)
        shape = (int(mask.sum()), 1, 1)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[mask] = vals
        values = np.fft.ifft2(coeffs, axes=(0, 1)) * np.sqrt(
            spec.n_u * spec.n_y
        )
        return cls(spec, values)


def fft(f):
    """Forward FFT over the torus axes; returns the coefficient array."""
    if f.spec.half:
        raise StructureError("FFT requires the full torus")
    return np.fft.fft2(f.values, axes=(0, 1))


def ifft(f_spec, coeffs):
    return GridFunction(f_spec, np.fft.ifft2(coeffs, axes=(0, 1)))


class FourierMultiplier:
    """Diagonal operator in the discrete Fourier basis.

    ``symbol(xi_u, eta)`` receives broadcastable frequency arrays and
    returns the scalar multiplier on the (n_u, n_y) frequency grid.
    """

    def __init__(self, symbol):
        self.symbol = symbol

    def apply(self, f):
        coeffs = fft(f)
        sym = self.symbol(
            f.spec.xi_u()[:, None], f.spec.eta()[None, :]
        )
        sym = np.asarray(sym, dtype=complex)
        return ifft(f.spec, coeffs * sym[:, :, None, None])


def _spectral_norm(coeffs, xi2, s):
    """sqrt(sum (1 + xi2)^s |coeffs|^2) over the grid points, with the
    squared frequencies ``xi2`` over the leading axes of ``coeffs``, divided
    by the number of grid points."""
    weights = ((1.0 + xi2) ** s).reshape(
        xi2.shape + (1,) * (coeffs.ndim - xi2.ndim)
    )
    return float(np.sqrt(np.sum(weights * np.abs(coeffs) ** 2))) / xi2.size


def sobolev_norm(f, s):
    """Spectral Sobolev norm of order ``s`` on the torus."""
    if f.spec.half:
        raise StructureError("sobolev_norm is defined on the torus")
    xi2 = f.spec.xi_u()[:, None] ** 2 + f.spec.eta()[None, :] ** 2
    return _spectral_norm(fft(f), xi2, s)


def boundary_norm(profile, s):
    """Sobolev norm of a y-profile on the boundary circle (same convention)."""
    n_y = profile.shape[0]
    eta = np.fft.fftfreq(n_y, d=1.0 / n_y)
    return _spectral_norm(np.fft.fft(profile, axis=0), eta**2, s)


def lambda_pm(f, sign):
    """The operator -/+ d/du + sqrt(1 + Delta_tangential) as a multiplier.

    ``sign`` +1 gives the + variant (symbol -i xi_u + sqrt(1+eta^2)); the
    two variants are mutually adjoint in discrete L^2 and their product is
    the multiplier of 1 + Delta.
    """
    if sign not in (+1, -1):
        raise StructureError("sign must be +1 or -1")

    def symbol(xi_u, eta):
        return -sign * 1j * xi_u + np.sqrt(1.0 + eta**2)

    return FourierMultiplier(symbol).apply(f)


def embed_adjoint(h):
    """Adjoint of the H^1 -> H^0 embedding: divide by (1 + |xi|^2)."""

    def symbol(xi_u, eta):
        return 1.0 / (1.0 + xi_u**2 + eta**2)

    return FourierMultiplier(symbol).apply(h)


def extend_reflect(f):
    """Odd reflection of a half-domain function onto the torus."""
    if not f.spec.half:
        raise StructureError("extend_reflect expects a half-domain function")
    # node n_u - j of the torus is the mirror of node j, 0 < j < n_u / 2
    half = f.spec.n_u // 2
    values = np.concatenate([f.values, -f.values[half - 1 : 0 : -1]])
    return GridFunction(f.spec.as_torus(), values)


def restrict(g):
    """Restriction of a torus function to the half-domain u in [0,1]."""
    if g.spec.half:
        raise StructureError("already a half-domain function")
    half = g.spec.n_u // 2
    return GridFunction(g.spec.as_half(), g.values[: half + 1].copy())


def extend_adjoint(g):
    """Discrete adjoint of the odd reflection extension.

    Folds to (g(u) - g(2-u)) at interior nodes and keeps the boundary
    samples, which pair with themselves on the torus; with these endpoint
    weights the quadrature identity <extend(f), g> = <f, fold(g)> is exact.
    """
    if g.spec.half:
        raise StructureError("extend_adjoint expects a torus function")
    half = g.spec.n_u // 2
    values = g.values[: half + 1].copy()
    values[1:half] -= g.values[:half:-1]
    return GridFunction(g.spec.as_half(), values)


def torus_inner(f, g):
    """Plain discrete pairing (unit node weights), on the torus or the
    half-domain: with :func:`extend_adjoint` it gives the exact adjoint
    identity."""
    return complex(np.sum(f.values.conj() * g.values))


def trace(f, t, s):
    """Restrict to the slice u = t and return the trace-norm ratio.

    The slice must be a grid node: interpolation is refused.  The ratio is
    ||gamma_t f||_{s-1/2} / ||f||_s; it degenerates as s approaches 1/2.
    """
    spec = f.spec
    pos = t / spec.du
    j = int(round(pos))
    if abs(pos - j) > 1e-12 or not (0 <= j < spec.n_u_points):
        raise StructureError("slice t=%r is not a grid node" % (t,))
    denom = sobolev_norm(f if not spec.half else extend_reflect(f), s)
    num = boundary_norm(f.values[j], s - 0.5)
    return num / denom if denom > 0 else 0.0

