"""One nilpotent variable: the truncated polynomial algebra C[theta]/(theta^dim).

Elements are length-``dim`` coefficient tuples multiplied by truncated
convolution.  An eigenstate is its kernel vector k, the coefficient of |n>
being k_n theta^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraParams, LadderRep, _freeze, _l2_norm, build_rep, classify, ladder_table
from .errors import DomainError

__all__ = [
    "GrassmannElement",
    "GrassmannState",
    "bg_grassmann_state",
    "check_bg_grassmann_eigen",
    "complex_z_bg_residual",
]


@dataclass(frozen=True)
class GrassmannElement:
    dim: int
    comps: tuple[complex, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        comps = tuple(complex(c) for c in self.comps)
        if len(comps) != self.dim:
            raise ValueError(f"expected {self.dim} components, got {len(comps)}")
        object.__setattr__(self, "comps", comps)

    @classmethod
    def zero(cls, dim: int) -> "GrassmannElement":
        return cls(dim, (0j,) * dim)

    @classmethod
    def one(cls, dim: int) -> "GrassmannElement":
        return cls.from_scalar(dim, 1.0)

    @classmethod
    def from_scalar(cls, dim: int, value) -> "GrassmannElement":
        comps = [0j] * dim
        comps[0] = complex(value)
        return cls(dim, tuple(comps))

    @classmethod
    def theta(cls, dim: int) -> "GrassmannElement":
        """The nilpotent generator (identically zero when dim = 1)."""
        comps = [0j] * dim
        if dim > 1:
            comps[1] = 1.0 + 0j
        return cls(dim, tuple(comps))

    def _require_same_dim(self, other: "GrassmannElement"):
        if self.dim != other.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        self._require_same_dim(other)
        return GrassmannElement(self.dim, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        self._require_same_dim(other)
        return GrassmannElement(self.dim, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement(self.dim, tuple(-a for a in self.comps))

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            self._require_same_dim(other)
            out = [0j] * self.dim
            for i, a in enumerate(self.comps):
                if a == 0:
                    continue
                for j in range(self.dim - i):
                    out[i + j] += a * other.comps[j]
            return GrassmannElement(self.dim, tuple(out))
        return GrassmannElement(self.dim, tuple(complex(other) * a for a in self.comps))

    def __rmul__(self, scalar) -> "GrassmannElement":
        return GrassmannElement(self.dim, tuple(complex(scalar) * a for a in self.comps))

    def __pow__(self, k: int) -> "GrassmannElement":
        if k < 0:
            raise ValueError("negative powers are not defined in a nilpotent algebra")
        out = GrassmannElement.one(self.dim)
        for _ in range(k):
            out = out * self
        return out

    def max_abs(self) -> float:
        return max(abs(a) for a in self.comps)


@dataclass(frozen=True, eq=False)
class GrassmannState:
    """Eigenstate whose coefficient of |n> is kernel[n] theta^n; ``coeffs`` on first access."""

    params: AlgebraParams
    kernel: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.kernel)

    @cached_property
    def coeffs(self) -> tuple[GrassmannElement, ...]:
        return tuple(GrassmannElement(self.dim, c) for c in np.diag(self.kernel))


def bg_grassmann_state(params: AlgebraParams, dim: int | None = None) -> GrassmannState:
    """Lowering-operator eigenstate with the nilpotent variable as eigenvalue:
    the coefficient of |n> is theta^n e^{-i F(n) phi} / sqrt(F(n)!).  The
    nilpotency order is d on a finite ladder (another ``dim`` is a
    ValueError); infinite-ladder parameters need ``dim``, the level-truncated
    algebra, else a `DomainError`.  A phase past the double range is a
    `DomainError`."""
    rep_dim = classify(params)
    if rep_dim.is_finite:
        if dim is None:
            dim = rep_dim.d
        elif dim != rep_dim.d:
            raise ValueError(f"finite ladder fixes the nilpotency order to d = {rep_dim.d}")
    elif dim is None:
        raise DomainError(
            "infinite-ladder parameters need an explicit nilpotency order `dim` "
            "(the level-truncated algebra); for complex eigenvalues use bg_state"
        )
    dim = int(dim)
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    return GrassmannState(params, _freeze(ladder_table(params, dim).kernel(params.phi)))


def check_bg_grassmann_eigen(state: GrassmannState, rep: LadderRep) -> float:
    """Largest component deviation between lowering acting on the state and
    theta times each coefficient: row n is band[n] k_{n+1} - k_n, in its
    theta^{n+1} component.  A ``rep`` of another window or params is a
    ValueError."""
    if rep.dim_window != state.dim:
        raise ValueError(f"window {rep.dim_window} does not match the state dim {state.dim}")
    if rep.params != state.params:
        raise ValueError("state and representation parameters differ")
    band, k = rep.band, state.kernel  # band[n] k[n+1] rounded as Python's (numpy's may fuse)
    re = band.real * k.real[1:] - band.imag * k.imag[1:] - k.real[:-1]
    im = band.real * k.imag[1:] + band.imag * k.real[1:] - k.imag[:-1]
    return float(np.max(np.hypot(re, im), initial=0.0))  # hypot: bit-equal to abs(complex)


def complex_z_bg_residual(params: AlgebraParams, z) -> float:
    """Relative residual of the eigenvalue equation with theta replaced by a
    complex z on a finite ladder (else a `DomainError`): nonzero for every
    z != 0, as z c_{d-1} has nothing to cancel against at the top level."""
    dim = classify(params)
    if not dim.is_finite:
        raise DomainError("the nonexistence diagnostic applies to finite ladders")
    z = complex(z)
    band = build_rep(params).band
    c = z ** np.arange(dim.d) * ladder_table(params, dim.d).kernel(params.phi)
    resid = np.append(band * c[1:], 0.0) - z * c  # lowering @ c - z c
    return _l2_norm(resid) / _l2_norm(c)
