"""One nilpotent variable: the truncated polynomial algebra C[theta]/(theta^dim).

theta^dim = 0 is the only structure the finite-ladder eigenstate
construction needs, so elements are plain length-``dim`` coefficient
tuples (g_0 + g_1 theta + ... + g_{dim-1} theta^{dim-1}) multiplied by
truncated convolution: every product term of combined degree >= dim is
annihilated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, LadderRep, build_rep, classify, ladder_table
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


@dataclass(frozen=True)
class GrassmannState:
    """Eigenstate whose coefficient of |n> is an algebra element (degree n)."""

    params: AlgebraParams
    dim: int
    coeffs: tuple[GrassmannElement, ...]


def bg_grassmann_state(params: AlgebraParams, dim: int | None = None) -> GrassmannState:
    """Lowering-operator eigenstate with the nilpotent variable as eigenvalue.

    The coefficient of |n> is theta^n e^{-i F(n) phi} / sqrt(F(n)!).  On a
    finite ladder the nilpotency order is d; for infinite-ladder
    parameters an explicit ``dim`` selects the level-truncated algebra
    (the untruncated infinite case has ordinary complex eigenstates
    instead, see `coherent.bg_state`).
    """
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
    kernel = ladder_table(params, dim).kernel(params.phi)
    return GrassmannState(params, dim, tuple(GrassmannElement(dim, c) for c in np.diag(kernel)))


def check_bg_grassmann_eigen(state: GrassmannState, rep: LadderRep) -> float:
    """Largest component deviation between (lowering acting on the state)
    and (left multiplication of every coefficient by theta).

    The lowering band scales the algebra-valued coefficients; exact
    eigenstates come out at rounding level (<= 1e-12).
    """
    if rep.dim_window != state.dim:
        raise ValueError(f"window {rep.dim_window} does not match the state dim {state.dim}")
    if rep.params != state.params:
        raise ValueError("state and representation parameters differ")
    comps = np.array([c.comps for c in state.coeffs])  # row n: the coefficient of |n>
    band, above = rep.band[:, None], comps[1:]
    lowered = np.zeros_like(comps)  # lowering kills the top level
    # band[n] * comps[n+1], rounded as Python's complex product (numpy's may fuse)
    lowered.real[:-1] = band.real * above.real - band.imag * above.imag
    lowered.imag[:-1] = band.real * above.imag + band.imag * above.real
    theta_times = np.zeros_like(comps)
    theta_times[:, 1:] = comps[:, :-1]  # theta raises every degree by one; theta^dim = 0
    dev = lowered - theta_times
    return float(np.max(np.hypot(dev.real, dev.imag)))  # hypot: bit-equal to abs(complex)


def complex_z_bg_residual(params: AlgebraParams, z) -> float:
    """Relative residual of the would-be eigenvalue equation when the
    nilpotent variable is replaced by an ordinary complex number on a
    finite ladder.

    Nonzero for every z != 0: the candidate vector z^n e^{-i F(n) phi} /
    sqrt(F(n)!) fails at the top level, where z * c_{d-1} has nothing to
    cancel against.  This makes the nonexistence of complex-eigenvalue
    states in finite dimension a measurable statement.
    """
    dim = classify(params)
    if not dim.is_finite:
        raise DomainError("the nonexistence diagnostic applies to finite ladders")
    z = complex(z)
    band = build_rep(params).band
    c = z ** np.arange(dim.d) * ladder_table(params, dim.d).kernel(params.phi)
    resid = np.append(band * c[1:], 0.0) - z * c  # lowering @ c - z c
    return float(np.linalg.norm(resid) / np.linalg.norm(c))
