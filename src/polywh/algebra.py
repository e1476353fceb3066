"""Ladder-operator algebras with a polynomial commutator.

The family handled here is spanned by a lowering operator, a raising
operator and a number operator N satisfying

    raising @ lowering = diag(F(0), F(1), ...),
    [lowering, raising] = G(N),          G(n) = F(n+1) - F(n),

with the structure function the degree-(r+1) polynomial

    F(n) = n * (1 + kappa_1 (n-1)) * ... * (1 + kappa_r (n-1)).

kappa_i = 0 everywhere is the harmonic oscillator (F(n) = n).  The sign
pattern of the kappas decides whether the ladder terminates: all
kappa_i >= 0 gives an infinite tower of levels, while kappa_1 < 0 with
-1/kappa_1 a positive integer (and the remaining kappas nonnegative)
gives a ladder on exactly d = 1 - 1/kappa_1 levels that closes by itself
because F(d) = 0.  Any other sign pattern is rejected at construction.

Scalars that feed decisions (F, G, generalized factorials, classification)
are exact ``Fraction`` values read off one integer ladder polynomial,
F(n) Q = n prod_i (q_i + p_i (n-1)) with kappa_i = p_i/q_i and Q = prod_i q_i:
F(n) is that integer over Q and F(n)! the running product over Q^n, each
reduced once.  Every float consumer reads F and G from the same polynomial
in float64, as one `ladder_table` or as the rows of a range
(`_ladder_rows`), bit-equal to the table's.  A representation stores the
one complex band the lowering operator has; its dense matrices (raising
the exact conjugate transpose of lowering) are views built on first access.
`identity_deviations` checks the three defining identities (product,
commutator, nilpotency) from the band in O(m), with no matrix product;
on a finite ladder the band's length d-1 makes nilpotency exactly 0.
All values are immutable.

The exact layer (`AlgebraParams`, `classify`, F, G and F(n)!) runs on the
standard library alone; the float layer imports numpy inside each function
that uses it, so a caller of the exact layer never loads numpy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError

__all__ = [
    "AlgebraParams",
    "RepDimension",
    "LadderRep",
    "LadderTable",
    "structure_function",
    "commutator_gap",
    "classify",
    "generalized_factorial",
    "ladder_table",
    "build_rep",
    "build_truncated_rep",
    "IdentityDeviations",
    "identity_deviations",
    "reciprocal_ells",
]


def _as_fraction(value) -> Fraction:
    # floats are refused: the finite/infinite classification is an exact
    # divisibility test and must not depend on binary rounding
    if isinstance(value, float):
        raise TypeError(
            f"kappa = {value!r}: pass an exact rational (int, Fraction or 'p/q' string), not a float"
        )
    return Fraction(value)


@dataclass(frozen=True)
class AlgebraParams:
    """The r rational deformation parameters plus the representation phase.

    ``kappas`` may be given as ints, 'p/q' strings or Fractions; ``phi``
    is an arbitrary real (no range reduction is performed, since F(n) is
    not an integer in general and no universal period exists).
    """

    kappas: tuple[Fraction, ...]
    phi: float = 0.0

    def __post_init__(self):
        if isinstance(self.kappas, (str, int, Fraction)):
            raise TypeError("kappas must be a sequence of rationals, e.g. ['-1/3']")
        kappas = tuple(_as_fraction(k) for k in self.kappas)
        if not kappas:
            raise DomainError("at least one kappa is required (r >= 1)")
        for k in kappas[1:]:
            if k < 0:
                raise DomainError(
                    "only the first kappa may be negative (finite-ladder case); "
                    f"got kappa = {k} in a later slot"
                )
        if kappas[0] < 0:
            levels = -1 / kappas[0]
            if levels.denominator != 1:
                raise DomainError(
                    f"kappa_1 = {kappas[0]} does not close the ladder on an integer number "
                    f"of levels: -1/kappa_1 = {levels} is not a positive integer"
                )
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise DomainError(f"phi must be finite, got phi = {phi!r}")
        object.__setattr__(self, "kappas", kappas)
        object.__setattr__(self, "phi", phi)

    @property
    def r(self) -> int:
        return len(self.kappas)

    def with_phi(self, phi: float) -> "AlgebraParams":
        return dataclasses.replace(self, phi=float(phi))


@dataclass(frozen=True)
class RepDimension:
    """Ladder classification: ``d`` levels, or ``None`` for an infinite tower."""

    d: int | None

    @property
    def is_finite(self) -> bool:
        return self.d is not None

    def __str__(self) -> str:
        return "infinite" if self.d is None else f"finite(d={self.d})"


def classify(params: AlgebraParams) -> RepDimension:
    """Infinite when every kappa is >= 0, else exactly d = 1 - 1/kappa_1 levels."""
    k1 = params.kappas[0]
    if k1 >= 0:
        return RepDimension(None)
    return RepDimension(int(1 - 1 / k1))


def _scaled_structure(params: AlgebraParams, n: int) -> tuple[int, int]:
    """(F(n) Q, Q) with Q = prod_i q_i: the integer ladder polynomial
    n prod_i (q_i + p_i (n-1)), kappa_i = p_i/q_i, and its scale."""
    value, scale = n, 1
    for kappa in params.kappas:
        q = kappa.denominator
        value *= q + kappa.numerator * (n - 1)
        scale *= q
    return value, scale


def structure_function(params: AlgebraParams, n: int) -> Fraction:
    """F(n) = n * prod_i (1 + kappa_i (n - 1)), exactly: the integer ladder
    polynomial over its scale, reduced once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(*_scaled_structure(params, n))


def commutator_gap(params: AlgebraParams, n: int) -> Fraction:
    """G(n) = F(n+1) - F(n), the commutator eigenvalue at level n."""
    return structure_function(params, n + 1) - structure_function(params, n)


def generalized_factorial(params: AlgebraParams, n: int) -> Fraction:
    """F(n)! = F(1) F(2) ... F(n), with F(0)! = 1: the running integer
    product of F(k) Q over Q^n, reduced once.

    On a finite ladder the product is only defined up to n = d - 1; past
    that it would pick up the zero (then negative) values of F.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    dim = classify(params)
    if dim.is_finite and n > dim.d - 1:
        raise DomainError(
            f"generalized factorial needs n <= d-1 = {dim.d - 1} on a finite ladder; got n = {n}"
        )
    for product, power in _scaled_factorials(params, n + 1):
        pass
    return Fraction(product, power)


def _scaled_factorials(params: AlgebraParams, count: int):
    """(F(n)! Q^n, Q^n) for n < count, Q = prod_i q_i: the running product
    of the integer ladder polynomial (`_scaled_structure`) and of its scale."""
    product = power = 1
    for n in range(count):
        if n:
            value, scale = _scaled_structure(params, n)
            product, power = product * value, power * scale
        yield product, power


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class LadderTable:
    """F(n) and G(n) for n = 0, ..., size-1, as read-only float64 arrays."""

    f: np.ndarray
    g: np.ndarray

    def kernel(self, phi: float) -> np.ndarray:
        """e^{-i F(n) phi} / sqrt(F(n)!): the lowering-eigenstate coefficients at z = 1."""
        import numpy as np

        roots = np.sqrt(self.f)
        roots[:1] = 1.0  # the running quotient starts from 1/sqrt(F(0)!) = 1
        return np.divide.accumulate(roots) * np.exp(-1j * self.f * phi)


def ladder_table(params: AlgebraParams, size: int) -> LadderTable:
    """F and G in bulk: the rows n < size of `_table_rows`, read-only."""
    f, g = _table_rows(params, size)
    return LadderTable(_freeze(f), _freeze(g))


def _table_rows(params: AlgebraParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows n < size of `_ladder_rows`, writable.  Stops at d if finite."""
    dim = classify(params)
    if size < 0 or (dim.is_finite and size > dim.d):
        raise ValueError(f"no ladder table of size {size} for the {dim} ladder")
    return _ladder_rows(params, 0, size)


def _ladder_rows(params: AlgebraParams, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """F(n) and G(n) for lo <= n < hi in float64, from the integer ladder
    polynomial F(n) Q (`_scaled_structure`), whose float64 products are
    exact below 2**53: one division by Q then gives
    float(structure_function) and float(commutator_gap), and a few ulp past
    that.  Each entry is computed at its own n alone, so the rows of any
    range are bit-equal to those of the table from 0.  The factors of all
    the kappas share one buffer, which then holds G, divided in place.
    More rows than numpy can allocate, or a kappa whose numerator or
    denominator (or their product Q, or a row's F(n) Q) passes the double
    range, is a `DomainError`."""
    import numpy as np

    try:
        n_minus_1 = np.arange(lo - 1.0, hi)
    except (ValueError, MemoryError):  # numpy: "Maximum allowed size exceeded"
        raise DomainError(
            f"{hi - lo} ladder rows (from n = {lo}) are more than numpy can allocate"
        ) from None
    scaled = n_minus_1 + 1.0
    factor = np.empty_like(n_minus_1)
    try:
        with np.errstate(over="raise"):
            for kappa in params.kappas:
                np.multiply(kappa.numerator, n_minus_1, out=factor)
                factor += kappa.denominator
                scaled *= factor
        scale = float(math.prod(kappa.denominator for kappa in params.kappas))
    except (OverflowError, FloatingPointError):
        raise DomainError(
            f"kappa = {','.join(map(str, params.kappas))}: the ladder polynomial's "
            f"integer coefficients or its values F(n) Q, n < {hi}, pass the double range, "
            "so F has no float64 rows"
        ) from None
    if lo == 0:
        scaled[0] = 0.0  # F(0) = 0; a negative factor at n = 0 would leave -0.0
    g = np.subtract(scaled[1:], scaled[:-1], out=factor[:-1])  # np.diff, in the factor buffer
    g /= scale
    scaled /= scale
    return scaled[:-1], g


@dataclass(frozen=True, eq=False)
class LadderRep:
    """The ladder operators on the number basis |0>, ..., |m-1>.

    Lowering is nonzero only on its first superdiagonal, so the
    representation stores just that band, ``band[n] = <n|lowering|n+1> =
    sqrt(F(n+1)) e^{i G(n) phi}`` (length m-1, read-only); consumers apply it
    in O(m).  ``lowering``, ``raising`` (its exact entrywise conjugate
    transpose) and ``number`` = diag(0, ..., m-1) are dense m x m views
    built on first access.  When ``truncation_order`` is set to s, every
    transition touching level s or above has been removed.
    """

    params: AlgebraParams
    dim_window: int
    band: np.ndarray
    truncation_order: int | None = None

    @cached_property
    def lowering(self) -> np.ndarray:
        import numpy as np

        return _freeze(np.diag(self.band, 1))

    @cached_property
    def raising(self) -> np.ndarray:
        import numpy as np

        return _freeze(np.diag(self.band.conj(), -1))

    @cached_property
    def number(self) -> np.ndarray:
        import numpy as np

        return _freeze(np.diag(np.arange(self.dim_window, dtype=float)))


def build_rep(params: AlgebraParams, window: int | None = None) -> LadderRep:
    """The ladder representation on an m-dimensional basis window.

    Finite case: m is forced to d, and since F(d) = 0 the commutation
    identity holds exactly on the whole matrix (the top of the ladder
    annihilates with no special-casing).  Infinite case: m is a required
    user cutoff, and the last diagonal entry of lowering @ raising carries
    the usual truncation artifact.
    """
    dim = classify(params)
    if dim.is_finite:
        if window is None:
            window = dim.d
        elif window != dim.d:
            raise ValueError(
                f"finite representation has fixed size d = {dim.d}, got window = {window}"
            )
    elif window is None:
        raise ValueError("infinite representation needs an explicit basis cutoff `window`")
    m = int(window)
    if m < 1:
        raise ValueError("window must be a positive integer")
    import numpy as np

    table = ladder_table(params, m)
    band = np.sqrt(table.f[1:]) * np.exp(1j * table.g[:-1] * params.phi)
    return LadderRep(params, m, _freeze(band))


def build_truncated_rep(params: AlgebraParams, window: int, s: int) -> LadderRep:
    """Remove every ladder transition at or above level s.

    The operators stay on the same window-sized basis, so the commutator
    picks up the rank-one correction -F(s)|s-1><s-1| on top of the
    level-restricted gap function.
    """
    if classify(params).is_finite:
        raise DomainError("level truncation applies to infinite-dimensional parameters only")
    if not 1 <= s < window:
        raise ValueError(f"need 1 <= s < window, got s = {s} with window = {window}")
    band = build_rep(params, window).band.copy()
    band[s - 1 :] = 0.0  # kills the sqrt(F(n)) |n-1><n| transitions with n >= s
    return LadderRep(params, window, _freeze(band), truncation_order=s)


@dataclass(frozen=True)
class IdentityDeviations:
    """Largest entrywise deviations of raising @ lowering from F~(N), of
    [lowering, raising] from G~(N) and, on a finite ladder, of lowering^d
    (and raising^d) from 0; ``nilpotency`` is ``None`` otherwise."""

    product: float
    commutator: float
    nilpotency: float | None


def identity_deviations(rep: LadderRep) -> IdentityDeviations:
    """The three defining identities, read off the band in O(m).

    Both products of a one-band operator are diagonal:
    <n|raising lowering|n> = |band[n-1]|^2 and <n|lowering raising|n> =
    |band[n]|^2, zero past either end of the band.  They are compared with
    F~(n) = F(n) below the cut c (the truncation order, else the window m)
    and 0 from c on, and with G~(n) = F~(n+1) - F~(n).  That one sequence
    gives the corner term of a cut window: G~(c-1) = -F(c-1), exact on a
    finite ladder (F(d) = 0), a cutoff artifact otherwise.  Nilpotency is
    decided exactly: 0.0 when F(d) = 0 in `Fraction`.
    """
    import numpy as np

    m = rep.dim_window
    cut = rep.truncation_order or m
    expected = np.zeros(m + 1)  # F~(0..m)
    expected[:cut] = ladder_table(rep.params, cut).f
    diag = np.zeros(m + 1)  # <n|raising lowering|n> for n = 0..m
    diag[1:m] = rep.band.real**2 + rep.band.imag**2
    # lowering^d maps |n> to a multiple of |n-d|, which is no level of a band
    # of length d-1: the power is exactly 0.  F(d) = 0 closes the ladder
    # there, as AlgebraParams checks when it takes kappa_1 = -1/(d-1).
    nilpotency = 0.0 if classify(rep.params).is_finite else None
    return IdentityDeviations(
        product=float(np.max(np.abs(diag[:m] - expected[:m]))),
        commutator=float(np.max(np.abs(np.diff(diag) - np.diff(expected)))),
        nilpotency=nilpotency,
    )


def reciprocal_ells(params: AlgebraParams) -> tuple[int, ...]:
    """Read the kappas as 1/ell with ell a positive integer.

    kappa = 0 entries are dropped: they contribute a factor 1 to the
    structure function and correspond to the ell -> infinity limit of
    that slot.  Anything else (negative or non-reciprocal) is rejected.
    """
    ells = []
    for kappa in params.kappas:
        if kappa == 0:
            continue
        if kappa < 0 or kappa.numerator != 1:
            raise DomainError(f"kappa = {kappa} is not of the reciprocal-integer form 1/ell")
        ells.append(int(kappa.denominator))
    return tuple(ells)
