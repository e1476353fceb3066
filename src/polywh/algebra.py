"""Ladder-operator algebras with a polynomial commutator.

A lowering and a raising operator with raising @ lowering = F(N) and
[lowering, raising] = G(N), G(n) = F(n+1) - F(n), for the structure
function F(n) = n (1 + kappa_1 (n-1)) ... (1 + kappa_r (n-1)).  The exact
layer (`AlgebraParams`, `classify`, F, G, F(n)!) is `Fraction`s read off
one integer ladder polynomial and runs on the standard library alone; the
float layer imports numpy inside each function that uses it, so a caller
of the exact layer never loads numpy.  The records are plain frozen
classes, not dataclasses, so it never loads `dataclasses` (and `inspect`
with it) either.
"""

from __future__ import annotations

import math
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


class _Frozen:
    """A record whose __init__ writes its ``_fields``, in order, into its
    __dict__ once: assigning or deleting an attribute later is an
    AttributeError, as on a frozen dataclass.  No __slots__, so copy and
    pickle restore the __dict__ directly, past __setattr__."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        # a dataclass's __init__ returns the object None, not the string that
        # this module's postponed annotations make of it; keep its signature
        if "__init__" in vars(cls):
            cls.__init__.__annotations__["return"] = None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _Value(_Frozen):
    """A frozen record equal to one of its own class by its fields, in one
    comparison of the two field dicts, and hashed as the tuple of its
    fields (each dict is filled in field order)."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))


class AlgebraParams(_Value):
    """The r rational deformation parameters and the representation phase.

    ``kappas`` are ints, 'p/q' strings or Fractions, never floats (a
    TypeError); only kappa_1 may be negative, and then -1/kappa_1 must be a
    positive integer, else a `DomainError`.  ``phi`` is any finite real, not
    range-reduced: F(n) is not an integer in general."""

    _fields = ("kappas", "phi")

    def __init__(self, kappas: tuple[Fraction, ...], phi: float = 0.0) -> None:
        if isinstance(kappas, (str, int, Fraction)):
            raise TypeError("kappas must be a sequence of rationals, e.g. ['-1/3']")
        kappas = tuple(_as_fraction(k) for k in kappas)
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
        phi = float(phi)
        if not math.isfinite(phi):
            raise DomainError(f"phi must be finite, got phi = {phi!r}")
        self.__dict__.update(kappas=kappas, phi=phi)

    @property
    def r(self) -> int:
        return len(self.kappas)

    def with_phi(self, phi: float) -> "AlgebraParams":
        return AlgebraParams(self.kappas, phi)


class RepDimension(_Value):
    """Ladder classification: ``d`` levels, or ``None`` for an infinite tower."""

    _fields = ("d",)

    def __init__(self, d: int | None) -> None:
        self.__dict__["d"] = d

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
    polynomial over its scale, reduced once.  A negative n is a ValueError."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(*_scaled_structure(params, n))


def commutator_gap(params: AlgebraParams, n: int) -> Fraction:
    """G(n) = F(n+1) - F(n), the commutator eigenvalue at level n, exactly; a
    negative n is a ValueError."""
    return structure_function(params, n + 1) - structure_function(params, n)


def generalized_factorial(params: AlgebraParams, n: int) -> Fraction:
    """F(n)! = F(1) F(2) ... F(n), F(0)! = 1, exactly.  On a finite ladder
    n <= d - 1, else a `DomainError`: the product would pick up F(d) = 0."""
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


def _l2_norm(v: np.ndarray) -> float:
    """The l2 norm of a float64 or complex128 vector: one numpy sum of the
    squares of its float64 parts (real and imaginary interleaved), with no
    BLAS call, so the same bits whatever the BLAS thread count; the dot of
    ``np.linalg.norm`` is split across OpenBLAS threads from 10,001
    entries on.  A sum past the double range is inf, with no warning."""
    import numpy as np

    parts = np.ascontiguousarray(v).view(np.float64)
    return math.sqrt(np.einsum("i,i->", parts, parts))


class LadderTable(_Frozen):
    """F(n) and G(n) for n = 0, ..., size-1, as read-only float64 arrays."""

    _fields = ("f", "g")

    def __init__(self, f: np.ndarray, g: np.ndarray) -> None:
        self.__dict__.update(f=f, g=g)

    def kernel(self, phi: float) -> np.ndarray:
        """e^{-i F(n) phi} / sqrt(F(n)!), the lowering-eigenstate coefficients at
        z = 1; a phase past the double range is a `DomainError` (`_phases`)."""
        import numpy as np

        roots = np.sqrt(self.f)
        roots[:1] = 1.0  # the running quotient starts from 1/sqrt(F(0)!) = 1
        return np.divide.accumulate(roots) * _phases(self.f, phi)


def ladder_table(params: AlgebraParams, size: int) -> LadderTable:
    """F and G in bulk: the rows n < size of `_table_rows`, read-only."""
    f, g = _table_rows(params, size)
    return LadderTable(_freeze(f), _freeze(g))


def _table_rows(params: AlgebraParams, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows n < size of `_ladder_rows`, writable.  A negative size, or
    one past d on a finite ladder, is a ValueError."""
    dim = classify(params)
    if size < 0 or (dim.is_finite and size > dim.d):
        raise ValueError(f"no ladder table of size {size} for the {dim} ladder")
    return _ladder_rows(params, 0, size)


def _ladder_rows(params: AlgebraParams, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """F(n) and G(n) for lo <= n < hi in float64, each entry from its own n
    alone, so bit-equal to the rows of the table from 0: the integer ladder
    polynomial F(n) Q (`_scaled_structure`, exact in float64 below 2**53)
    over one division by Q, float(structure_function) there and a few ulp
    past it.  More rows than numpy can allocate, or a kappa whose integers or
    values F(n) Q pass the double range, is a `DomainError`."""
    import numpy as np

    try:
        n_minus_1 = np.arange(lo - 1.0, hi)
        if len(n_minus_1) != hi - lo + 1:  # numpy wraps a length past 2**63 to 0 rows
            raise ValueError
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


def _phases(x, phi: float, first: int = 0, name: str = "phi"):
    """e^{-i x phi} for float64 rows x of the levels first, first + 1, ...:
    bit for bit np.exp(1j * (x * -phi)).  Where x phi passes the double
    range it is a `DomainError` naming phi (as ``name``) and the level."""
    import numpy as np

    # rounding is monotone, so some x phi overflows exactly where max |x| phi
    # does, and a |phi| <= 1 keeps every finite x finite
    if x.size and not abs(phi) <= 1.0 and not math.isfinite(phi * float(np.abs(x).max())):
        with np.errstate(over="ignore", invalid="ignore"):
            n = first + int(np.argmin(np.isfinite(x * phi)))
        raise DomainError(f"{name} = {phi!r}: the phase at level n = {n} passes the double range")
    angles = 1j * (x * -phi)
    return np.exp(angles, out=angles)


class LadderRep(_Frozen):
    """The ladder operators on the number basis |0>, ..., |m-1>, stored as
    the one band of lowering, ``band[n] = <n|lowering|n+1> =
    sqrt(F(n+1)) e^{i G(n) phi}`` (length m-1, read-only).  ``lowering``,
    ``raising`` (its exact conjugate transpose) and ``number`` are dense
    m x m views built on first access.  With ``truncation_order`` s, every
    transition touching level s or above is removed."""

    _fields = ("params", "dim_window", "band", "truncation_order")

    def __init__(
        self,
        params: AlgebraParams,
        dim_window: int,
        band: np.ndarray,
        truncation_order: int | None = None,
    ) -> None:
        self.__dict__.update(
            params=params, dim_window=dim_window, band=band, truncation_order=truncation_order
        )

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
    """The ladder representation on an m-dimensional basis window: m = d on
    a finite ladder (another ``window`` is a ValueError), where F(d) = 0
    closes the ladder exactly; an infinite ladder needs a ``window`` >= 1,
    else a ValueError.  A phase past the double range is a `DomainError`."""
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
    band = np.sqrt(table.f[1:]) * _phases(-table.g[:-1], params.phi)
    return LadderRep(params, m, _freeze(band))


def build_truncated_rep(params: AlgebraParams, window: int, s: int) -> LadderRep:
    """`build_rep` on ``window`` levels with every transition at or above
    level s removed: the commutator gains -F(s)|s-1><s-1|.  Needs an infinite
    ladder (else a `DomainError`) and 1 <= s < window (else a ValueError)."""
    if classify(params).is_finite:
        raise DomainError("level truncation applies to infinite-dimensional parameters only")
    if not 1 <= s < window:
        raise ValueError(f"need 1 <= s < window, got s = {s} with window = {window}")
    band = build_rep(params, window).band.copy()
    band[s - 1 :] = 0.0  # kills the sqrt(F(n)) |n-1><n| transitions with n >= s
    return LadderRep(params, window, _freeze(band), truncation_order=s)


class IdentityDeviations(_Value):
    """Largest entrywise deviations of raising @ lowering from F~(N), of
    [lowering, raising] from G~(N) and, on a finite ladder, of lowering^d
    (and raising^d) from 0; ``nilpotency`` is ``None`` otherwise."""

    _fields = ("product", "commutator", "nilpotency")

    def __init__(self, product: float, commutator: float, nilpotency: float | None) -> None:
        self.__dict__.update(product=product, commutator=commutator, nilpotency=nilpotency)


def identity_deviations(rep: LadderRep) -> IdentityDeviations:
    """The deviations of the three defining identities, from the band in
    O(m): raising lowering and lowering raising are diagonal, |band[n-1]|^2
    and |band[n]|^2, compared with F~(n) = F(n) below the cut (the truncation
    order, else m) and 0 from it on, and with G~(n) = F~(n+1) - F~(n).
    Nilpotency is exactly 0.0 on a finite ladder, None otherwise."""
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
    """The kappas as 1/ell, ell a positive integer, kappa = 0 dropped (a
    factor 1, the ell -> infinity limit); any other kappa is a `DomainError`."""
    ells = []
    for kappa in params.kappas:
        if kappa == 0:
            continue
        if kappa < 0 or kappa.numerator != 1:
            raise DomainError(f"kappa = {kappa} is not of the reciprocal-integer form 1/ell")
        ells.append(int(kappa.denominator))
    return tuple(ells)
