"""Exact-rational exponent vectors, partial-sum orders, and classical group data.

Everything in this module is exact: entries are `fractions.Fraction` and no
tolerance is involved anywhere.  Floats are rejected at construction time
because the partial-sum orders and the transfer algorithm hinge on exact
ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[int, str, Fraction]


class DomainError(ValueError):
    """An input violates a documented precondition."""


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce to an exact rational, rejecting floats outright."""
    if isinstance(x, bool) or isinstance(x, float):
        raise DomainError(f"exact rational required, got {x!r}")
    return Fraction(x)


class ExponentVector:
    """A finite vector of exact rationals carrying the prefix-sum orders."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[RationalLike]):
        ents = tuple(as_fraction(e) for e in entries)
        if not ents:
            raise DomainError("ExponentVector needs dimension >= 1")
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):
        raise AttributeError("ExponentVector is immutable")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"ExponentVector({list(map(str, self.entries))})"

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        if len(other) != len(self):
            raise DomainError("dimension mismatch")
        return ExponentVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "ExponentVector") -> "ExponentVector":
        if len(other) != len(self):
            raise DomainError("dimension mismatch")
        return ExponentVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "ExponentVector":
        return ExponentVector(-a for a in self.entries)

    def shift(self, c: RationalLike) -> "ExponentVector":
        """Add the constant vector (c, ..., c)."""
        c = as_fraction(c)
        return ExponentVector(a + c for a in self.entries)

    def prefix_sums(self) -> tuple[Fraction, ...]:
        out = []
        acc = Fraction(0)
        for a in self.entries:
            acc += a
            out.append(acc)
        return tuple(out)

    def floats(self) -> tuple[float, ...]:
        return tuple(float(a) for a in self.entries)


def strictly_dominated(x: ExponentVector) -> bool:
    """x < 0 in the prefix-sum order: every prefix sum is strictly negative."""
    return all(s < 0 for s in x.prefix_sums())


def weakly_dominated(x: ExponentVector) -> bool:
    """x <= 0 in the prefix-sum order: every prefix sum is nonpositive."""
    return all(s <= 0 for s in x.prefix_sums())


def constant_vector(c: RationalLike, dim: int) -> ExponentVector:
    if dim < 1:
        raise DomainError("dim must be >= 1")
    c = as_fraction(c)
    return ExponentVector([c] * dim)


@dataclass(frozen=True)
class Orthogonal:
    """O(p, q) with the convention p <= q throughout."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise DomainError("p, q must be nonnegative")
        if self.p > self.q:
            raise DomainError(f"O(p,q) requires p <= q, got p={self.p}, q={self.q}")

    @property
    def rank(self) -> int:
        return self.p

    @property
    def parity_class(self) -> int:
        return (self.p + self.q) % 2

    def __str__(self) -> str:
        return f"O({self.p},{self.q})"


@dataclass(frozen=True)
class Symplectic:
    """Sp(2n, R)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("Sp(2n) requires n >= 1")

    @property
    def rank(self) -> int:
        return self.n

    def __str__(self) -> str:
        return f"Sp({2 * self.n})"


GroupDescriptor = Union[Orthogonal, Symplectic]


def rho(g: GroupDescriptor) -> ExponentVector:
    """Half sum of the positive restricted roots, as an exact vector.

    O(p,q): ((p+q-2)/2, (p+q-4)/2, ..., (q-p)/2), length p.
    Sp(2n): (n, n-1, ..., 1).
    """
    if isinstance(g, Orthogonal):
        if g.p < 1:
            raise DomainError("rho(O(p,q)) needs p >= 1")
        return ExponentVector(
            Fraction(g.p + g.q - 2 * i, 2) for i in range(1, g.p + 1)
        )
    return ExponentVector(range(g.n, 0, -1))


def rho_shift(
    lam: ExponentVector, g: GroupDescriptor, c: RationalLike, k: int
) -> ExponentVector:
    """lam - c*1 + k*rho(g), the vector every range test compares with 0.

    lam must have the length of rank(g): p for O(p,q), n for Sp(2n).
    """
    if len(lam) != g.rank:
        name = "p" if isinstance(g, Orthogonal) else "n"
        raise DomainError(f"lambda must have length {name}={g.rank}")
    c = as_fraction(c)
    return ExponentVector(x - c + k * r for x, r in zip(lam, rho(g)))


@dataclass(frozen=True)
class CoverInfo:
    """Double-cover metadata of one member of an orthogonal-symplectic pair."""

    splits: bool
    genuine_required: bool
    product_with_center: bool


def cover_info(
    pair: tuple[GroupDescriptor, GroupDescriptor], side: str
) -> CoverInfo:
    """Splitting behaviour of MO / MSp in the dual pair (O(p,q), Sp(2n)).

    `side` is "O" or "Sp".  MSp splits (as Sp x {1,eps}) exactly when p+q is
    even; otherwise it is the metaplectic group and representations must be
    genuine.  MO is the product O(p,q) x {1,eps} exactly when n is even.
    """
    orth = [g for g in pair if isinstance(g, Orthogonal)]
    symp = [g for g in pair if isinstance(g, Symplectic)]
    if len(orth) != 1 or len(symp) != 1:
        raise DomainError("pair must consist of one O(p,q) and one Sp(2n)")
    o, s = orth[0], symp[0]
    if side == "Sp":
        even = (o.p + o.q) % 2 == 0
        return CoverInfo(
            splits=even, genuine_required=not even, product_with_center=even
        )
    if side == "O":
        even = s.n % 2 == 0
        return CoverInfo(
            splits=even, genuine_required=False, product_with_center=even
        )
    raise DomainError(f"side must be 'O' or 'Sp', got {side!r}")


@dataclass(frozen=True)
class Partition:
    """Non-increasing sequence of positive integers (a Young diagram)."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(x) for x in parts)
        if any(x <= 0 for x in ps):
            raise DomainError("partition parts must be positive")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise DomainError("partition parts must be non-increasing")
        object.__setattr__(self, "parts", ps)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def transpose(d: Partition) -> Partition:
    """Conjugate (transposed) Young diagram."""
    if not d.parts:
        return Partition(())
    width = d.parts[0]
    cols = [0] * width
    for part in d.parts:
        for i in range(part):
            cols[i] += 1
    return Partition(cols)


class InfChar:
    """Infinitesimal-character data: a multiset of rationals up to signed permutation.

    Equality compares the canonical form, i.e. absolute values sorted
    non-increasingly.  The type-D even-sign-change refinement for p = q is
    deliberately not modelled.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[RationalLike] = ()):
        object.__setattr__(
            self, "values", tuple(as_fraction(v) for v in values)
        )

    def __setattr__(self, name, value):
        raise AttributeError("InfChar is immutable")

    @property
    def canonical_form(self) -> tuple[Fraction, ...]:
        return tuple(sorted((abs(v) for v in self.values), reverse=True))

    def oplus(self, values: Iterable[RationalLike]) -> "InfChar":
        """Concatenation of multisets."""
        return InfChar(tuple(self.values) + tuple(as_fraction(v) for v in values))

    def __eq__(self, other) -> bool:
        return isinstance(other, InfChar) and self.canonical_form == other.canonical_form

    def __hash__(self) -> int:
        return hash(self.canonical_form)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"InfChar({list(map(str, self.values))})"
