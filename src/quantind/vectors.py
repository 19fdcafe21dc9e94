"""Exact-rational exponent vectors, partial-sum orders, and classical group data.

Everything in this module is exact: entries are `fractions.Fraction` and no
tolerance is involved anywhere.  Floats are rejected at construction time
because the partial-sum orders and the transfer algorithm hinge on exact
ties.  The shift lambda - c*1 + k*rho(g) is computed once, by `_shifted`,
as ints over one common denominator D.  The range tests (`_in_range`,
behind the five predicates of `induction`) compare its prefix sums with 0
on those ints and build no Fraction; `rho_shift` builds its entries from
them as Fraction(v, D), for the transfer bounds.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

RationalLike = int | str | Fraction


class DomainError(ValueError):
    """An input violates a documented precondition."""


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce to an exact rational, rejecting floats outright."""
    if isinstance(x, bool) or isinstance(x, float):
        raise DomainError(f"exact rational required, got {x!r}")
    return x if type(x) is Fraction else Fraction(x)


def _size(x) -> int:
    """An exact integer size: an int or an integral Fraction, never a bool."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        x = x.numerator
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise DomainError(f"size must be an integer, got {x!r}")
    return operator.index(x)


def _normal(value: float, what: str) -> float:
    """value where it is a positive normal double, else OverflowError naming
    the end it misses: never inf, nan, 0.0 or a subnormal with lost digits."""
    if not value <= sys.float_info.max:
        raise OverflowError(f"{what} is above the double range")
    if not value >= sys.float_info.min:
        raise OverflowError(f"{what} is below the normal double range")
    return value


def _normal_exp(log_value: float, what: str) -> float:
    """_normal(e^log_value): an exp past the double range is refused by name too."""
    big = log_value > math.log(sys.float_info.max)  # e^log(max) is finite
    return _normal(math.inf if big else math.exp(log_value), what)


def _over(values, D: int) -> tuple[Fraction, ...]:
    """Each value over D as a Fraction, built once."""
    return tuple(Fraction(v, D) for v in values)


def _record(name: str, fields: str, defaults=()):
    """A namedtuple base whose `_make` and `_replace` run the subclass's checks."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class ExponentVector:
    """A finite vector of exact rationals carrying the prefix-sum orders."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[RationalLike]):
        ents = tuple(as_fraction(e) for e in entries)
        if not ents:
            raise DomainError("ExponentVector needs dimension >= 1")
        object.__setattr__(self, "entries", ents)

    @classmethod
    def _from_ints(cls, D: int, ints: list[int]) -> "ExponentVector":
        """Entries Fraction(v, D), v in ints (at least one), each built once."""
        self = object.__new__(cls)
        object.__setattr__(self, "entries", _over(ints, D))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ExponentVector is immutable")

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
        return tuple(itertools.accumulate(self.entries))

    def scaled(self) -> tuple[int, list[int]]:
        """(D, D * entries): D the lcm of the entry denominators, so the
        scaled entries are ints and entry i is exactly Fraction(ints[i], D)."""
        D = math.lcm(*(x.denominator for x in self.entries))
        return D, [x.numerator * (D // x.denominator) for x in self.entries]

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


class Orthogonal(_record("Orthogonal", "p q")):
    """O(p, q) with the convention p <= q throughout."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        p, q = _size(p), _size(q)
        if p < 0 or q < 0:
            raise DomainError("p, q must be nonnegative")
        if p > q:
            raise DomainError(f"O(p,q) requires p <= q, got p={p}, q={q}")
        return tuple.__new__(cls, (p, q))

    @property
    def rank(self) -> int:
        return self.p

    def __str__(self) -> str:
        return f"O({self.p},{self.q})"


class Symplectic(_record("Symplectic", "n")):
    """Sp(2n, R)."""

    __slots__ = ()

    def __new__(cls, n: int):
        n = _size(n)
        if n < 1:
            raise DomainError("Sp(2n) requires n >= 1")
        return tuple.__new__(cls, (n,))

    @property
    def rank(self) -> int:
        return self.n

    def __str__(self) -> str:
        return f"Sp({2 * self.n})"


GroupDescriptor = Orthogonal | Symplectic


def _two_rho(g: GroupDescriptor) -> range:
    """2*rho(g) on ints: (p+q-2, p+q-4, ..., q-p) for O(p,q), (2n, ..., 2) for Sp(2n)."""
    if isinstance(g, Orthogonal):
        if g.p < 1:
            raise DomainError("rho(O(p,q)) needs p >= 1")
        return range(g.p + g.q - 2, g.q - g.p - 2, -2)
    return range(2 * g.n, 0, -2)


def rho(g: GroupDescriptor) -> ExponentVector:
    """Half sum of the positive restricted roots, as an exact vector.

    O(p,q): ((p+q-2)/2, (p+q-4)/2, ..., (q-p)/2), length p.
    Sp(2n): (n, n-1, ..., 1).
    """
    return ExponentVector(Fraction(r, 2) for r in _two_rho(g))


def _shifted(
    lam: ExponentVector, g: GroupDescriptor, c: RationalLike, k: int
) -> tuple[int, list[int]]:
    """(D, D*(lam - c*1 + k*rho(g))) on ints, D the lcm of 2 and every
    denominator: the one place the shift is computed.  Errors come in this
    order: lam's length, c, rho(g), then the entries."""
    if len(lam) != g.rank:
        name = "p" if isinstance(g, Orthogonal) else "n"
        raise DomainError(f"lambda must have length {name}={g.rank}")
    c = as_fraction(c)
    two_rho = _two_rho(g)
    if not isinstance(lam, ExponentVector):
        # a list or tuple: rational entries (bools too) as they are; any
        # other goes through x - c + k*rho_i and fails there or by its value
        lam = ExponentVector(
            Fraction(x) if isinstance(x, numbers.Rational) else x - c + k * Fraction(r, 2)
            for x, r in zip(lam, two_rho)
        )
    D0, xs = lam.scaled()
    D = math.lcm(D0, 2, c.denominator)
    m, h, cD = D // D0, k * (D // 2), c.numerator * (D // c.denominator)
    return D, [x * m + h * r - cD for x, r in zip(xs, two_rho)]


def rho_shift(lam: ExponentVector, g: GroupDescriptor, c: RationalLike, k: int) -> ExponentVector:
    """lam - c*1 + k*rho(g) as an exact vector, for lam of length rank(g): p
    for O(p,q), n for Sp(2n).  Each entry is built once, as Fraction(v, D)
    from `_shifted`'s ints."""
    return ExponentVector._from_ints(*_shifted(lam, g, c, k))


def _in_range(
    lam: ExponentVector, g: GroupDescriptor, c: RationalLike, k: int, strict: bool
) -> bool:
    """lam - c*1 + k*rho(g) < 0 (strict) or <= 0 in the prefix-sum order: the
    verdict and errors of strictly_ or weakly_dominated(rho_shift(...)), but
    decided on `_shifted`'s ints, D*(lam - c*1 + k*rho(g)), with no Fraction."""
    sums = itertools.accumulate(_shifted(lam, g, c, k)[1])
    return all(s < 0 for s in sums) if strict else all(s <= 0 for s in sums)


class CoverInfo(_record("CoverInfo", "splits genuine_required product_with_center")):
    """Double-cover metadata of one member of an orthogonal-symplectic pair."""

    __slots__ = ()


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


class Partition(_record("Partition", "parts")):
    """Non-increasing sequence of positive integers (a Young diagram)."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        ps = tuple(map(_size, parts))
        if any(x <= 0 for x in ps):
            raise DomainError("partition parts must be positive")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise DomainError("partition parts must be non-increasing")
        return tuple.__new__(cls, (ps,))

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
        return InfChar((*self.values, *values))

    def __eq__(self, other) -> bool:
        return isinstance(other, InfChar) and self.canonical_form == other.canonical_form

    def __hash__(self) -> int:
        return hash(self.canonical_form)

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"InfChar({list(map(str, self.values))})"


def _fmt_vec(entries) -> str:
    return "(" + ",".join(str(Fraction(e)) for e in entries) + ")"
