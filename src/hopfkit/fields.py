"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Scalars are plain Python values.  Over the rationals a value is an ``int`` or
a ``fractions.Fraction`` (a parsed integral value is an ``int``); over GF(p) a
value is its canonical ``int`` representative in ``[0, p)``.  A ``Field``
object mediates every arithmetic operation so that the linear-map layer never
needs to know which kind of scalar it is holding.  There is one ``Field``
object per characteristic, so ``==`` on fields is ``is``.

Over Q, equality, not type, is the contract: sums and products of
``Fraction`` values may be integral ``Fraction`` values, which compare (and
print) equal to the matching ``int``.  Keeping the entries that structure maps
mostly hold, 0 and 1, as ``int`` makes the kernel's products and its
``== one`` tests machine-integer operations instead of ``Fraction`` ones.
"""
from __future__ import annotations

import re
from fractions import Fraction
from operator import index

from .errors import InputError, _echo


class FieldError(InputError):
    pass


# primality is tested by trial division, about sqrt(p) steps: milliseconds
# below this bound, hours for a 24-digit p
MAX_CHAR = 2 ** 31


# a scalar token as ``dumps`` writes it: an integer, or over Q a fraction a/b,
# each integer within Python's default 4300-digit cap on int <-> str; a header
# integer (dimension, map size, characteristic) is the same digits, unsigned
_SCALAR = re.compile(r"(-?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")
_NATURAL = re.compile(r"[0-9]{1,4300}")


def parse_natural(token: str):
    """A header integer: 1 to 4300 ASCII digits as an ``int``, else ``None``."""
    return int(token) if _NATURAL.fullmatch(token) else None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_FIELDS = {}  # char -> its one Field


class Field:
    """The rationals (``char == 0``) or GF(p) (``char == p`` prime).

    Values of the field are *not* wrapped.  A rational scalar is an ``int``
    when it is integral and otherwise a ``Fraction`` (always gcd-reduced with
    positive denominator, which ``Fraction`` guarantees); ``coerce``,
    ``parse``, ``inv``, ``zero`` and ``one`` give the ``int`` form, while
    arithmetic on ``Fraction`` inputs may return an integral ``Fraction``.
    Compare scalars by value, never by type.  GF(p) scalars are ints already
    reduced mod p.

    ``Field(p)`` is made once per characteristic and returned again after
    that, through copy, deepcopy and pickle too, so ``==`` is ``is``.
    """

    __slots__ = ("char",)

    def __new__(cls, char: int = 0):
        try:
            char = index(char)
        except TypeError:
            raise FieldError(f"characteristic {_echo(str(char))} is not an integer") from None
        got = _FIELDS.get(char)
        if got is None:
            if char >= MAX_CHAR or (char != 0 and not _is_prime(char)):
                raise FieldError(
                    "field characteristic must be 0 or a prime below 2^31, "
                    f"got {_echo(str(char))}")
            got = object.__new__(cls)
            got.char = char
            got = _FIELDS.setdefault(char, got)
        return got

    def __reduce__(self):
        return (Field, (self.char,))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def rationals() -> "Field":
        return Field(0)

    @staticmethod
    def prime(p: int) -> "Field":
        if p == 0:
            raise FieldError("prime field needs p > 0; use Field.rationals() for char 0")
        return Field(p)

    # -- identity ---------------------------------------------------------

    def __repr__(self):
        return "Q" if self.char == 0 else f"GF({self.char})"

    @property
    def is_prime_field(self) -> bool:
        return self.char != 0

    # -- elements ---------------------------------------------------------

    zero = 0
    one = 1

    def coerce(self, x):
        """Turn an int or Fraction into a canonical scalar; anything else, a
        string such as ``'3'`` among them, raises :class:`FieldError` (a file
        token goes through :meth:`parse`)."""
        if self.char:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise FieldError(f"cannot coerce non-integer {x} into {self}")
                x = x.numerator
            if not isinstance(x, int):
                raise FieldError(f"cannot coerce {x!r} into {self}")
            return x % self.char
        if isinstance(x, Fraction):
            return _normal(x)
        if isinstance(x, int):
            return int(x)
        raise FieldError(f"cannot coerce {x!r} into {self}")

    # -- arithmetic ---------------------------------------------------------
    # Hot paths fetch these bound methods once; keep them tiny.

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if self.char:
            if a % self.char == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.char - 2, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _normal(Fraction(1, a))

    # -- text ---------------------------------------------------------------

    def parse(self, token: str):
        """Parse one scalar token as written in structure files."""
        if token == "0":  # most tokens of a file: no regex for them
            return 0
        m = _SCALAR.fullmatch(token)
        if self.char:
            if m is None or m[2] is not None:
                raise FieldError(f"bad GF({self.char}) scalar {_echo(token)}")
            return int(m[1]) % self.char
        den = int(m[2] or 1) if m else 0
        if den == 0:
            raise FieldError(f"bad rational scalar {_echo(token)}")
        num = int(m[1])
        return num if den == 1 else _normal(Fraction(num, den))

    def format(self, a) -> str:
        return str(a)

    # -- serialization token ------------------------------------------------

    def token(self) -> str:
        return "Q" if self.char == 0 else f"GF:{self.char}"

    @staticmethod
    def from_token(tok: str) -> "Field":
        tok = tok.strip()
        if tok == "Q":
            return Field.rationals()
        p = parse_natural(tok[3:]) if tok.startswith("GF:") else None
        if p is None:
            raise FieldError(f"bad field token {_echo(tok)} (expected 'Q' or 'GF:p')")
        return Field.prime(p)


def _normal(x: Fraction):
    """A rational in its canonical form: ``int`` when integral."""
    return x.numerator if x.denominator == 1 else x


QQ = Field.rationals()
