"""Exact scalar arithmetic: the rationals and prime fields GF(p).

Scalars are plain Python values -- ``fractions.Fraction`` over the rationals
and canonical ``int`` representatives in ``[0, p)`` over GF(p).  A ``Field``
object mediates every arithmetic operation so that the linear-map layer never
needs to know which kind of scalar it is holding.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InputError


class FieldError(InputError):
    pass


# primality is tested by trial division, about sqrt(p) steps: milliseconds
# below this bound, hours for a 24-digit p
MAX_CHAR = 2 ** 31


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


class Field:
    """The rationals (``char == 0``) or GF(p) (``char == p`` prime).

    Values of the field are *not* wrapped: rational scalars are ``Fraction``
    (always gcd-reduced with positive denominator, which ``Fraction``
    guarantees) and GF(p) scalars are ints already reduced mod p.
    """

    __slots__ = ("char",)

    def __init__(self, char: int = 0):
        if char >= MAX_CHAR or (char != 0 and not _is_prime(char)):
            raise FieldError(
                f"field characteristic must be 0 or a prime below 2^31, got {char}")
        self.char = char

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

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return "Q" if self.char == 0 else f"GF({self.char})"

    @property
    def is_prime_field(self) -> bool:
        return self.char != 0

    # -- elements ---------------------------------------------------------

    @property
    def zero(self):
        return 0 if self.char else _QZERO

    @property
    def one(self):
        return 1 if self.char else _QONE

    def coerce(self, x):
        """Turn an int / Fraction / string into a canonical scalar."""
        if self.char:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise FieldError(f"cannot coerce non-integer {x} into {self}")
                x = x.numerator
            if not isinstance(x, int):
                raise FieldError(f"cannot coerce {x!r} into {self}")
            return x % self.char
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
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
        return 1 / a

    # -- text ---------------------------------------------------------------

    def parse(self, token: str):
        """Parse one scalar token as written in structure files."""
        token = token.strip()
        if self.char:
            try:
                return int(token, 10) % self.char
            except ValueError:
                raise FieldError(f"bad GF({self.char}) scalar {token!r}") from None
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise FieldError(f"bad rational scalar {token!r}") from None

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
        if tok.startswith("GF:"):
            try:
                p = int(tok[3:], 10)
            except ValueError:
                raise FieldError(f"bad field token {tok!r}") from None
            return Field.prime(p)
        raise FieldError(f"bad field token {tok!r} (expected 'Q' or 'GF:p')")


_QZERO = Fraction(0)
_QONE = Fraction(1)

QQ = Field.rationals()
