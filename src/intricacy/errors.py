"""Exceptions shared across the package, and the field checks of the JSON
input documents that raise one of them.

The checks read the types ``json.load`` gives: numbers are int or float,
and true/false are bool, which no numeric field takes.  They test the
types of a whole row at once, not one call per entry, so a small
document costs about a microsecond to check."""

from itertools import chain

_NUMBERS = frozenset((int, float))
_DIGITS = frozenset("0123456789")


class CapExceeded(RuntimeError):
    """A computation would exceed a configured size cap (horizon, subset
    count, enumeration budget).  Distinct from ValueError so the CLI can
    map it to its own exit code."""


MAX_TERMS = 1074  # 2^-1074 is the least float64 above 0


def check_terms(terms: int, least: int = 1) -> None:
    """Refuse fewer than ``least`` series terms as bad input, more than MAX_TERMS as a cap."""
    if terms < least:
        raise ValueError(f"terms must be >= {least}")
    if terms > MAX_TERMS:
        raise CapExceeded(f"terms={terms} exceeds {MAX_TERMS}: past it every weight is 0")


class FieldTypeError(ValueError):
    """A field of an input document holds a value of the wrong type.  The
    CLI names the file the document came from."""


def is_int(v) -> bool:
    return type(v) is int


def is_number(v) -> bool:
    return type(v) in _NUMBERS


def are_numbers(values) -> bool:
    return _NUMBERS.issuperset(map(type, values))


def is_text(v) -> bool:
    return isinstance(v, str)


def is_word(v) -> bool:
    # a word, block or state of symbols: a string of digits or a list of integers
    return isinstance(v, str) or (isinstance(v, list) and all(type(a) is int for a in v))


def read_symbols(word, what: str) -> tuple[int, ...]:
    """The symbols of a word, block or state: the digits 0-9 of a string
    or the nonnegative integers of a list or tuple.  Anything else is bad
    input naming ``what`` and the word."""
    if isinstance(word, str):
        if _DIGITS.issuperset(word):
            return tuple(map(int, word))
    elif isinstance(word, (list, tuple)) and all(type(a) is int and a >= 0 for a in word):
        return tuple(word)
    raise ValueError(f"{what} {word!r} must be digits 0-9 or a list of nonnegative integers")


def read_symbol(text: str, what: str) -> int:
    """The symbol a key names: a nonnegative decimal integer with no sign,
    spaces or leading zeros, so no two keys name one symbol.  Anything
    else is bad input naming ``what`` and the key."""
    if isinstance(text, str) and text.isascii() and text.isdigit() and str(int(text)) == text:
        return int(text)
    raise ValueError(f"{what} {text!r} must be a nonnegative decimal integer with no sign, "
                     "spaces or leading zeros")


def list_of(test):
    return lambda v: isinstance(v, list) and all(map(test, v))


def optional(test):  # JSON null reads as an absent field
    return lambda v: v is None or test(v)


def is_matrix(v) -> bool:
    return (isinstance(v, list) and all(isinstance(row, list) for row in v)
            and are_numbers(chain.from_iterable(v)))


def read_field(doc: dict, key: str, test, expected: str, *default):
    """doc[key], or ``default`` where one is given and the key is absent.
    A missing key is a KeyError; a value that fails ``test`` is a
    FieldTypeError naming the key and ``expected``."""
    if default and key not in doc:
        return default[0]
    value = doc[key]
    if not test(value):
        raise FieldTypeError(f"key {key!r} must be {expected}, got {type(value).__name__}")
    return value
