"""Shared exception types, the JSON field checks that raise them, and the
constructor hook of the value types that check their fields."""
import json


class ValidationError(ValueError):
    """Bad input; the CLI exits 1 on it, as on an unreadable file."""


class ConsistencyError(ArithmeticError):
    """An internal cross-check (two computation paths) disagrees."""


def checked(cls):
    """Class decorator: cls._new becomes the constructor of the NamedTuple
    cls, whose body may not define __new__.  _new checks the fields,
    computes the derived ones and returns tuple.__new__(cls, fields); the
    defaults are its own.  _make and _replace skip it: nothing calls them."""
    cls.__new__ = cls._new
    return cls


def json_field(obj: dict, key: str, kind: type = int, record: str = ""):
    """The required field obj[key] of a record, read as kind: int or
    Fraction by json_number, list, dict, str or bool by json_check."""
    prefix = f"{record}: " if record else ""
    if key not in obj:
        raise ValidationError(f"{prefix}missing field {key!r}")
    if kind in _KINDS:
        return json_check(obj[key], kind, f"{prefix}{key!r}")
    return json_number(obj[key], f"{prefix}{key!r}", kind)


def json_array(obj: dict, key: str, of: type = dict, required: bool = True,
               record: str = "") -> list:
    """obj[key] checked to be a JSON array whose items are of type `of`
    (objects by default); an absent optional field reads as []."""
    items = json_field(obj, key, list, record) if required \
        else obj.get(key, [])
    return json_items(items, of, f"{record}: {key!r}" if record else repr(key))


def json_items(items, of: type, what: str) -> list:
    """items checked to be a JSON array whose items are of type `of`."""
    json_check(items, list, what)
    for i, item in enumerate(items):
        json_check(item, of, f"{what}[{i}]")
    return items


_KINDS = {list: "a JSON array", dict: "a JSON object", str: "a JSON string",
          bool: "a JSON boolean"}


def json_check(value, kind: type, what: str):
    """Raise ValidationError unless value is a JSON array (kind = list),
    object (dict), string (str) or boolean (bool)."""
    if not isinstance(value, kind):
        raise ValidationError(
            f"{what} must be {_KINDS[kind]}, got {type(value).__name__}")
    return value


def json_number(value, what: str, kind: type = int):
    """value read as kind (int or Fraction): a JSON integer, or a string
    that kind parses exactly ("12", "-3/4"); null, booleans, floats, arrays
    and objects raise ValidationError."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return kind(value)
        except (ValueError, ZeroDivisionError):
            pass
    shown = {list: "an array", dict: "an object"}.get(type(value)) \
        or json.dumps(value)
    name = "an integer" if kind is int else "a rational number"
    raise ValidationError(f"{what} must be {name}, got {shown}")
