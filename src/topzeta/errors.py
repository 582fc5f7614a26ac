"""Shared exception types, and the JSON field checks that raise them."""
import json


class ValidationError(ValueError):
    """A structural invariant of the input data fails."""


class ConsistencyError(ArithmeticError):
    """An internal cross-check (two computation paths) disagrees."""


def json_array(obj: dict, key: str, of: type = dict,
               required: bool = True) -> list:
    """obj[key] checked to be a JSON array whose items are of type `of`
    (objects by default); an absent optional field reads as []."""
    return json_items(obj[key] if required else obj.get(key, []), of,
                      repr(key))


def json_items(items, of: type, what: str) -> list:
    """items checked to be a JSON array whose items are of type `of`."""
    json_check(items, list, what)
    for i, item in enumerate(items):
        json_check(item, of, f"{what}[{i}]")
    return items


_KINDS = {list: "a JSON array", dict: "a JSON object", str: "a JSON string"}


def json_check(value, kind: type, what: str):
    """Raise ValidationError unless value is a JSON array (kind = list),
    object (dict) or string (str)."""
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
