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
    items = obj[key] if required else obj.get(key, [])
    json_check(items, list, repr(key))
    for i, item in enumerate(items):
        json_check(item, of, f"{key!r}[{i}]")
    return items


def json_check(value, kind: type, what: str):
    """Raise ValidationError unless value is a JSON array (kind = list) or
    object (kind = dict)."""
    if not isinstance(value, kind):
        name = "a JSON array" if kind is list else "a JSON object"
        raise ValidationError(
            f"{what} must be {name}, got {type(value).__name__}")
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
