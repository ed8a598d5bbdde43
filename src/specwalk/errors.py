"""Exception types shared across the package, and the spec-string reader."""


class ParseError(ValueError):
    """A graph/DOS/grid spec string or a levels table could not be parsed.

    Carries the offending text and the position of the first bad character.
    """

    def __init__(self, message, text=None, position=None):
        if text is not None and position is not None:
            message = f"{message} (in {text!r} at position {position})"
        super().__init__(message)
        self.text = text
        self.position = position


class NumericalError(RuntimeError):
    """An eigensolver failed to converge, or a result left its valid range."""


class ResourceLimitError(ValueError):
    """A requested construction exceeds the configured size cap."""


def _read_spec(spec, table, what, start=0, end=None):
    """(family, positional values, {key: value}) of spec[start:end], read as
    'family:p1,...,key=value,...' by its family's row (usage, positional
    types, {key: type}) in `table`. Keys follow the positional values. A
    missing colon, an unknown family, a wrong count, a bad value, or an
    unknown or repeated key raises ParseError at its part of `spec`."""
    end = len(spec) if end is None else end
    colon = spec.find(":", start, end)
    family = spec[start:colon].strip().lower()
    if colon < 0 or family not in table:
        raise ParseError(f"{what} needs <family>:<parameters>, the family one of "
                         f"{', '.join(table)}", text=spec, position=start)
    usage, types, key_types = table[family]
    values, keys, at = [], {}, colon + 1
    for part in spec[at:end].split(",") if at < end else []:
        name, eq, text = part.rpartition("=")
        name = name.strip()
        if eq and (name in keys or name not in key_types):
            raise ParseError(f"{'repeated' if name in keys else 'unknown'} key {name!r}: "
                             f"{what} needs {usage}", text=spec, position=at)
        if not eq and (keys or len(values) == len(types)):
            raise ParseError(f"{what} needs {usage}", text=spec, position=at)
        try:
            value = (key_types[name] if eq else types[len(values)])(text)
        except ValueError:
            raise ParseError(f"bad value {text.strip()!r}: {what} needs {usage}",
                             text=spec, position=at) from None
        if eq:
            keys[name] = value
        else:
            values.append(value)
        at += len(part) + 1
    if len(values) < len(types):
        raise ParseError(f"{what} needs {usage}", text=spec, position=end)
    return family, values, keys
