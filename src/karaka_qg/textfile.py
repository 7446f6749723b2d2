"""The line formats more than one module reads or writes: UTF-8 text whose
decode errors name a line, two-column TSV tables, and JSONL records. Edge
whitespace in a treebank column or a ratings id is an error (check_edges). A
read_pairs cell or a "# sent_id"/"# text" value is stripped, which can only
merge a name with its twin, never split it: a repeated lemma is counted and a
repeated sent_id is an error. A ratings score keeps int()'s rule (" 5", "+4")."""

from __future__ import annotations

import json
import typing
from contextlib import contextmanager
from enum import Enum
from functools import partial
from json.encoder import encode_basestring


class InputError(ValueError):
    """The base of every reader's error: a file that cannot be read as its format says."""


@contextmanager
def open_utf8(path, error, newline=None):
    """The lines of the file at path, read once as UTF-8 text.

    Each line is checked as its caller reaches it, so a fault on an earlier
    line is raised first. A byte sequence that is not UTF-8 raises
    ``error`` with the message ``PATH:LINE: not valid UTF-8``. A byte order
    mark at the start raises ``error`` too, rather than joining the first
    line. Lines are split as text mode splits them, so a pipe reads as a
    file does.
    """
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        yield _checked_lines(fh, path, error)


def _checked_lines(fh, path, error):
    """The lines of fh, each checked before it is yielded."""
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            if line_no == 1 and line.startswith("\ufeff"):
                raise error(f"{path}:1: file starts with a byte order mark; save it without one")
            try:
                # A byte that is not UTF-8 was read as a lone surrogate, which no text holds.
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{line_no}: not valid UTF-8") from None
        yield line


def check_edges(where: str, error, columns) -> None:
    """Raise error at where for the first (name, value) of columns with whitespace at an edge."""
    for name, value in columns:
        if value != value.strip():
            edge = "a space" if value != value.strip(" ") else "whitespace"
            raise error(f"{where}: {name} column {value!r} starts or ends with {edge}")


def read_pairs(path, error):
    """Yield ``("path:line", first, second)`` for each row of a two-column TSV.

    Blank lines and lines starting with "#" are skipped, and both columns are
    stripped, as the module docstring says. A row with another number of columns raises ``error``.
    """
    with open_utf8(path, error) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.split("\t")
            where = f"{path}:{line_no}"
            if len(cols) != 2:
                raise error(f"{where}: expected 2 tab-separated columns, got {len(cols)}")
            yield where, cols[0].strip(), cols[1].strip()


class JsonlError(InputError):
    """Raised for a malformed or repeated line in a candidates or verdicts file."""


def write_jsonl(records, path, kept_path=None, kept=()) -> None:
    """One record per line, UTF-8, stable key order. Given kept_path, each line
    whose flag in kept is true goes there too: one encoding serves both files."""
    with open(path, "w", encoding="utf-8") as fh:
        if kept_path is None:
            fh.writelines(r.to_json_line() + "\n" for r in records)
            return
        with open(kept_path, "w", encoding="utf-8") as kept_fh:
            for r, keep in zip(records, kept, strict=True):
                fh.write(line := r.to_json_line() + "\n")
                if keep:
                    kept_fh.write(line)


# The decoder's scanner, without json.loads's Python wrapper around it.
_scan_json = json.JSONDecoder().scan_once


def _decode_json_line(line: str):
    """json.loads(line), through the scanner. json.loads runs only for a
    line the scanner cannot take whole, so that it raises its own error."""
    try:
        value, end = _scan_json(line, 0)
    except StopIteration:  # leading whitespace, a BOM, or no value at all
        return json.loads(line)
    if line[end:].strip(" \t\n\r"):  # extra data after the value
        return json.loads(line)
    return value


def read_jsonl(path, record_type, project: str | None = None, line_of: dict | None = None):
    """One record_type per non-blank line, or given project, the dict of each
    record's candidate_id to its field of that name, built from the line's
    values without the record. A malformed, too deeply nested, mistyped or
    repeated line, or one that escapes a lone surrogate, raises JsonlError.
    line_of, if given, is filled with each candidate_id's line."""
    by_id = {}
    line_of = {} if line_of is None else line_of
    names = list(record_type.JSON_TYPES)
    id_at = names.index("candidate_id")
    field_at = None if project is None else names.index(project)
    with open_utf8(path, JsonlError) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                values = record_type.json_values(_decode_json_line(line))
                # UTF-8 text holds no surrogate; only a \u escape makes one.
                if "\\u" in line:
                    record_type(*values).to_json_line().encode("utf-8")
            except KeyError as exc:
                raise JsonlError(f"{path}:{line_no}: missing field {exc}") from None
            except UnicodeEncodeError as exc:
                raise JsonlError(f"{path}:{line_no}: lone surrogate "
                                 f"{exc.object[exc.start]!r} is not text") from None
            except (ValueError, TypeError, RecursionError) as exc:
                raise JsonlError(f"{path}:{line_no}: {exc}") from None
            candidate_id = values[id_at]
            if candidate_id in line_of:
                raise JsonlError(
                    f"{path}:{line_no}: duplicate candidate_id {candidate_id!r}, "
                    f"first used at {path}:{line_of[candidate_id]}"
                )
            line_of[candidate_id] = line_no
            by_id[candidate_id] = record_type(*values) if field_at is None else values[field_at]
    return list(by_id.values()) if field_at is None else by_id


def _json_form(kind):
    """(JSON type, decode, encode, text) of a field annotation. decode and
    encode map a JSON value to the field's and back, a None one leaving the
    value as it is; text(x) is the part of an f-string that writes the JSON
    text of the value of the expression x, with s encoding a string."""
    if kind in (str, int, bool):
        text = {str: "{s(%s)}", int: "{int.__repr__(%s)}", bool: '{"true" if %s else "false"}'}[kind]
        return kind, None, None, lambda x: text % x
    if kind == tuple[str, ...]:
        return list, tuple, list, lambda x: '[{", ".join(map(s, %s))}]' % x
    if isinstance(kind, type) and issubclass(kind, Enum):
        # Member of each value; an unknown value goes through kind() for its error.
        member_of = {m.value: m for m in kind}
        return (str, lambda v: member_of.get(v) or kind(v), lambda v: v.value,
                lambda x: "{s(%s.value)}" % x)
    args = typing.get_args(kind)
    if len(args) == 2 and args[1] is type(None):
        json_type, decode, encode, text = _json_form(args[0])
        # null, or the inner text as an f-string nested in the line's f'''-string.
        return ((json_type, type(None)), decode and (lambda v: None if v is None else decode(v)),
                encode and (lambda v: None if v is None else encode(v)),
                lambda x: """{f'%s' if %s is not None else "null"}""" % (text(x), x))
    raise TypeError(f"no JSON form for a field of type {kind!r}")


_JSON_NAMES = {str: "a string", int: "an integer", bool: "true or false",
               list: "a list of strings", type(None): "null"}


def _type_check(name: str, json_type, v: str) -> list:
    """Source lines raising TypeError unless the variable v holds the absent
    marker A or a value of json_type, one type or a tuple of them. A list
    must hold strings. Types must match exactly, so true is not an integer."""
    kinds = json_type if type(json_type) is tuple else (json_type,)
    message = f"field {name!r} must be {' or '.join(_JSON_NAMES[k] for k in kinds)}, got "
    wrong = f"raise TypeError({message!r} + j({v}))"
    others = " and ".join([f"{v} is not None" if k is type(None) else f"type({v}) is not {k.__name__}"
                           for k in kinds if k is not list] + [f"{v} is not A"])
    if list not in kinds:
        return [f"    if {others}: {wrong}"]
    return [f"    if type({v}) is list:",
            f"        try: ''.join({v})",  # raises TypeError unless every item is a string
            f"        except TypeError: {wrong} from None",
            f"    elif {others}: {wrong}"]


def _json_values_source(forms, defaults: dict, has_check: bool) -> str:
    """Source of json_values over the (name, JSON type, decode, ...) forms of
    the fields: a value d that is not an object is a TypeError; then each
    field, in order, is fetched into v<i> and its JSON type checked; then
    c(d) runs if has_check; then, field by field, a missing field takes its
    default or raises KeyError, and a field with a decode goes through f<i>."""
    lines = ["def json_values(d):",
             "    if type(d) is not dict: raise TypeError('expected a JSON object, got ' + j(d))",
             "    get = d.get"]
    for i, (name, json_type, *_) in enumerate(forms):
        lines += [f"    v{i} = get({name!r}, A)", *_type_check(name, json_type, f"v{i}")]
    lines += ["    c(d)"] * has_check
    for i, (name, _, decode, *_) in enumerate(forms):
        missing = f"v{i} = D[{name!r}]" if name in defaults else f"raise KeyError({name!r})"
        lines += [f"    if v{i} is A: {missing}"] + [f"    v{i} = f{i}(v{i})"] * bool(decode)
    return "\n".join(lines + ["    return [%s]\n" % ", ".join(f"v{i}" for i in range(len(forms)))])


def jsonl_record(cls, check=None):
    """Class decorator deriving a named tuple's JSON_TYPES, to_json_dict,
    to_json_line, json_values (a line's checked, decoded field values, in
    field order) and from_json_dict from its fields and their annotations,
    once. A field with a default may be absent from a line; check(d) vets a
    line after its JSON types and before its missing fields and values.
    to_json_line and json_values are compiled to straight-line code, once
    each: to_json_line when the class is defined, json_values when its first
    line is decoded, so a process that reads no line compiles no decoder.
    to_json_line is one f-string, which equals
    json.dumps(self.to_json_dict(), ensure_ascii=False)."""
    hints = typing.get_type_hints(cls)
    forms = [(name, *_json_form(hints[name])) for name in cls._fields]
    cls.JSON_TYPES = {name: json_type for name, json_type, *_ in forms}
    encodes = [(name, encode) for name, _, _, encode, _ in forms]

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) if encode is None else encode(getattr(self, name))
                for name, encode in encodes}

    namespace = {"s": encode_basestring, "j": partial(json.dumps, ensure_ascii=False),
                 "A": object(), "c": check, "D": cls._field_defaults,
                 **{f"f{i}": decode for i, (_, _, decode, *_) in enumerate(forms)}}

    def compile_function(name: str, source: str):
        exec(source, namespace)
        fn = namespace[name]
        fn.__module__ = cls.__module__
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        return fn

    def json_values(d):
        # Stands in for the compiled function until the first call, which
        # compiles it; a caller that kept this one still compiles it once.
        if "json_values" not in namespace:
            cls.json_values = staticmethod(compile_function("json_values", _json_values_source(
                forms, cls._field_defaults, check is not None)))
        return namespace["json_values"](d)

    items = ", ".join(f'"{name}": ' + text("self." + name) for name, *_, text in forms)
    cls.to_json_line = compile_function(
        "to_json_line", "def to_json_line(self):\n    return f'''{{%s}}'''\n" % items)
    cls.to_json_dict = to_json_dict
    cls.json_values = staticmethod(json_values)
    cls.from_json_dict = staticmethod(lambda d: cls(*cls.json_values(d)))
    return cls
