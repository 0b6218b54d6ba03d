"""JSON schemas for every value the library reads from files.

This module is the one reader of input files, and it only reads.
``load_file`` reads a file once and returns the loaded value with the
report's record of its bytes; ``load_gamma`` does the same for a
``--gamma`` file or inline JSON.  Wherever
a schema allows a nested value (a function's space, a map's source, a
complex's group) it may be given inline or as a path string, resolved
relative to the referring file and decoded as a top-level file is.  Errors
name the offending field.  A loader checks only the JSON shape and ends with
the validator of what it builds (``validate_space`` and the like): the one
check of an input.  One reader, ``_load_cells``, reads every list of cells,
a groupoid's ``strata`` among them.  A loader of a group, presentation,
isotropy model, groupoid or complex imports the module that builds it
itself, so a command that reads only cells never compiles those modules;
a refusal escapes the control characters of a path it names.

The id separator "⊗" is reserved for generated ids (products, inertia
cells) and rejected in all input ids, so no generated id can be read back
as an input, by design.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

from . import cells
from .cells import Cell, CellMap, CellSpace, ConstructibleFunction, RESERVED_SEPARATOR
from .errors import ValidationError

if TYPE_CHECKING:
    from . import catalog, groupoid, groups, translation


class _File(NamedTuple):
    """A file's JSON value, taken as it is (a string is no further path),
    and the directory its references are relative to."""

    value: Any
    base: Path


# control characters (C0, DEL and C1) as \xNN escapes
_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}


def _shown(path: Path) -> str:
    """The path as a refusal names it: a control character, which would
    break the one-line message, is escaped, and every other character kept."""
    return str(path).translate(_ESCAPES)


def _decode(data: bytes, path: Path) -> _File:
    """Parse a file's bytes as read_text(encoding="utf-8") would give them."""
    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{_shown(path)}: not UTF-8: {exc}") from None
    try:
        return _File(json.loads(text), path.parent)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ValidationError(f"{_shown(path)}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"{_shown(path)}: JSON nested too deeply") from None


def _resolve(obj_or_path: Any, base: Path | None) -> tuple[Any, Path | None]:
    """Return (parsed object, new base dir) for an inline value, a path
    string or a file load_file has read."""
    if isinstance(obj_or_path, str):
        path = Path(obj_or_path)
        if base is not None and not path.is_absolute():
            path = base / path
        try:
            data = path.read_bytes()
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise ValidationError(f"cannot read {_shown(path)}: {exc}") from None
        obj_or_path = _decode(data, path)
    return obj_or_path if isinstance(obj_or_path, _File) else (obj_or_path, base)


def _require(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise ValidationError(f"{where}: missing field {key!r}")
    return obj[key]


def _check_input_id(cid: Any, where: str) -> str:
    if not isinstance(cid, str) or not cid:
        raise ValidationError(f"{where}: id must be a non-empty string, got {cid!r}")
    if RESERVED_SEPARATOR in cid:
        raise ValidationError(f"{where}: id {cid!r} contains the reserved separator")
    return cid


# ---------------------------------------------------------------------------
# cell spaces, functions, maps


def _load_cells(entries: Any, where: str) -> CellSpace:
    """The cells of a list of ``{"id", "dim"}`` entries, named ``where`` in errors."""
    if not isinstance(entries, list):
        raise ValidationError(f"{where}: expected a list")
    return cells.validate_space(
        Cell(_check_input_id(_require(e, "id", f"{where}[{i}]"), f"{where}[{i}].id"),
             _require(e, "dim", f"{where}[{i}]"))
        for i, e in enumerate(entries)
    )


def load_cell_space(obj: Any, base: Path | None = None) -> CellSpace:
    obj, _ = _resolve(obj, base)
    return _load_cells(_require(obj, "cells", "cell space"), "cells")


def load_function(obj: Any, base: Path | None = None) -> ConstructibleFunction:
    obj, base = _resolve(obj, base)
    space = load_cell_space(_require(obj, "space", "function"), base)
    values = _require(obj, "values", "function")
    if not isinstance(values, dict):
        raise ValidationError("values: expected an object")
    return cells.validate_function(space, values)


def load_cell_map(obj: Any, base: Path | None = None) -> CellMap:
    obj, base = _resolve(obj, base)
    source = load_cell_space(_require(obj, "source", "map"), base)
    target = load_cell_space(_require(obj, "target", "map"), base)
    assign = _require(obj, "assign", "map")
    if not isinstance(assign, dict):
        raise ValidationError("assign: expected an object")
    return cells.validate_map(source, target, assign)


# ---------------------------------------------------------------------------
# groups and presentations


def load_group(obj: Any, base: Path | None = None) -> groups.FiniteGroup:
    from . import groups

    obj, _ = _resolve(obj, base)
    order = _require(obj, "order", "group")
    table = _require(obj, "table", "group")
    if not isinstance(table, list) or not isinstance(order, int) or isinstance(order, bool):
        raise ValidationError("group: 'order' must be an integer and 'table' a list")
    if len(table) != order:
        raise ValidationError(f"group: order {order} does not match table size {len(table)}")
    return groups.validate_group(table)


def _count(obj: Any, key: str, what: str, least: int) -> int:
    n = _require(obj, key, "presentation")
    if type(n) is not int or n < least:
        raise ValidationError(f"{what} must be an integer >= {least}, got {n!r}")
    return n


def load_presentation(obj: Any, base: Path | None = None) -> groups.Presentation:
    from . import groups

    obj, _ = _resolve(obj, base)
    kind = _require(obj, "kind", "presentation")
    if kind == "trivial":
        return groups.Presentation.trivial()
    if kind == "cyclic":
        return groups.Presentation.cyclic(_count(obj, "order", "cyclic order", 1))
    if kind == "free_abelian":
        return groups.Presentation.free_abelian(_count(obj, "rank", "free abelian rank", 0))
    if kind == "presentation":
        gens = _require(obj, "generators", "presentation")
        rels = obj.get("relators", [])
        if not isinstance(rels, list):
            raise ValidationError("relators: expected a list of words")
        return groups.validate_presentation(gens, rels)
    raise ValidationError(f"presentation: unknown kind {kind!r}")


def _names_file(arg: str) -> bool:
    """Whether arg is an existing path; a string too long to be one is not."""
    try:
        return Path(arg).exists()
    except OSError:
        return False


def load_gamma(arg: str) -> tuple[groups.Presentation, dict]:
    """A --gamma argument, a presentation file if it names an existing path
    and inline JSON otherwise: (presentation, the report's input record)."""
    if _names_file(arg):
        return load_file(arg, load_presentation)
    try:
        obj = json.loads(arg)
    except ValueError:
        raise ValidationError(
            f"--gamma: {arg!r} is neither an existing file nor valid JSON"
        ) from None
    except RecursionError:
        raise ValidationError("--gamma: JSON nested too deeply") from None
    p = load_presentation(obj)
    try:
        data = arg.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError("--gamma: not UTF-8") from None
    return p, {"inline": arg, "sha256": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# isotropy models and groupoids


# Products nest one Python call per level here and in the catalog, inline or
# by file reference (a file may refer to itself): deeper inputs are refused.
_MAX_PRODUCT_DEPTH = 100


class _NestedTooDeep(ValidationError):
    """Products nested past the bound; ``load_file`` names the file."""


def load_isotropy(obj: Any, base: Path | None = None) -> catalog.IsotropyModel:
    return _load_isotropy(obj, base, 0)


def _load_isotropy(obj: Any, base: Path | None, depth: int) -> catalog.IsotropyModel:
    from . import catalog

    obj, base = _resolve(obj, base)
    kind = _require(obj, "kind", "isotropy")
    if kind == "finite":
        return catalog.FiniteIsotropy(load_group(_require(obj, "group", "isotropy"), base))
    if kind == "torus":
        n = _require(obj, "n", "isotropy")
        if type(n) is not int or n < 1:
            raise ValidationError(f"torus dimension must be a positive integer, got {n!r}")
        return catalog.TorusIsotropy(n)
    if kind == "SO3":
        return catalog.SO3
    if kind == "O2":
        return catalog.O2
    if kind == "product":
        factors = _require(obj, "factors", "isotropy")
        if not isinstance(factors, list) or not factors:
            raise ValidationError("isotropy: 'factors' must be a non-empty list")
        if depth == _MAX_PRODUCT_DEPTH:
            raise _NestedTooDeep(f"isotropy: products nested more than {_MAX_PRODUCT_DEPTH} deep")
        return catalog.ProductIsotropy(tuple(_load_isotropy(f, base, depth + 1) for f in factors))
    if kind == "custom":
        name = _require(obj, "name", "isotropy")
        chi_table = _require(obj, "chi", "isotropy")
        if not isinstance(chi_table, dict):
            raise ValidationError("isotropy: 'chi' must be an object")
        for k, v in chi_table.items():
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValidationError(f"isotropy chi[{k!r}]: expected an integer")
        models = obj.get("cell_models", {})
        if not isinstance(models, dict):
            raise ValidationError("isotropy: 'cell_models' must be an object")
        cm = tuple((k, load_cell_space(v, base)) for k, v in models.items())
        return catalog.CustomIsotropy(name, tuple(sorted(chi_table.items())), cm)
    raise ValidationError(f"isotropy: unknown kind {kind!r}")


def load_groupoid(obj: Any, base: Path | None = None) -> groupoid.OrbitGroupoid:
    from . import groupoid

    obj, base = _resolve(obj, base)
    strata = _require(obj, "strata", "groupoid")
    space = _load_cells(strata, "strata")
    iso = {c.id: load_isotropy(_require(e, "isotropy", f"strata[{i}]"), base)
           for i, (c, e) in enumerate(zip(space.cells, strata))}
    return groupoid.validate_groupoid(space, iso)


# ---------------------------------------------------------------------------
# rigid complexes


def load_complex(obj: Any, base: Path | None = None) -> translation.RigidGComplex:
    from . import translation

    obj, base = _resolve(obj, base)
    group = load_group(_require(obj, "group", "complex"), base)
    space = _load_cells(_require(obj, "cells", "complex"), "cells")
    raw_action = _require(obj, "action", "complex")
    if not isinstance(raw_action, dict):
        raise ValidationError("action: expected an object keyed by element index")
    action: dict[int, dict[str, str]] = {}
    key_of: dict[int, str] = {}
    for key, mapping in raw_action.items():
        try:
            g = int(key)
        except (TypeError, ValueError):
            raise ValidationError(f"action key {key!r} is not an element index") from None
        if g in key_of:
            raise ValidationError(
                f"action keys {key_of[g]!r} and {key!r} both name element {g}"
            )
        if not isinstance(mapping, dict):
            raise ValidationError(f"action[{key!r}]: expected an object")
        key_of[g] = key
        action[g] = mapping
    return translation.validate_complex(group, space, action)


def load_extension(obj: Any, base: Path | None = None) -> dict:
    """Extension description: fiber model, acting group, base complex, order."""
    from . import translation

    obj, base = _resolve(obj, base)
    ell = _require(obj, "ell", "extension")
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 0:
        raise ValidationError("extension: 'ell' must be a non-negative integer")
    return translation.validate_extension(
        load_isotropy(_require(obj, "fiber", "extension"), base),
        load_group(_require(obj, "group", "extension"), base),
        load_complex(_require(obj, "complex", "extension"), base),
        ell,
    )


def load_file(path: str | Path, loader) -> tuple[Any, dict]:
    """Load a file with one of the load_* functions above, reading it once:
    (value, the report's input record of the path as given and the digest
    of this file's bytes; a file it names by a nested path is read and not
    digested).  A file that cannot be read raises its own OSError."""
    data, where = Path(path).read_bytes(), Path.cwd() / path
    try:
        value = loader(_decode(data, where))
    except _NestedTooDeep as exc:
        raise ValidationError(f"{_shown(where)}: {exc}") from None
    return value, {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
