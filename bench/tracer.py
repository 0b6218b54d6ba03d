"""Per-layer timing of the eulerchi package, installed from outside it.

A ``Tracer`` replaces the public functions, constructors and methods named
in ``FUNCTIONS`` and ``CLASS_ATTRS`` with wrappers that time each call.  A
function is replaced in every ``eulerchi`` module that holds it, because
modules bind some names with ``from .x import y`` and look others up through
their own globals; a constructor or method is replaced on its class.  Nothing
under ``src/`` changes, and ``remove`` puts every original back.

Per layer the tracer keeps ``calls``, ``self_s`` (the span's duration minus
the time of the spans it contains), ``total_s`` (inclusive, counted for the
outermost call only, so recursion is not counted twice) and a few counts.
Only standard-library modules are imported here.
"""

from __future__ import annotations

import sys
from time import perf_counter

PACKAGE = "eulerchi"


def _len_result_space(stats, args, kwargs, result):
    stats["cells"] += len(result.space)


def _len_self_space(stats, args, kwargs, result):
    stats["cells"] += len(args[0].space)


def _hom_counts(stats, args, kwargs, result):
    presentation, group = args[0], args[1]
    stats["homs"] += len(result)
    stats["space"] += group.order ** presentation.generators


def _tuple_count(stats, args, kwargs, result):
    stats["tuples"] += len(args[0])


def _table_entries(stats, args, kwargs, result):
    stats["entries"] += args[0].order ** 2


def _rigid_name(args, kwargs):
    check = args[4] if len(args) > 4 else kwargs.get("check", "full")
    return f"translation.RigidGComplex.{check}"


# (module, function, extra counts, callback adding them)
FUNCTIONS = (
    ("groups", "validate_group", (), None),
    ("groups", "subgroup_group", (), None),
    ("groups", "centralizer", (), None),
    ("groups", "hom_enumerate", ("homs", "space"), _hom_counts),
    ("groups", "conj_orbit_count", ("tuples",), _tuple_count),
    ("groups", "conjugacy_classes", (), None),
    ("groups", "coset_action", (), None),
    ("translation", "fixed_subcomplex", ("cells",), _len_result_space),
    ("translation", "cell_orbits", (), None),
    ("translation", "orbit_space", (), None),
    ("translation", "chi_gamma_strata", (), None),
    ("translation", "lambda_chi", (), None),
    ("translation", "chi_gamma_noniter", (), None),
    ("translation", "chi_order_ell", (), None),
    ("translation", "anchor_map", (), None),
    ("catalog", "chi_hom_quotient", (), None),
    ("groupoid", "chi_gamma", (), None),
    ("cells", "integrate", (), None),
    ("cells", "integrate_levelset", (), None),
    ("cells", "pushforward", (), None),
    ("harness", "build_complex", (), None),
    ("jsonio", "load_file", (), None),
    ("cli", "main", (), None),
)

# (module, class, attribute, span name or function of the call's arguments,
#  extra counts, callback)
CLASS_ATTRS = (
    ("groups", "FiniteGroup", "__init__", "groups.FiniteGroup", ("entries",), _table_entries),
    ("translation", "RigidGComplex", "__init__", _rigid_name, ("cells",), _len_self_space),
    ("translation", "InertiaComplex", "__init__", "translation.InertiaComplex", ("cells",), _len_self_space),
    ("cells", "CellSpace", "__init__", "cells.CellSpace", (), None),
    ("report", "Report", "to_json", "report.Report.to_json", (), None),
)

# layers whose inclusive time is reported as well as their self time
ROUTES = (
    "translation.chi_gamma_strata",
    "translation.lambda_chi",
    "translation.chi_gamma_noniter",
    "translation.chi_order_ell",
    "translation.anchor_map",
)

CACHE_LAYER = "catalog.finite_chi"


def layer_names() -> list[tuple[str, tuple[str, ...]]]:
    """Every layer the tracer reports, with its extra counts, in a fixed order."""
    out = [(f"{m}.{f}", extras) for m, f, extras, _ in FUNCTIONS]
    for m, c, attr, name, extras, _ in CLASS_ATTRS:
        if callable(name):
            out += [(f"translation.RigidGComplex.{check}", extras) for check in ("full", "closure")]
        else:
            out.append((name, extras))
    return out


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Aggregated spans over the calls into each layer of the package."""

    def __init__(self):
        self._extras = dict(layer_names())
        self._stack: list[float] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self.stats = {
            name: dict(calls=0, self_s=0.0, total_s=0.0, **{k: 0 for k in extras})
            for name, extras in self._extras.items()
        }
        self.stats[CACHE_LAYER] = dict(hits=0, misses=0)

    def _wrap(self, fn, name, extra):
        stack, depth_of = self._stack, self._depth

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            depth = depth_of.get(span, 0)
            depth_of[span] = depth + 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dur
                depth_of[span] = depth
                st = self.stats.setdefault(span, dict(calls=0, self_s=0.0, total_s=0.0))
                st["calls"] += 1
                st["self_s"] += dur - inner
                if depth == 0:
                    st["total_s"] += dur
            if extra is not None:
                extra(self.stats[span], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__bench_traced__ = True
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr, value) -> None:
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer the package currently has; absent ones are skipped."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for mod_name, fn_name, _, extra in FUNCTIONS:
            home = by_name.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        for mod_name, cls_name, attr, name, _, extra in CLASS_ATTRS:
            cls = getattr(by_name.get(f"{PACKAGE}.{mod_name}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                continue
            self._set(cls, attr, self._wrap(original, name, extra))

    def remove(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def add_cache_counts(self, catalog_module) -> None:
        """Add the hits and misses of catalog's homomorphism-quotient cache.

        The cache is read, not wrapped: a wrapper around the cached function
        would see only the calls that miss.
        """
        cached = getattr(catalog_module, "_finite_chi", None)
        if not hasattr(cached, "cache_info"):
            return
        info = cached.cache_info()
        self.stats[CACHE_LAYER]["hits"] += info.hits
        self.stats[CACHE_LAYER]["misses"] += info.misses

    def merge(self, other: dict[str, dict]) -> None:
        """Add stats recorded in another process."""
        for name, fields in other.items():
            mine = self.stats.setdefault(name, {})
            for key, value in fields.items():
                mine[key] = mine.get(key, 0) + value


def leftover_wrappers() -> list[str]:
    """Names in the package that still hold a tracer wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, "__bench_traced__", False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return sorted(set(found))
