"""Outside-in span tracer for the delsarte package.

The tracer wraps selected functions and methods of the package from
outside: every module namespace (and every class dict) that holds a
reference to a traced object gets the same wrapper, so calls made through
`from .x import f` aliases are seen too.  Nothing inside the package
changes.  Methods are wrapped the moment their class is created, before
the package is imported further, so the work the package does at import
(`symbolic` builds its polynomial registry with `MultiPoly` arithmetic) is
traced too; those spans carry operation id -1.  Functions are wrapped once
the package is imported.

Each call of a wrapped object records one span: name, start, end, parent
span, operation id, whether an exception left the call, and a work count
computed from the call's arguments or result (never from inside the
program).  Spans stay in memory until `write` puts them on disk.
"""
from __future__ import annotations

import builtins
import csv
import functools
import gzip
import sys
from time import perf_counter


def _q(field) -> int:
    return field.p ** field.k


def _jacobi_work(args, kwargs):
    k, table = args[0], args[1]
    k = tuple(k)
    field = table.field
    # the Jacobi sum runs over m = len(k) - 1 characters and enumerates
    # (q - 1)^(m - 1) tuples of nonzero field elements
    work = (_q(field) - 1) ** (len(k) - 2)
    key = (k, table.order, field.p, field.k, table.generator)
    return work, key


def _char_poly_work(args, kwargs):
    return len(args[0]), None


def _field_work(args, kwargs):
    return _q(args[0]), None


def _cone_work(args, kwargs):
    spec, field = args[0], args[1]
    return _q(field) ** len(spec.weights), None


def _general_position_work(args, kwargs):
    spec, field = args[0], args[1]
    max_ext = kwargs.get("max_ext", args[2] if len(args) > 2 else 1)
    n1 = len(spec.weights)
    q = _q(field)
    # the search space, an upper bound on the points checked: projective
    # points of P^(n1-1) over every extension up to max_ext.  The check
    # stops at the first singular point it meets, which the arguments do
    # not show.
    return sum(((q**j) ** n1 - 1) // (q**j - 1) for j in range(1, max_ext + 1)), None


def _map_matrix_work(args, kwargs):
    return 0, args[0].rows


def _resultant_work(args, kwargs):
    p, q, name = args[0], args[1], args[2]
    return p.degree_in(name) + q.degree_in(name), None


def _result_len(result):
    return len(result)


# (module, attribute path, argument work function, result work function).
# Work functions return (count, distinctness key or None).
TRACED = (
    ("cli", "main", None, None),
    ("deformation", "build", None, None),
    ("deformation", "common_cover", None, None),
    ("exactalg", "determinant", None, None),
    ("exactalg", "minimal_map_matrix", _map_matrix_work, None),
    ("monomials", "invariant_image", None, _result_len),
    ("monomials", "g_invariant_types", None, None),
    ("monomials", "enumerate_basis", None, _result_len),
    ("monomials", "strong_classes", None, None),
    ("monomials", "weak_classes", None, None),
    ("cyclotomic", "CyclotomicElement.__mul__", None, None),
    ("cyclotomic", "CyclotomicElement.reduced", None, None),
    ("pointcount", "FiniteField.__post_init__", _field_work, None),
    ("pointcount", "count_cone", _cone_work, None),
    ("pointcount", "is_general_position", _general_position_work, None),
    ("zetafermat", "jacobi_eigenvalue", _jacobi_work, None),
    ("zetafermat", "char_poly_invariant", _char_poly_work, None),
    ("zetafermat", "multiplicative_character", None, None),
    ("zetafermat", "verify_common_factor", None, None),
    ("symbolic", "appendix_checks", None, None),
    ("symbolic", "bitangent_eliminant", None, None),
    ("symbolic", "resultant", _resultant_work, None),
    ("symbolic", "exact_div", None, None),
    ("symbolic", "MultiPoly.__mul__", None, None),
)

PACKAGE = "delsarte"

# span name for a traced attribute; FiniteField is traced at construction
SPAN_NAMES = {"FiniteField.__post_init__": "FiniteField"}


def _span_name(mod_name: str, path: str) -> str:
    return f"{mod_name}.{SPAN_NAMES.get(path, path)}"


def _replace(target, wrapper, holders) -> None:
    """Put `wrapper` in place of `target` under every name it has in `holders`."""
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is target:
                setattr(holder, key, wrapper)


class Tracer:
    """In-memory span store.  One tracer serves one process.

    Call `hook_classes` before the package is imported and `install` after.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.current = -1
        self.op = -1
        self._build_class = builtins.__build_class__

    def hook_classes(self) -> None:
        """Wrap the traced methods of each package class as its `class` statement ends."""
        methods = {}
        for entry in TRACED:
            owner_name, _, attr = entry[1].rpartition(".")
            if owner_name:
                methods.setdefault((f"{PACKAGE}.{entry[0]}", owner_name), []).append((entry, attr))
        build_class = self._build_class

        def hooked(func, name, *bases, **kwargs):
            cls = build_class(func, name, *bases, **kwargs)
            for (mod_name, path, arg_work, result_work), attr in methods.get((cls.__module__, name), ()):
                target = vars(cls).get(attr)
                if target is not None:
                    wrapper = self._wrap(target, _span_name(mod_name, path), arg_work, result_work)
                    _replace(target, wrapper, [cls])
            return cls

        builtins.__build_class__ = hooked

    def install(self) -> None:
        """Wrap every traced function wherever the package references it."""
        builtins.__build_class__ = self._build_class
        modules = [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod_name, path, arg_work, result_work in TRACED:
            name = _span_name(mod_name, path)
            if name in self.names:
                continue
            target = None if "." in path else getattr(sys.modules[f"{PACKAGE}.{mod_name}"], path, None)
            if target is None:
                # gone from the package: its metrics read zero calls
                self.names.append(name)
                continue
            _replace(target, self._wrap(target, name, arg_work, result_work), modules)

    def _wrap(self, fn, name: str, arg_work, result_work):
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        tracer = self
        active = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work, key = 0, None
            if arg_work is not None:
                work, key = arg_work(args, kwargs)
            parent = tracer.current
            idx = len(spans)
            spans.append(None)
            tracer.current = idx
            outermost = active[0] == 0
            active[0] += 1
            err = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                err = False
            finally:
                end = perf_counter()
                active[0] -= 1
                tracer.current = parent
                spans[idx] = (nid, start, end, parent, tracer.op, err, outermost, work, key)
            if result_work is not None:
                spans[idx] = spans[idx][:7] + (result_work(result), key)
            return result

        return wrapper

    def summary(self) -> dict:
        """Per-name calls, self time, outermost total time, errors, work, distinct keys."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0, "work": 0, "keys": set()}
            for name in self.names
        }
        for i, (nid, start, end, parent, op, err, outermost, work, key) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            if outermost:
                row["total_s"] += end - start
            row["errors"] += err
            row["work"] += work
            if key is not None:
                row["keys"].add(key)
        for row in out.values():
            row["distinct"] = len(row.pop("keys"))
        return out

    def write(self, path: str) -> None:
        """Spans as gzip CSV: id, name, start, end, parent, op, error."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "name", "start", "end", "parent", "op", "error"])
            names = self.names
            for i, (nid, start, end, parent, op, err, *_rest) in enumerate(self.spans):
                writer.writerow([i, names[nid], f"{start:.9f}", f"{end:.9f}", parent, op, int(err)])
