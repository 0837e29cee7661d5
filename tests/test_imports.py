import ast
from collections import Counter
from pathlib import Path

import delsarte

SOURCES = sorted(Path(delsarte.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression of it reads.

    `import a.b` binds `a`; `from __future__` imports bind no name.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, prod\n"
        "def f(x: prod) -> int:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["gcd", "js"]


def test_every_package_import_is_used():
    assert len(SOURCES) >= 9
    unused = {path.name: names for path in SOURCES if (names := unused_imports(path.read_text()))}
    assert unused == {}


def unused_parameters(source: str) -> list[str]:
    """`function.parameter` for each parameter that its function's body never reads, sorted.

    Functions, methods and lambdas all count; `self` and `cls` are exempt.
    A read in a nested function counts; an assignment to the parameter does
    not, nor does a read in a default value or a decorator.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a]
        body = node.body if isinstance(node, ast.Lambda) else ast.Module(body=node.body, type_ignores=[])
        read = {n.id for n in ast.walk(body) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}.{p}" for p in params if p not in read and p not in ("self", "cls")]
    return sorted(found)


def test_unused_parameters_detector():
    source = (
        "class C:\n"
        "    def method(self, used, unused=len):\n"
        "        return used\n"
        "    @classmethod\n"
        "    def make(cls, *args, **kwargs):\n"
        "        return cls(*args)\n"
        "def outer(x, y, /, *, z):\n"
        "    def inner(w):\n"
        "        return x\n"
        "    y = 1\n"
        "    return inner\n"
        "key = lambda a, b: a\n"
    )
    # x is read by the nested inner; y is only assigned
    assert unused_parameters(source) == ["<lambda>.b", "inner.w", "make.kwargs", "method.unused", "outer.y", "outer.z"]


def test_every_parameter_is_read():
    unused = {path.name: names for path in SOURCES if (names := unused_parameters(path.read_text()))}
    assert unused == {}


# Names that no module of the package reads, kept on purpose, each with its reason.
UNREFERENCED_ALLOWED = {
    "norm_squared_exact": "acceptance criterion 6 checks |alpha|^2 = q^(n-1) exactly with it",
    "is_g_invariant": "acceptance criterion 10 tests each type's G-invariance with it",
    "reduce_form": "acceptance criterion 11 reduces every form with it",
    "fermat_hypersurface": "acceptance criterion 5 counts the Fermat hypersurfaces with it",
    "frobenius_trace": "acceptance criterion 12 subtracts the invariant trace from the count with it",
}


def _reference(node, method):
    """The name read by an attribute read (for a method) or a bare read (otherwise), else None."""
    if method:
        return node.attr if isinstance(node, ast.Attribute) else None
    return node.id if isinstance(node, ast.Name) else None


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Non-dunder functions, methods and classes whose name nothing else in the sources reads.

    `sources` maps each module's name to its text.  A function or class
    outside a class body counts as referenced only through an import of
    it from its module (`from .m import name`), an attribute read on its
    module (`m.name`), or a bare read of its name in its own module
    outside its own definition; so recursion alone does not keep it, and
    neither does a method, attribute or variable of the same spelling
    elsewhere.  A method counts only through attribute reads (`x.name`):
    a parameter or local variable of the same spelling does not keep it.
    Method names are matched as strings, so a method that shares its name
    with any attribute read in the package (`seen.add`, ...) counts as
    referenced and is not caught.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    # (module, name) for each import, module attribute read and bare read
    qualified, attribute_reads = Counter(), Counter()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                qualified.update((node.module.split(".")[-1], alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attribute_reads[node.attr] += 1
                if isinstance(node.value, ast.Name):
                    qualified[node.value.id, node.attr] += 1
            elif isinstance(node, ast.Name):
                qualified[module, node.id] += 1
    found = set()
    for module, tree in trees.items():
        nodes = list(ast.walk(tree))
        methods = {
            id(item)
            for node in nodes
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            method = id(node) in methods
            own = sum(_reference(inner, method) == name for inner in ast.walk(node))
            if (attribute_reads[name] if method else qualified[module, name]) == own:
                found.add(name)
    return sorted(found)


def test_unreferenced_definitions_detector():
    source = (
        "class Used:\n"
        "    def helper(self):\n"
        "        return self.helper()\n"
        "    def add(self, x):\n"
        "        return x\n"
        "    def size(self):\n"
        "        return 0\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def orphan():\n"
        "    return Used()\n"
        "def fact(n):\n"
        "    return 1 if n < 2 else n * fact(n - 1)\n"
        "def measure(size):\n"
        "    return size\n"
        "seen = set()\n"
        "seen.add(orphan)\n"
        "seen.add(measure)\n"
    )
    # the parameter `size` of `measure` does not keep the method `size`
    assert unreferenced_definitions({"m": source}) == ["fact", "helper", "size"]


def test_module_level_definitions_detector():
    sources = {
        "alpha": (
            "def shared():\n"
            "    return 0\n"
            "def by_attribute():\n"
            "    return 1\n"
            "def local():\n"
            "    return 2\n"
            "VALUE = local()\n"
            "def divides(q, p):\n"
            "    return True\n"
            "def stray():\n"
            "    return 3\n"
        ),
        "beta": (
            "from .alpha import shared\n"
            "from . import alpha\n"
            "class Poly:\n"
            "    def divides(self, other):\n"
            "        return True\n"
            "def check(p, report, stray):\n"
            "    return p.divides(p) and report.divides and alpha.by_attribute() and shared() and stray\n"
            "RESULT = check(Poly(), None, 0)\n"
        ),
    }
    # kept: an import (shared), a module attribute (by_attribute), a bare read in
    # the own module (local, check, Poly), attribute reads for a method (Poly.divides);
    # alpha's `divides` is not kept by the method, nor `stray` by beta's parameter
    assert unreferenced_definitions(sources) == ["divides", "stray"]


def test_every_definition_has_a_caller_in_the_package():
    # an allowlisted name that gained a caller leaves the list
    assert unreferenced_definitions({path.stem: path.read_text() for path in SOURCES}) == sorted(UNREFERENCED_ALLOWED)


def test_exactalg_imports_nothing_from_the_package():
    # the leaf of exact algorithms: every other module may import it without a cycle
    tree = ast.parse((Path(delsarte.__file__).parent / "exactalg.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [
        "." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ]
    assert modules and not [m for m in modules if m.startswith(".") or m.split(".")[0] == "delsarte"]


def enclosing_functions(tree) -> dict[int, str]:
    """id of each node inside a function -> the name of the innermost such function."""
    owner = {}
    for node in ast.walk(tree):  # breadth first, so an inner function overwrites its outer one
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(inner), node.name) for inner in ast.walk(node))
    return owner


def int_conversions(source: str) -> list[str]:
    """The innermost function around each `int(...)` call and each `map(int, ...)`, sorted.

    A call outside every function counts as `<module>`.
    """
    tree = ast.parse(source)
    owner = enclosing_functions(tree)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        first = node.args[0] if node.args else None
        if node.func.id == "int" or (node.func.id == "map" and isinstance(first, ast.Name) and first.id == "int"):
            found.append(owner.get(id(node), "<module>"))
    return sorted(found)


def test_int_conversions_detector():
    source = (
        "LIMIT = int('7')\n"
        "def outer(rows):\n"
        "    def inner(x):\n"
        "        return int(x)\n"
        "    return [tuple(map(int, row)) for row in rows], map(str, rows), rng.randint(0, 1)\n"
    )
    assert int_conversions(source) == ["<module>", "inner", "outer"]


def test_library_input_is_not_truncated_to_int():
    # int(4.7) is 4 and int(True) is 1; entries are refused unless type(x) is int
    found = {path.stem: names for path in SOURCES if (names := int_conversions(path.read_text()))}
    assert found == {}


def environment_reads(source: str) -> list[str]:
    """The innermost function around each `os.environ` or `os.getenv` read, sorted.

    `environ` or `getenv` imported from `os` counts as `<import>`, a read
    outside every function as `<module>`.
    """
    tree = ast.parse(source)
    owner = enclosing_functions(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += ["<import>" for alias in node.names if alias.name in ("environ", "getenv")]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            found.append(owner.get(id(node), "<module>"))
    return sorted(found)


def test_environment_reads_detector():
    source = (
        "import os\n"
        "from os import getenv as env, path\n"
        "LIMIT = os.environ.get('LIMIT')\n"
        "def outer():\n"
        "    def inner():\n"
        "        return os.getenv('X'), os.path.sep, env\n"
        "    return os.environ['Y'], os.sep\n"
    )
    assert environment_reads(source) == ["<import>", "<module>", "inner", "outer"]


def test_no_module_reads_the_environment():
    # every bound is a module constant, so a run's results depend on its arguments alone
    found = {path.stem: names for path in SOURCES if (names := environment_reads(path.read_text()))}
    assert found == {}


def value_error_classes(source: str) -> list[str]:
    """Classes that derive from ValueError, directly or through another class of the source, sorted."""
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    found = {"ValueError"}
    for _ in classes:  # each pass adds one more level of derivation
        found |= {
            node.name
            for node in classes
            if any(getattr(base, "id", getattr(base, "attr", None)) in found for base in node.bases)
        }
    return sorted(found - {"ValueError"})


def test_value_error_classes_detector():
    source = (
        "import builtins\n"
        "class Refused(ValueError):\n"
        "    pass\n"
        "class Singular(Refused):\n"
        "    pass\n"
        "class Builtin(builtins.ValueError):\n"
        "    pass\n"
        "class Inexact(ArithmeticError):\n"
        "    pass\n"
        "class Record(tuple):\n"
        "    pass\n"
    )
    assert value_error_classes(source) == ["Builtin", "Refused", "Singular"]


def test_refused_input_is_a_plain_value_error():
    # callers catch ValueError and never a subclass; ArithmeticError subclasses report internal failures
    found = {path.stem: names for path in SOURCES if (names := value_error_classes(path.read_text()))}
    assert found == {}


def raised_classes(source: str) -> list[str]:
    """The class named by each `raise` of a name or a call of one, sorted; a bare `raise` names none."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                found.append(getattr(exc, "id", getattr(exc, "attr", None)))
    return sorted(found)


def test_raised_classes_detector():
    source = (
        "import builtins\n"
        "def f(key, table):\n"
        "    if key not in table:\n"
        "        raise KeyError(key)\n"
        "    try:\n"
        "        return table[key]\n"
        "    except TypeError:\n"
        "        raise\n"
        "    raise builtins.ValueError\n"
    )
    assert raised_classes(source) == ["KeyError", "ValueError"]


def test_an_unknown_name_is_refused_with_a_value_error():
    # an unknown family or polynomial name is refused input like any other
    found = {path.stem: names for path in SOURCES if "KeyError" in (names := raised_classes(path.read_text()))}
    assert found == {}


def broad_handlers(source: str) -> list[str]:
    """The innermost function around each bare `except:` and each handler of `Exception` or `BaseException`, sorted.

    A handler names its class by a bare name, a module attribute
    (`builtins.Exception`) or a tuple of either; one outside every
    function counts as `<module>`.
    """
    tree = ast.parse(source)
    owner = enclosing_functions(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {getattr(c, "id", getattr(c, "attr", None)) for c in caught}
        if node.type is None or names & {"Exception", "BaseException"}:
            found.append(owner.get(id(node), "<module>"))
    return sorted(found)


def test_broad_handlers_detector():
    source = (
        "import builtins\n"
        "try:\n"
        "    import fast\n"
        "except ImportError:\n"
        "    fast = None\n"
        "def outer(rows):\n"
        "    def inner(row):\n"
        "        try:\n"
        "            return int(row)\n"
        "        except (ValueError, builtins.Exception):\n"
        "            return None\n"
        "    try:\n"
        "        return [inner(r) for r in rows]\n"
        "    except:\n"
        "        raise\n"
        "try:\n"
        "    outer([])\n"
        "except BaseException as exc:\n"
        "    print(exc)\n"
        "except ValueError:\n"
        "    pass\n"
    )
    assert broad_handlers(source) == ["<module>", "inner", "outer"]


def test_no_handler_catches_everything():
    # each refusal is a ValueError that cli.main alone turns into a message; a broad handler would hide a defect too
    found = {path.stem: names for path in SOURCES if (names := broad_handlers(path.read_text()))}
    assert found == {}
