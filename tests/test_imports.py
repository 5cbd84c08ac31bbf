"""Every name a module under src/ imports is used by that module and
none is private to another module of the package, importing the CLI
loads no scipy, validating a scenario loads no jsonschema, the core
layers import nothing from the three-wave layer or the CLI, every
parameter of a function outside a class is read, but for a listed few, and
the package exports every metric class.

No linter is installed, so this parses each module with ast. A name
counts as used when it is read anywhere in the module, including as the
root of an attribute chain, or when the module lists it in ``__all__``.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree):
    """(name bound in the module, line) for every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(elt) for elt in node.value.elts}
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_finds_an_unused_import():
    src = "import math\nimport os\nfrom json import dumps, loads\n__all__ = ['loads']\nos.sep\n"
    assert unused_imports(src) == [("math", 1), ("dumps", 3)]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source):
    """(function, parameter) for each parameter of a function outside a class
    that its body never reads, a nested function's body included."""
    tree = ast.parse(source)
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in ast.walk(cls)}
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or id(fn) in methods:
            continue
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        args = fn.args
        for arg in [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]:
            if arg is not None and arg.arg not in read:
                yield fn.name, arg.arg


# parameters nothing reads, each kept for its callers: (module, function, parameter) -> why
UNREAD_ALLOWED = {
    **{("cli.py", runner, param): "RUNNERS calls every runner with one signature"
       for runner, params in (("run_geodesic", ("out_dir", "strict")),
                              ("run_transport", ("out_dir", "strict")),
                              ("run_broken", ("strict",)),
                              ("run_interaction", ("out_dir", "strict")))
       for param in params},
    ("transport.py", "parallel_transport", "metric"):
        "bench/ calls it positionally and binds its parameters by name",
    ("reconstruction.py", "verify_theorem", "metric"): "bench/ calls it positionally",
}


def test_finds_an_unread_parameter():
    src = ("def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
           "def g(x):\n    def h(y):\n        return x\n    return h\n"
           "class C:\n    def m(self, z):\n        return 0\n")
    assert list(unread_parameters(src)) == [("f", "b"), ("f", "args"), ("f", "c"), ("h", "y")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unread_parameters(path):
    # an allowed entry that is read again must leave the list
    allowed = {(fn, param) for module, fn, param in UNREAD_ALLOWED if module == path.name}
    assert set(unread_parameters(path.read_text())) == allowed


def test_cli_import_loads_no_scipy():
    # scipy is imported only inside connect_null
    code = ("import sys, lorentz_gauge.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_jsonschema():
    # the scenario schema is interpreted by config itself; jsonschema is a test oracle
    code = ("import sys, copy, lorentz_gauge.cli as cli; "
            "cli.validate_scenario(copy.deepcopy(cli.DEFAULT_SCENARIO)); "
            "print([m for m in sys.modules if m.startswith('jsonschema')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the layers below the three-wave simulation and the command line
CORE = ["geometry", "linalg", "gauge", "transport", "reconstruction"]


def _package_imports(tree):
    """Modules of the package that an import statement names, as bare names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("lorentz_gauge."):
                    yield alias.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 or module.startswith("lorentz_gauge"):
                path = module.removeprefix("lorentz_gauge").strip(".")
                if path:
                    yield path.split(".")[0]
                else:
                    yield from (alias.name for alias in node.names)


def test_finds_package_imports():
    src = ("from .symcalc import x\nfrom . import cli\nimport lorentz_gauge.gauge\n"
           "from lorentz_gauge.linalg import y\nimport numpy\n")
    assert list(_package_imports(ast.parse(src))) == ["symcalc", "cli", "gauge", "linalg"]


@pytest.mark.parametrize("name", CORE)
def test_core_imports_no_symcalc_or_cli(name):
    tree = ast.parse((SRC / "lorentz_gauge" / f"{name}.py").read_text())
    assert not {"symcalc", "cli"} & set(_package_imports(tree))


def _private_package_names(tree):
    """Underscore-prefixed names a module takes from the package: imported
    by name, or read as an attribute of a package module it imports."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                           if alias.name.startswith("lorentz_gauge"))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("lorentz_gauge")):
            yield from (alias.name for alias in node.names if alias.name.startswith("_"))
            if (node.module or "lorentz_gauge") == "lorentz_gauge":
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                yield node.attr


def test_finds_private_package_names():
    src = ("from .transport import _cf4_product, parallel_transport\n"
           "from . import geometry as geo\nimport lorentz_gauge.linalg\n"
           "from numpy import _private\ngeo._march(1)\ngeo.public\nlorentz_gauge.linalg._x\n")
    assert set(_private_package_names(ast.parse(src))) == {"_cf4_product", "_march", "_x"}


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_imports_no_private_name(path):
    # every module is built on the public names of the others
    assert list(_private_package_names(ast.parse(path.read_text()))) == []


def test_package_exports_every_metric_class():
    # every name of __all__ resolves, and each public Metric subclass of geometry is one
    import lorentz_gauge
    from lorentz_gauge import geometry

    assert [name for name in lorentz_gauge.__all__ if not hasattr(lorentz_gauge, name)] == []
    metrics = [name for name, value in vars(geometry).items()
               if isinstance(value, type) and issubclass(value, geometry.Metric)
               and value is not geometry.Metric and not name.startswith("_")]
    assert {"Minkowski", "Cylinder", "WarpedProduct", "TimeWarp"} <= set(metrics)
    for name in metrics:
        assert name in lorentz_gauge.__all__ and getattr(lorentz_gauge, name) is vars(geometry)[name]
