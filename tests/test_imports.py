"""Every imported name is used, in the package modules and in the tests,
and every function, class and method the package defines is used by the
package itself or exported. No linter is configured for this repository,
so `ast` walks check both. The package's __init__.py is left out of the
first check: its imports are its exports.
One function, harness.trained_cells, calls optimizer.train, so every
training command trains its cells the same way.
The package needs numpy only: scipy stays out of its imports and out of
the process, because importing scipy.stats alone takes about a second."""

import ast
import os
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = [path for path in sorted((ROOT / "src" / "logitbench").glob("*.py"))
           if path.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names an import statement binds in `source` that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    sample = "import os.path\nimport numpy as np\nfrom a import b, c\nnp.zeros(c)\n"
    assert unused_imports(sample) == ["os", "b"]
    assert len(MODULES) > 20
    unused = {path.name: names for path in MODULES
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def definitions(tree: ast.Module) -> list[ast.AST]:
    """The top-level functions and classes of a module and the methods of
    its classes, dunder methods left out: Python calls those itself."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found += [item for item in node.body if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return found


def unreferenced(sources: dict[str, str], exported: set[str]) -> list[str]:
    """"module.name" of every definition in `sources` (module name -> source)
    that is not in `exported` and that no code reads by name or as an
    attribute, apart from the code inside the definition itself."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
             for module, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))]
    return [f"{module}.{node.name}" for module, tree in trees.items()
            for node in definitions(tree)
            if node.name not in exported
            and not any(name == node.name and not (where == module and
                                                   node.lineno <= line <= node.end_lineno)
                        for where, line, name in reads)]


def test_every_package_definition_is_used_or_exported():
    sample = {"a": "def used():\n    return 1\n\n\ndef alone():\n    return alone\n\n\n"
                   "class K:\n    def __eq__(self, other):\n        return True\n\n"
                   "    def get(self):\n        return used()\n",
              "b": "from .a import K\nK().get\n"}
    assert unreferenced(sample, set()) == ["a.alone"]
    assert unreferenced(sample, {"alone"}) == []
    package = ROOT / "src" / "logitbench"
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"].values()
    entry_points = {target.rpartition(":")[2] for target in scripts}
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert len(sources) > 10 and entry_points == {"main"}
    assert unreferenced(sources, exported | entry_points) == []


def train_callers(sources: dict[str, str]) -> list[str]:
    """"module.name" of every function or method in `sources` (module name
    -> source) that calls optimizer.train: by a name `from .optimizer
    import` binds to it, as an attribute of a module named optimizer, or,
    in optimizer itself, by its own name."""
    callers = []
    for module, source in sources.items():
        tree = ast.parse(source)
        names = {"train"} if module == "optimizer" else set()
        names |= {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "optimizer"
                  for alias in node.names if alias.name == "train"}
        for node in definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            calls = [call.func for call in ast.walk(node) if isinstance(call, ast.Call)]
            if any(isinstance(f, ast.Name) and f.id in names
                   or isinstance(f, ast.Attribute) and f.attr == "train"
                   and isinstance(f.value, ast.Name) and f.value.id == "optimizer"
                   for f in calls):
                callers.append(f"{module}.{node.name}")
    return callers


def identifiers(source: str) -> set[str]:
    """Every name `source` defines, imports, binds or reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.arg):
            found.add(node.arg)
    return found


def test_one_function_trains_a_cell():
    sample = {"a": "from .optimizer import train as fit\ndef f():\n    return fit()\n\n\n"
                   "def g():\n    return train()\n",
              "b": "from . import optimizer\n\n\nclass K:\n    def m(self):\n"
                   "        return optimizer.train()\n",
              "optimizer": "def train():\n    return 1\n\n\ndef again():\n    return train()\n"}
    assert train_callers(sample) == ["a.f", "b.m", "optimizer.again"]
    assert {"fit", "train", "f"} <= identifiers(sample["a"])
    package = sorted((ROOT / "src" / "logitbench").glob("*.py"))
    assert len(package) > 10
    assert train_callers({path.stem: path.read_text() for path in package}) == [
        "harness.trained_cells"]
    assert [path.name for path in package + MODULES
            if "train_cell" in identifiers(path.read_text())] == []


def imported_modules(source: str) -> set[str]:
    """The top-level package of every module an import statement names."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_package_module_imports_scipy():
    assert imported_modules("import scipy.stats\nfrom numpy import linalg\nfrom . import x\n") \
        == {"scipy", "numpy"}
    package = sorted((ROOT / "src" / "logitbench").glob("*.py"))
    assert len(package) > 10
    assert {path.name for path in package if "scipy" in imported_modules(path.read_text())} \
        == set()


def test_cli_start_loads_no_scipy():
    script = (
        "import sys\n"
        "import logitbench, logitbench.cli\n"
        "from logitbench import harness\n"
        "parser = logitbench.cli.build_parser()\n"
        "parser.parse_args(['eval', '--scores', 'dump.txt'])\n"
        "parser.parse_args(['report', '--scores', 'dump.txt', '--bins', '50'])\n"
        "parser.parse_args(['bench', '--config', 'configs/desk.json', '--seed', '0'])\n"
        "harness.load_config('configs/desk.json')\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, cwd=ROOT)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")
