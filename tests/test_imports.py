"""Every imported name is used, in the package modules and in the tests.
No linter is configured for this repository, so an `ast` walk checks it.
The package's __init__.py is left out: its imports are its exports.
The package needs numpy only: scipy stays out of its imports and out of
the process, because importing scipy.stats alone takes about a second."""

import ast
import os
import subprocess
import sys
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
