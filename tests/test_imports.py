"""Every imported name is used, in the package modules and in the tests.
No linter is configured for this repository, so an `ast` walk checks it.
The package's __init__.py is left out: its imports are its exports."""

import ast
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
