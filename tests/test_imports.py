"""Every imported name is used, in the package modules and in the tests,
and every function, class and method the package defines is used by the
package itself or exported. No linter is configured for this repository,
so `ast` walks check both. The package's __init__.py is left out of the
first check: its imports are its exports.
One function, harness.trained_cells, calls optimizer.train, so every
training command trains its cells the same way. It lists the diverged cells
itself, and run_experiment returns only the rows of bench.csv. Only the SGD
step and the block loop call model._forward, so every evaluation runs in
blocks, and only the block loop checks a forward's width and logits. Only SeedData's two on-demand realisers call data.gen_ood, so no
command generates an OOD set it does not read.
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


def call_sites(sources: dict[str, str], module: str, name: str) -> list[str]:
    """"module.function" of every call in `sources` (module name -> source) of
    `name` defined in `module`, made inside a function or method: by a name
    `from .<module> import` binds to it, as an attribute of a module named
    `module`, or, in `module` itself, by its own name. One entry per call."""
    sites = []
    for source_module, source in sources.items():
        tree = ast.parse(source)
        names = {name} if source_module == module else set()
        names |= {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == module
                  for alias in node.names if alias.name == name}
        for node in definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            calls = [call.func for call in ast.walk(node) if isinstance(call, ast.Call)]
            sites += [f"{source_module}.{node.name}" for f in calls
                      if isinstance(f, ast.Name) and f.id in names
                      or isinstance(f, ast.Attribute) and f.attr == name
                      and isinstance(f.value, ast.Name) and f.value.id == module]
    return sites


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
    assert call_sites(sample, "optimizer", "train") == ["a.f", "b.m", "optimizer.again"]
    assert {"fit", "train", "f"} <= identifiers(sample["a"])
    package = sorted((ROOT / "src" / "logitbench").glob("*.py"))
    assert len(package) > 10
    assert call_sites({path.stem: path.read_text() for path in package},
                      "optimizer", "train") == ["harness.trained_cells"]
    assert [path.name for path in package + MODULES
            if "train_cell" in identifiers(path.read_text())] == []


def test_only_the_sgd_step_and_the_block_loop_forward_a_whole_array():
    # An evaluation that called model._forward itself could run a whole set
    # through one product; it goes through model.forward_blocks instead.
    sample = {"model": "def _forward():\n    return 1\n\n\ndef loop():\n"
                       "    return _forward() + _forward()\n",
              "c": "from .model import _forward as fw\n\n\ndef g():\n    return fw()\n"}
    assert call_sites(sample, "model", "_forward") == ["model.loop", "model.loop", "c.g"]
    package = sorted((ROOT / "src" / "logitbench").glob("*.py"))
    sources = {path.stem: path.read_text() for path in package}
    assert len(sources) > 10
    assert sorted(call_sites(sources, "model", "_forward")) == [
        "model.forward_blocks", "optimizer.train"]
    assert sorted(module for module, source in sources.items()
                  if "_forward" in identifiers(source)) == ["model", "optimizer"]


def finiteness_checks(source: str, name: str) -> list[str]:
    """The name of the function or method that makes each `np.isfinite(<name>)`
    call in `source`, one entry per call."""
    sites = []
    for node in definitions(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            sites += [node.name for call in ast.walk(node) if isinstance(call, ast.Call)
                      and ast.unparse(call.func) == "np.isfinite"
                      and [ast.unparse(arg) for arg in call.args] == [name]]
    return sites


def test_one_block_loop_checks_the_logits():
    # Every evaluation's width and finite-logit checks live in model.forward_blocks:
    # forward, score_batch and the epoch-end pass keep only their reductions, and
    # ODIN's perturbed block is one more forward_blocks block, not a Matrix2D sent
    # through forward. metrics.fit_temperature checks the logits its caller hands
    # it, as every metric entry point checks its input.
    sample = "def f(logits):\n    return np.isfinite(logits).all() and np.isfinite(x)\n"
    assert finiteness_checks(sample, "logits") == ["f"]
    package = sorted((ROOT / "src" / "logitbench").glob("*.py"))
    sources = {path.stem: path.read_text() for path in package}
    assert len(sources) > 10
    assert sorted(f"{module}.{site}" for module, source in sources.items()
                  for site in finiteness_checks(source, "logits")) == [
        "metrics.fit_temperature", "model.forward_blocks"]
    assert [module for module, source in sources.items()
            if "check_width" in identifiers(source)] == []
    assert [site for site in call_sites(sources, "model", "forward")
            if site.startswith("scores.")] == []
    assert [site for site in call_sites(sources, "tensor", "Matrix2D")
            if site.startswith("scores.")] == []
    assert sorted(call_sites(sources, "model", "forward_blocks")) == [
        "model.forward", "optimizer._epoch_end", "scores._block_scores",
        "scores.score_batch"]


def row_max_subtractions(source: str) -> list[str]:
    """The name of each function or method in `source` that takes a row max
    (`.max`, `np.max`, `np.amax` or `np.maximum.reduce` with axis 1 or -1) and
    subtracts something."""
    sites = []
    for node in definitions(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef):
            continue
        row_max = any(isinstance(call, ast.Call)
                      and ast.unparse(call.func).endswith((".max", ".amax", "maximum.reduce"))
                      and any(kw.arg == "axis" and ast.unparse(kw.value) in ("1", "-1")
                              for kw in call.keywords)
                      for call in ast.walk(node))
        if row_max and any(isinstance(op, ast.BinOp) and isinstance(op.op, ast.Sub)
                           for op in ast.walk(node)):
            sites.append(node.name)
    return sites


def test_one_stable_softmax_pass_and_one_row_norm():
    # The shift, exp and sum of a stable softmax are written once, in
    # tensor.softmax_stats; log_softmax, max_softmax and Energy read it. Every
    # row norm is tensor.row_l2_norm, the kernels of np.linalg.norm without
    # its wrapper, so the package names no np.linalg function.
    sample = ("def energy(f):\n    m = f.max(axis=1)\n    return m + (f - m[:, None])\n\n\n"
              "def peak(v):\n    return v.max() - v.min()\n\n\n"
              "def stats(a):\n    return a - np.maximum.reduce(a, axis=1, keepdims=True)\n")
    assert row_max_subtractions(sample) == ["energy", "stats"]
    package = sorted((ROOT / "src" / "logitbench").glob("*.py"))
    sources = {path.stem: path.read_text() for path in package}
    assert len(sources) > 10
    assert [module for module, source in sources.items() if "linalg" in source] == []
    assert sorted(f"{module}.{site}" for module, source in sources.items()
                  for site in row_max_subtractions(source)) == ["tensor.softmax_stats"]
    assert [node.name for node in definitions(ast.parse(sources["tensor"]))
            if any(isinstance(call, ast.Call) and ast.unparse(call.func) == "np.exp"
                   for call in ast.walk(node))] == ["softmax_stats"]
    assert sorted(call_sites(sources, "tensor", "softmax_stats")) == [
        "scores._block_scores", "tensor.log_softmax", "tensor.max_softmax"]


def test_only_seed_data_generates_ood_sets():
    # A command that generated the OOD sets up front would hold sets it may
    # never read; SeedData generates each set where a command reads it.
    package = sorted((ROOT / "src" / "logitbench").glob("*.py"))
    sources = {path.stem: path.read_text() for path in package}
    assert len(sources) > 10
    assert sorted(call_sites(sources, "data", "gen_ood")) == [
        "harness.ood_sets", "harness.validation_ood"]
    seed_data, = [node for node in ast.parse(sources["harness"]).body
                  if isinstance(node, ast.ClassDef) and node.name == "SeedData"]
    assert {node.name for node in seed_data.body if isinstance(node, ast.FunctionDef)} == {
        "ood_sets", "validation_ood"}


def test_runs_return_what_their_callers_read():
    # run_experiment returns the rows of bench.csv; everything else a run
    # makes is in its output directory, and trained_cells keeps its own list
    # of diverged cells for warnings.txt.
    package = sorted((ROOT / "src" / "logitbench").glob("*.py"))
    defined = {node.name: node for path in package
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"ExperimentResult", "_record_warnings"} & set(defined)
    assert ast.unparse(defined["run_experiment"].returns) == "list[BenchmarkRow]"
    args = defined["trained_cells"].args
    assert "warnings" not in [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]


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
