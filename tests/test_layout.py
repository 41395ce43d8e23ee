"""Layout of the package: src/ holds no code that only tests call.

Every module-level function and class of src/bittune must be referenced
from the code that ships or measures it: src/bittune, scripts/ or
perfbench/, and the header codegen writes into every mp script, which
imports the script runtime.  A reference is an import of the name, an
attribute module.name, a use of the name in its own module outside its
own definition, or a (module, name) pair in perfbench/tracing.py, which
patches the names it traces.  Code that only tests call belongs in
tests/helpers.py.

No module of src/bittune or scripts/ imports or reads another package
module's leading-underscore name: what one module needs of another is
public.  perfbench/ is exempt, since it patches private names from
outside to time them.  A package module imports only names it uses: an
import kept only so that a tool patching the name finds it hides what
the module calls.

The package ships code only: src/bittune holds nothing but .py files,
and pyproject.toml declares no package data.  Every exception class of
the package is raised by the package, so none survives only as an
except clause or an entry in a tuple of caught errors.

Importing the package builds no class from generated code and loads no
process pool: every bittune command pays for its imports before it
starts work.
"""

import ast
import builtins
import os
import subprocess
import sys
import tomllib
from pathlib import Path

from bittune import codegen

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bittune"


def _trees(*dirs):
    """(path, parsed tree) of every Python file under dirs."""
    return [(path, ast.parse(path.read_text(), str(path)))
            for d in dirs for path in sorted(d.rglob("*.py"))]


def _definitions(trees):
    """(module, name) -> the definition node, for every module-level
    function and class of the package."""
    return {(path.stem, node.name): node
            for path, tree in trees if path.parent == PACKAGE
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}


def _references(trees, modules, definitions):
    """The (module, name) pairs the trees reference."""
    found = set()
    for path, tree in trees:
        own = path.stem if path.parent == PACKAGE else None
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                found.update((module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute):
                value = node.value
                owner = (value.id if isinstance(value, ast.Name)
                         else value.attr if isinstance(value, ast.Attribute)
                         else None)
                if owner in modules:
                    found.add((owner, node.attr))
            elif isinstance(node, ast.Name) and own is not None:
                target = definitions.get((own, node.id))
                if target is not None and not (
                        target.lineno <= node.lineno <= target.end_lineno):
                    found.add((own, node.id))
            elif (isinstance(node, ast.Tuple) and path.name == "tracing.py"
                  and len(node.elts) >= 2
                  and all(isinstance(e, ast.Constant)
                          and isinstance(e.value, str)
                          for e in node.elts[:2])):
                found.add((node.elts[0].value, node.elts[1].value))
    return found


def test_every_package_function_and_class_is_used_outside_tests():
    trees = _trees(PACKAGE, ROOT / "scripts", ROOT / "perfbench")
    trees.append((Path("mp script header"), ast.parse(codegen._header())))
    definitions = _definitions(trees)
    modules = {module for module, _ in definitions}
    used = _references(trees, modules, definitions)
    unused = sorted(f"{module}.{name}" for module, name in definitions
                    if (module, name) not in used)
    assert unused == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    trees = _trees(PACKAGE, ROOT / "scripts")
    modules = {path.stem for path, _ in _trees(PACKAGE)}
    found = []
    for path, tree in trees:
        own = path.stem if path.parent == PACKAGE else None
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rpartition(".")[2]
                if module in modules and module != own:
                    found += [f"{path.name}: from {module} import {a.name}"
                              for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and _private(node.attr)
                  and isinstance(node.value, (ast.Name, ast.Attribute))):
                value = node.value
                owner = value.id if isinstance(value, ast.Name) else value.attr
                if owner in modules and owner != own:
                    found.append(f"{path.name}:{node.lineno}: "
                                 f"{owner}.{node.attr}")
    assert found == []


def test_every_package_import_is_used():
    unused = []
    for path, tree in _trees(PACKAGE):
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(((a.asname or a.name).partition(".")[0],
                                 node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def test_package_holds_only_python_files():
    other = sorted(str(path.relative_to(PACKAGE))
                   for path in PACKAGE.rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts
                   and path.suffix != ".py")
    assert other == []
    with open(ROOT / "pyproject.toml", "rb") as fh:
        setuptools = tomllib.load(fh).get("tool", {}).get("setuptools", {})
    assert "package-data" not in setuptools


def _is_exception(base, classes):
    """Whether the base expression names an exception class: a builtin
    one, or one of classes (name -> its ClassDef) that is."""
    if not isinstance(base, ast.Name):
        return False
    if base.id in classes:
        return any(_is_exception(b, classes) for b in classes[base.id].bases)
    found = getattr(builtins, base.id, None)
    return isinstance(found, type) and issubclass(found, BaseException)


def test_every_package_exception_is_constructed_in_the_package():
    trees = _trees(PACKAGE)
    classes = {node.name: node for _, tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)}
    errors = {name for name, node in classes.items()
              if any(_is_exception(b, classes) for b in node.bases)}
    built = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            target = (node.func if isinstance(node, ast.Call)
                      else node.exc if isinstance(node, ast.Raise) else None)
            if isinstance(target, ast.Name):
                built.add(target.id)
            elif isinstance(target, ast.Attribute):
                built.add(target.attr)
    assert errors and sorted(errors - built) == []


def _decorator_name(node):
    """The name a decorator expression calls or applies, if it is one."""
    if isinstance(node, ast.Call):
        node = node.func
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)


def test_only_the_body_specs_are_dataclasses():
    # A dataclass execs its generated __init__, __repr__ and __eq__ when
    # its module is imported; the package uses slot classes and
    # NamedTuples instead.  BodySpec and BenchConstants stay dataclasses
    # because the benchmark (perfbench/workloads.py) varies the bodies
    # through dataclasses.replace.
    found = sorted(f"{path.stem}.{node.name}" for path, tree in _trees(PACKAGE)
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and any(_decorator_name(d) == "dataclass"
                           for d in node.decorator_list))
    assert found == ["nbody.BenchConstants", "nbody.BodySpec"]


def test_importing_the_cli_loads_no_process_pool():
    # Only bench --jobs N with N > 1 runs a process pool.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bittune.cli; print(sorted("
         "m for m in ('multiprocessing', 'concurrent.futures') "
         "if m in sys.modules))"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
