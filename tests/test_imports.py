"""Static checks on the package's imports, made with ``ast`` alone.

Every name a module under ``src/amzv`` imports (``__init__`` excepted, whose
imports are its exports) must be used in that module, and the algebra
modules must not import the fault switches: the negative controls install
their corruptions from outside.  The memo registry belongs to ``ff.py``:
every other module caches through ``ff.memoized`` and never reads
``_memos`` or calls a ``.memo(...)`` method itself.  The format of the
field tables belongs there too: other modules use ``idx_ops``, ``elements``,
``units``, ``log`` and ``unit_from_exp``, never ``FieldSpec``'s private
tables.  In ``verify.py`` only ``CheckReport.expect`` counts instances and
records failures.  The algebra modules and the harness work on
``Element.idx``, the field-index coefficients, and never read the
``FieldElem`` view ``.terms``.  The package has no runtime dependencies:
every module it imports is in the standard library or is ``amzv`` itself.
A one-shot CLI request pays for compiling every module it loads, so no
module that ``import amzv.cli`` loads imports ``dataclasses``, or imports
``zeta`` or ``verify`` when it is itself imported; the subcommands that
need them import them.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "amzv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FAULT_FREE = ("products.py", "coalgebra.py")
NOT_FF = sorted(p for p in SRC.glob("*.py") if p.name != "ff.py")
FIELD_TABLES = {"_add", "_mul", "_neg", "_inv", "_log"}
INDEX_CODED = ("products.py", "coalgebra.py", "verify.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """(bound name, module imported from) for each import in the module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out.append((a.asname or a.name.split(".")[0], a.name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out.append((a.asname or a.name, f"{'.' * node.level}{node.module or ''}"))
    return out


def _annotations(tree):
    for n in ast.walk(tree):
        if isinstance(n, ast.arg):
            yield n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield n.returns
        elif isinstance(n, ast.AnnAssign):
            yield n.annotation


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used(tree):
    names = _names(tree)
    # names inside quoted annotations such as "Element"
    for ann in filter(None, _annotations(tree)):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                names |= _names(ast.parse(n.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used(tree)
    unused = sorted(name for name, _ in _imported(tree) if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_standard_library_or_amzv(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            tops = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            tops = [node.module.split(".")[0]]
        else:
            continue
        bad += [f"line {node.lineno}: {top}" for top in tops
                if top != "amzv" and top not in sys.stdlib_module_names]
    assert not bad, f"{path.name} imports outside the standard library: {bad}"


@pytest.mark.parametrize("name", FAULT_FREE)
def test_algebra_modules_do_not_import_faults(name):
    for bound, source in _imported(_tree(SRC / name)):
        assert "faults" not in (bound, *source.strip(".").split(".")), (
            f"{name} imports {bound} from {source or 'the top level'}"
        )


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "ff.py"),
                         ids=lambda p: p.name)
def test_only_ff_touches_the_memo_registry(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute) and node.attr == "_memos":
            bad.append(f"line {node.lineno}: ._memos")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "memo"):
            bad.append(f"line {node.lineno}: .memo(...)")
    assert not bad, f"{path.name} bypasses ff.memoized: {bad}"


@pytest.mark.parametrize("path", NOT_FF, ids=lambda p: p.name)
def test_only_ff_reads_the_field_tables(path):
    bad = [f"line {node.lineno}: .{node.attr}" for node in ast.walk(_tree(path))
           if isinstance(node, ast.Attribute) and node.attr in FIELD_TABLES]
    assert not bad, f"{path.name} reads FieldSpec's private tables: {bad}"


def _bookkeeping(node, scope=()):
    """(enclosing function or class path, line) of every store to an
    ``.instances`` or ``.failures`` attribute and every method call on a
    ``.failures`` attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _bookkeeping(child, scope + (child.name,))
            continue
        if (isinstance(child, ast.Attribute) and child.attr in ("instances", "failures")
                and isinstance(child.ctx, ast.Store)):
            yield ".".join(scope), child.lineno
        elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
              and isinstance(child.func.value, ast.Attribute)
              and child.func.value.attr == "failures"):
            yield ".".join(scope), child.lineno
        yield from _bookkeeping(child, scope)


def test_only_expect_counts_instances_and_records_failures():
    found = list(_bookkeeping(_tree(SRC / "verify.py")))
    assert {scope for scope, _ in found} == {"CheckReport.expect"}, (
        f"verify.py counts or records outside CheckReport.expect: "
        f"{[f'{scope} line {line}' for scope, line in found if scope != 'CheckReport.expect']}"
    )


@pytest.mark.parametrize("name", INDEX_CODED)
def test_algebra_modules_use_index_coefficients(name):
    bad = [f"line {node.lineno}" for node in ast.walk(_tree(SRC / name))
           if isinstance(node, ast.Attribute) and node.attr == "terms"]
    assert not bad, f"{name} reads the FieldElem view .terms: {bad}"


def _import_time_nodes(tree):
    """Every node that runs when the module is imported: all but the bodies
    of functions."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _amzv_modules(node):
    """The ``amzv`` modules (file stems) that an import statement loads."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".") for a in node.names]
        return [parts[1] for parts in names if parts[0] == "amzv" and len(parts) > 1]
    if not isinstance(node, ast.ImportFrom) or not (node.level or node.module.startswith("amzv")):
        return []
    parts = (node.module or "").split(".")
    if not node.level:
        parts = parts[1:]
    if parts and parts[0]:
        return [parts[0]]
    return [a.name for a in node.names if (SRC / f"{a.name}.py").exists()]


def _loaded_by_cli():
    """The modules that ``import amzv.cli`` loads, the package included."""
    seen, todo = set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in _import_time_nodes(_tree(SRC / f"{name}.py")):
                todo += _amzv_modules(node)
    return seen


def test_cli_loads_the_word_algebra_only():
    assert _loaded_by_cli() == {"__init__", "cli", "ff", "words", "products", "coalgebra"}


@pytest.mark.parametrize("name", sorted(_loaded_by_cli()))
def test_cli_modules_import_no_dataclasses_and_defer_zeta_and_verify(name):
    tree = _tree(SRC / f"{name}.py")
    bad = sorted({source for _bound, source in _imported(tree)
                  if source.split(".")[0] == "dataclasses"})
    bad += [f"line {node.lineno}: {mod}" for node in _import_time_nodes(tree)
            for mod in _amzv_modules(node) if mod in ("zeta", "verify")]
    assert not bad, f"{name}.py is loaded by amzv.cli and imports {bad}"
