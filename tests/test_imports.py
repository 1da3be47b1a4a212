"""Static checks on the package's imports, made with ``ast`` alone.

Every name a module under ``src/amzv`` imports (``__init__`` excepted, whose
imports are its exports) must be used in that module, and the algebra
modules must not import the fault switches: the negative controls install
their corruptions from outside.  Each fault switch wraps a private function
of the module named beside it in ``faults._WRAPPERS``, which no other module
imports by name, so rebinding it there reaches every caller.  The hot
recursions call the memoized cores, never the validating public wrappers,
and no Element-level product (``shuffle``, ``diamond``, ``triangle``): they
sum word-level products straight into their own dicts.  No word-level core
builds an Element: neither the hot recursions nor the dispatchers
``_shuffle_words``, ``_diamond_words`` and ``_antipode_word`` call
``_element`` or an ``Element`` or ``TensorElement`` constructor, since the
cores trade in index maps and only the public functions wrap them.
The memo registry belongs to ``ff.py``:
every other module caches through ``ff.memoized`` and never reads
``_memos`` or calls a ``.memo(...)`` method itself.  The format of the
field tables belongs there too: other modules use ``idx_ops``, ``elements``,
``units``, ``log`` and ``unit_from_exp``, never ``FieldSpec``'s private
tables.  The two per-field caches kept outside the registry, across
``clear_memos``, have one owner each: ``FieldSpec.__init__`` creates them,
and only ``words.py`` touches ``.letters`` and only ``zeta.py``
``.packings``.  In ``verify.py`` only ``CheckReport.expect`` counts
instances and records failures, and the harness imports nothing of the
chain oracle: its numeric families read the factorized route.  Only
``_basis``, which builds a check's one basis table, and
``check_coproduct_oracle`` call ``Element.from_word`` there: every other
word the harness wraps is looked up in that table.  The algebra
modules and the harness work on ``Element.idx``, the field-index
coefficients, and never read the ``FieldElem`` view ``.terms``.  The enumeration budget is checked where
each route starts: ``zeta._check_budget`` is called only by ``monic_enum``
and ``_check_walk_budget``, which only ``power_sum_lt`` and
``power_sum_lt_element`` call, so each refuses once per read, before any
work, and an element before it walks any word.  The unit-series recurrence
``zeta._unit_inv`` has one copy, called only by the kernel
``_depth1_window`` and the oracle's ``laurent_inv_pow``, and the kernel's
power ``_unit_pow`` is called by the kernel alone, so the differentials
against the oracle check it.  In ``zeta.py``
one function sums series windows, ``_accumulate``: apart from it only the
depth-one kernel, the recurrence and the packed-product decoder
``_run_decoder`` read the add table.  The depth rule ``zeta._lt_top``,
which computes the head's window end and says which S_{<d}(w) are zero, is
called only by the readers of S_{<d}, ``power_sum_lt``,
``power_sum_lt_element`` and the walk ``_lt_word`` for its tails, so none
keeps its own copy of that rule, and the depth-one kernel
``_depth1_window`` only by that walk, whose degrees the rule keeps inside
the window.  That walk
alone reads the table of partial sums that ``_partial_sums`` hands out, an
empty list per word, and writes it only by slice stores, one entry at its
own index, so walks on other threads can only write equal values there.
``ff.memoized`` adds no attribute to the function it caches.  The
package has no runtime dependencies: every module it imports is in the
standard library or is ``amzv`` itself.
Text is read in ASCII digits: no regular-expression literal uses ``\\d``
or ``\\w``, which in a ``str`` pattern match every Unicode digit or letter,
and no module calls ``.isdigit()``, ``.isdecimal()`` or ``.isnumeric()``.
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
# the per-field caches that ``clear_memos`` keeps, and the module that fills each
KEPT_CACHES = {"letters": "words.py", "packings": "zeta.py"}
# the chain-enumeration oracle of ``zeta.py``, which only the tests call
CHAIN_ORACLE = {"power_sum_d", "monic_enum", "laurent_inv_pow", "Poly"}
# the validating public wrappers, and the recursions that call their cores instead
PUBLIC_WRAPPERS = {"delta_coeff", "coproduct_letter", "bracket"}
HOT_RECURSIONS = {
    "_shuffle_step": "products.py",
    "_diamond_step": "products.py",
    "_bracket": "products.py",
    "_coproduct_letter": "coalgebra.py",
    "_coproduct_word": "coalgebra.py",
    "_coproduct_step": "coalgebra.py",
    "_antipode_step": "coalgebra.py",
}
# the Element-level products, which build a product only for a caller to sum it again
ELEMENT_PRODUCTS = {"shuffle", "diamond", "triangle"}
# every word-level core: the hot recursions and the dispatchers in front of them
WORD_LEVEL_CORES = {**HOT_RECURSIONS, "_shuffle_words": "products.py",
                    "_diamond_words": "products.py", "_antipode_word": "coalgebra.py"}
# what builds an Element: the raw constructor, the classes and their class methods
ELEMENT_BUILDERS = {"_element", "Element", "TensorElement"}
# the pattern classes and str methods that take every Unicode digit or letter
UNICODE_CLASSES = (r"\d", r"\w")
UNICODE_DIGIT_TESTS = {"isdigit", "isdecimal", "isnumeric"}


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


def _top_level_functions(path):
    return {node.name: node for node in _tree(path).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _fault_targets():
    """(file of the defining module, function name) of every entry of
    ``faults._WRAPPERS``, read from its source."""
    for node in _tree(SRC / "faults.py").body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_WRAPPERS":
            return sorted({(f"{entry.elts[0].id}.py", entry.elts[1].value)
                           for targets in node.value.values for entry in targets.elts})
    return []


@pytest.mark.parametrize("home,name", _fault_targets())
def test_each_fault_target_is_a_private_function_no_other_module_imports(home, name):
    assert name.startswith("_") and name in _top_level_functions(SRC / home), (
        f"faults._WRAPPERS names {name}, which is no private function of {home}")
    bad = [path.name for path in MODULES if path.name != home
           for node in ast.walk(_tree(path)) if isinstance(node, ast.ImportFrom)
           for a in node.names if a.name == name]
    assert not bad, f"{bad} import {name} by name, so a fault rebinding in {home} misses them"


def test_the_fault_targets_are_the_four_private_cores():
    assert {name for _, name in _fault_targets()} == {
        "_delta", "_coproduct_letter", "_coproduct_word", "_antipode_word"}


def _hot_calls(name, names):
    """The calls of any of ``names`` in the hot recursion ``name``."""
    fn = _top_level_functions(SRC / HOT_RECURSIONS[name])[name]
    return sorted({f"line {node.lineno}: {node.func.id}" for node in ast.walk(fn)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in names})


@pytest.mark.parametrize("name", sorted(HOT_RECURSIONS))
def test_hot_recursions_call_no_validating_wrapper(name):
    bad = _hot_calls(name, PUBLIC_WRAPPERS)
    assert not bad, f"{name} calls a validating wrapper instead of its core: {bad}"


@pytest.mark.parametrize("name", sorted(HOT_RECURSIONS))
def test_hot_recursions_call_no_element_level_product(name):
    # each sums its word-level products straight into its own dict
    bad = _hot_calls(name, ELEMENT_PRODUCTS)
    assert not bad, f"{name} builds an Element-level product only to sum it again: {bad}"


@pytest.mark.parametrize("name", sorted(WORD_LEVEL_CORES))
def test_word_level_cores_build_no_element(name):
    # they return index maps; the public functions wrap them
    fn = _top_level_functions(SRC / WORD_LEVEL_CORES[name])[name]
    bad = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute):
                f = f.value
            if isinstance(f, ast.Name) and f.id in ELEMENT_BUILDERS:
                bad.append(f"line {node.lineno}: {ast.unparse(node.func)}")
    assert not bad, f"{name} builds an Element: {bad}"


def _callers(name):
    """(module, enclosing top-level definition) of every call of ``name``
    in the package."""
    for path in MODULES:
        for top in _tree(path).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    yield path.name, getattr(top, "name", f"line {top.lineno}")


def test_the_harness_wraps_basis_words_in_its_table_alone():
    # each structural check looks its words up in the one table it built;
    # the word oracle wraps its own few trivial-character words
    assert sorted({top for path, top in _callers("from_word") if path == "verify.py"}) == [
        "_basis", "check_coproduct_oracle"]


def test_the_budget_is_checked_where_each_route_starts():
    # monic_enum refuses before it lists a polynomial, power_sum_lt before
    # its walk sums a vector and power_sum_lt_element before it walks any
    # word, the last two through one helper; a check further down would
    # refuse after the work, or again on every tail the walk reads
    assert sorted(set(_callers("_check_budget"))) == [
        ("zeta.py", "_check_walk_budget"), ("zeta.py", "monic_enum")]
    assert sorted(set(_callers("_check_walk_budget"))) == [
        ("zeta.py", "power_sum_lt"), ("zeta.py", "power_sum_lt_element")]


def test_the_unit_series_recurrence_has_one_copy():
    # the kernel and the oracle's inverse powers share _unit_inv, so a forked
    # copy of the recurrence cannot drift from the oracle unseen
    assert sorted(set(_callers("_unit_inv"))) == [
        ("zeta.py", "_depth1_window"), ("zeta.py", "laurent_inv_pow")]


def test_the_kernels_unit_power_is_not_shared_with_the_oracle():
    # the oracle raises 1/a to the s-th power by Laurent products, so the
    # route-vs-oracle differentials see a fault in _unit_pow
    assert sorted(set(_callers("_unit_pow"))) == [("zeta.py", "_depth1_window")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_text_is_read_in_ascii_digits(path):
    # in a str pattern \d and \w match every Unicode digit or letter, and
    # str.isdigit, isdecimal and isnumeric pass digits such as ٣ and ²
    bad = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        f = node.func
        if f.attr in UNICODE_DIGIT_TESTS:
            bad.append(f"line {node.lineno}: .{f.attr}()")
        elif getattr(f.value, "id", None) == "re":
            bad += [f"line {node.lineno}: {arg.value!r}" for arg in node.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                    and any(cls in arg.value for cls in UNICODE_CLASSES)]
    assert not bad, f"{path.name} reads Unicode digits or letters: {bad}"


def _add_table_readers(path):
    """The functions of ``path``, methods by ``Class.name``, that read the
    add table: ``idx_ops[0]``, a name unpacked from the first place of
    ``idx_ops`` or assigned ``idx_ops[0]``, or a parameter named ``add``."""
    def first_of_idx_ops(node):
        return (isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "idx_ops"
                and getattr(node.slice, "value", None) == 0)

    fns = []
    for top in _tree(path).body:
        if isinstance(top, ast.FunctionDef):
            fns.append((top.name, top))
        elif isinstance(top, ast.ClassDef):
            fns += [(f"{top.name}.{fn.name}", fn) for fn in top.body
                    if isinstance(fn, ast.FunctionDef)]
    for name, fn in fns:
        names = {a.arg for a in fn.args.args if a.arg == "add"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (isinstance(target, ast.Tuple) and target.elts
                        and isinstance(target.elts[0], ast.Name)
                        and getattr(node.value, "attr", None) == "idx_ops"):
                    names.add(target.elts[0].id)
                elif isinstance(target, ast.Name) and first_of_idx_ops(node.value):
                    names.add(target.id)
        if any(first_of_idx_ops(node) or (isinstance(node, ast.Name) and node.id in names
                                          and isinstance(node.ctx, ast.Load))
               for node in ast.walk(fn)):
            yield name


def test_series_windows_are_summed_by_one_kernel():
    # every sum of series windows goes through _accumulate; the depth-one
    # kernel, the unit recurrence it runs and the packed-product decoder add
    # field elements of their own
    assert sorted(_add_table_readers(SRC / "zeta.py")) == [
        "_accumulate", "_depth1_window", "_run_decoder", "_unit_inv"]


def test_the_depth_rule_is_asked_by_the_readers_of_partial_sums_alone():
    # every reader of S_{<d} asks _lt_top whether a word is zero and where
    # its walk stops, and hands the walk that answer; the walk asks it for
    # its tails only, so no reader keeps its own copy of the rule
    assert sorted(set(_callers("_lt_top"))) == [
        ("zeta.py", "_lt_word"), ("zeta.py", "power_sum_lt"),
        ("zeta.py", "power_sum_lt_element")]


def test_the_depth_one_kernel_is_called_by_the_walk_alone():
    # the walk sums only degrees inside its head's window, so the kernel
    # needs no window check of its own
    assert sorted(set(_callers("_depth1_window"))) == [("zeta.py", "_lt_word")]


def test_the_table_of_partial_sums_grows_by_slice_stores_in_the_walk_alone():
    # a walk stores entry i at index i, from entries it read by index, so
    # concurrent walks of one word write equal values; an append, extend or
    # += would add an entry that another walk added already
    assert sorted(set(_callers("_partial_sums"))) == [("zeta.py", "_lt_word")]
    zeta = _top_level_functions(SRC / "zeta.py")
    table, walk = zeta["_partial_sums"], zeta["_lt_word"]
    assert not [n for stmt in table.body for n in ast.walk(stmt) if isinstance(n, ast.Call)]
    bound = [node for node in ast.walk(walk) if isinstance(node, ast.Assign)
             and getattr(node.value, "func", None) is not None
             and getattr(node.value.func, "id", None) == "_partial_sums"]
    assert len(bound) == 1 and [type(t) for t in bound[0].targets] == [ast.Name]
    name = bound[0].targets[0].id
    allowed, slice_stores = {id(bound[0].targets[0])}, 0
    for node in ast.walk(walk):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == name:
            allowed.add(id(node.value))
            if isinstance(node.ctx, ast.Store):
                assert isinstance(node.slice, ast.Slice), f"line {node.lineno}: not a slice store"
                slice_stores += 1
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
              and [getattr(a, "id", None) for a in node.args] == [name]):
            allowed.add(id(node.args[0]))
    # every other use of the table (a method call, +=, an alias, an argument)
    # could write it some other way
    bad = [f"line {node.lineno}" for node in ast.walk(walk)
           if isinstance(node, ast.Name) and node.id == name and id(node) not in allowed]
    assert not bad and slice_stores == 1, bad


def test_memoized_adds_no_attribute_to_what_it_caches():
    # every read of a memo goes through the cached call itself, so a memo
    # has one way in
    memoized = _top_level_functions(SRC / "ff.py")["memoized"]
    assert not [f"line {node.lineno}: .{node.attr}" for node in ast.walk(memoized)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    assert "lookup" not in (SRC / "ff.py").read_text()


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


def _field_spec_init(tree):
    """Every node of ``FieldSpec.__init__``, by ``id``; none outside ``ff.py``."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "FieldSpec":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    return set(map(id, ast.walk(fn)))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_each_kept_field_cache_has_one_owner(path):
    tree = _tree(path)
    init = _field_spec_init(tree)
    bad = [f"line {node.lineno}: .{node.attr}" for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and id(node) not in init
           and KEPT_CACHES.get(node.attr, path.name) != path.name]
    assert not bad, f"{path.name} touches another module's field cache: {bad}"


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


def test_the_harness_imports_nothing_of_the_chain_oracle():
    bad = sorted({bound for bound, _ in _imported(_tree(SRC / "verify.py"))
                  if bound in CHAIN_ORACLE})
    assert not bad, f"verify.py imports the chain oracle's {bad}"


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
