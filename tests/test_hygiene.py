"""Source hygiene: every name a module imports is used in that module,
imports sit at module level, every source of packed words has a batched gather,
sources and handles hand out packed words alone (handles are sources, one
derived rows_at, no Subspace listing outside the Cdc), no module reads
another module's private attributes, packed arrays become word tuples
through linalg.word_tuples alone, the construction modules import no
rank kernel of their own, the batched GF(2) kernels select rows by
multiplying, constructions keys no set or dict on generator
rows, no module reads a Subspace's MatrixGF view, the CLI names no
recipe or formula, Subspace listings stay at their two edges, gf has one
field class, and builds and exact checks never load numpy.random."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cdckit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    # the module graph is acyclic, so every import sits at module level and
    # shows what a module depends on
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(f"{fn.name} (line {node.lineno})" for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not found, f"{path.name}: imports inside {found}"


def _owner(cls, attr):
    return next(c for c in cls.__mro__ if attr in c.__dict__)


@pytest.mark.parametrize("module", ["cdc", "constructions", "rankmetric"])
def test_every_packed_source_has_a_batched_gather(module):
    # streams and the sampler gather through packed_at_batch alone: a class
    # that overrides packed_at must override it as well (or inherit it from
    # a class at least as derived), or it would fall back on an abstract one
    mod = importlib.import_module(f"cdckit.{module}")
    classes = [c for _, c in inspect.getmembers(mod, inspect.isclass)
               if c.__module__ == mod.__name__ and hasattr(c, "packed_at")]
    assert classes
    missing = sorted(c.__name__ for c in classes if not hasattr(c, "packed_at_batch")
                     or not issubclass(_owner(c, "packed_at_batch"), _owner(c, "packed_at")))
    assert not missing, f"{module}: packed_at without packed_at_batch in {missing}"


ROWS_AT = {"cdc": [], "constructions": [], "linalg": ["StreamSource"], "rankmetric": []}


@pytest.mark.parametrize("module", sorted(ROWS_AT))
def test_sources_hand_out_packed_words_alone(module):
    # packed_at is the one scalar accessor of a source or handle: rows_at is
    # derived from it once, on StreamSource, the base of streams and handles
    # alike, and Subspace values come from the Cdc alone, the one class that
    # lists them
    mod = importlib.import_module(f"cdckit.{module}")
    classes = [c for _, c in inspect.getmembers(mod, inspect.isclass) if c.__module__ == mod.__name__]
    assert sorted(c.__name__ for c in classes if "rows_at" in c.__dict__) == ROWS_AT[module]
    listers = sorted(f"{c.__name__}.{attr}" for c in classes if c.__name__ != "Cdc"
                     for attr in ("subspace_at", "iter_subspaces", "iter_rows", "words")
                     if attr in c.__dict__)
    assert not listers, f"{module}: Subspace or row listings outside the Cdc: {listers}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    # obj._name is read only where the module itself defines _name: another
    # module's private state stays behind that module's methods
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    reads = sorted(f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and node.attr.startswith("_") and not node.attr.startswith("__")
                   and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
                   and node.attr not in defined)
    assert not reads, f"{path.name}: private reads across modules {reads}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_arrays_become_tuples_through_word_tuples(path):
    # map(tuple, a.tolist()) builds a throwaway list per word; word_tuples
    # builds each tuple straight from the column lists
    tree = ast.parse(path.read_text(), filename=str(path))
    found = sorted(f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "map" and len(node.args) == 2
                   and isinstance(node.args[0], ast.Name) and node.args[0].id == "tuple"
                   and isinstance(node.args[1], ast.Call)
                   and isinstance(node.args[1].func, ast.Attribute)
                   and node.args[1].func.attr == "tolist")
    assert not found, f"{path.name}: use linalg.word_tuples for {found}"



@pytest.mark.parametrize("name", ["cdc.py", "constructions.py"])
def test_constructions_take_certificates_from_verify(name):
    # construction-time meets and ranks come from verify.meet_dims, the one
    # batched kernel, not from a rank kernel or a field fork of their own
    tree = ast.parse((SRC / name).read_text(), filename=name)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    banned = sorted(imported & {"rank_bits", "rank_bits_batch", "rank_rows", "packable"})
    assert not banned, f"{name} imports {banned}"


@pytest.mark.parametrize("name, func", [("linalg.py", "rank_bits_batch"),
                                        ("linalg.py", "rref_bits_batch"),
                                        ("linalg.py", "spans"),
                                        ("constructions.py", "_ReembedSource"),
                                        ("constructions.py", "_reembedded"),
                                        ("rankmetric.py", "_low_rank_indices")])
def test_batched_kernels_select_rows_by_multiplying(name, func):
    # a GF(2) row is picked by mask * row or a spans lookup, not
    # np.where(mask, row, 0): on the (11, 4096) uint16 array of one row pass
    # the broadcast np.where takes about 250 us and the product about 11 us
    tree = ast.parse((SRC / name).read_text(), filename=name)
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == func)
    found = sorted(f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(fn)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "where")
    assert not found, f"{name}: {func} calls {found}"


def _keys(node):
    """The key expressions of a set or dict display, comprehension or call."""
    if isinstance(node, ast.SetComp):
        return [node.elt]
    if isinstance(node, ast.DictComp):
        return [node.key]
    if isinstance(node, ast.Set):
        return node.elts
    if isinstance(node, ast.Dict):
        return [k for k in node.keys if k is not None]  # None: a ** unpacking
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset", "dict"):
        return node.args
    return []


def test_constructions_key_no_set_on_generator_rows():
    # partitions are index arrays into their parent: no construction finds
    # a word by building a set or dict keyed on Subspace generator rows
    tree = ast.parse((SRC / "constructions.py").read_text(), filename="constructions.py")
    found = sorted(f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
                   if any(isinstance(sub, ast.Attribute) and sub.attr == "rows"
                          for key in _keys(node) for sub in ast.walk(key)))
    assert not found, f"constructions.py keys a set or dict on .rows: {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_matrix_view(path):
    # a Subspace is its row tuple: Subspace.gen builds a MatrixGF on each
    # read, for linalg's algebra API, and no module of the package reads it
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "gen"]
    assert not found, f"{path.name} reads .gen at lines {found}"


def test_cli_names_no_recipe_or_formula():
    # recipe facts (which take --k, which take imports) live in
    # constructions alone: the CLI reads them from the recipe signatures
    from cdckit.constructions import FORMULAS, RECIPES
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    found = sorted({node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and (node.value in RECIPES
                                                         or node.value in FORMULAS)})
    assert not found, f"cli.py names {found}"


def test_recipe_facts_are_one_registry():
    # a closed form, its recipe and its size floor are one registry row: no
    # parallel table, no size-only stub, and the two name maps are its views
    from cdckit import constructions as cx
    gone = ["CATALOG", "FAMILY_FLOORS", "recipe_12_4_4_cor", "recipe_4k_2k_2k",
            "recipe_6k_2k_2k", "recipe_16_4_4"]
    assert [name for name in gone if hasattr(cx, name)] == []
    assert cx.RECIPES.keys() == {c.recipe for c in cx.REGISTRY if c.recipe}
    assert cx.FORMULAS == {c.formula: c.size for c in cx.REGISTRY if c.formula}
    assert all(cx.RECIPES[c.recipe] is c.build for c in cx.REGISTRY if c.recipe and c.build)


def test_one_packed_word_source_model():
    # a rank-metric handle is a StreamSource: it streams through
    # packed_blocks and unpacks through the one rows_at; the addons stack
    # packed rows at every field, with no Subspace direct sum
    from cdckit import cdc, constructions, linalg, rankmetric
    assert issubclass(rankmetric.RankCodeHandle, linalg.StreamSource)
    assert cdc.StreamSource is constructions.StreamSource is linalg.StreamSource
    gone = [(constructions, "_direct_sum_subspace"), (rankmetric.GabidulinHandle, "iter_blocks"),
            (rankmetric.RankFilteredHandle, "iter_blocks")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []
    assert "rows_at" not in rankmetric.RankCodeHandle.__dict__
    assert "iter_packed" not in constructions.UnionSource.__dict__


def _owned(node, owner):
    """(dotted name of the innermost enclosing class or function, node) for
    each node under node."""
    for child in ast.iter_child_nodes(node):
        inner = f"{owner}.{child.name}".removeprefix("<module>.") \
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else owner
        yield owner, child
        yield from _owned(child, inner)


def test_subspaces_are_listed_only_at_their_edges():
    # packed consumers read verify.subspace_bases; Subspace objects are
    # listed only where they are the output: the lines of the q^4
    # parallelism search and the CLI's enumerate oracle
    callers = sorted(f"{path.stem}.{owner}" for path in MODULES
                     for owner, call in _owned(ast.parse(path.read_text()), "<module>")
                     if isinstance(call, ast.Call)
                     and getattr(call.func, "id", getattr(call.func, "attr", None))
                     == "enumerate_subspaces")
    assert callers == ["cdc.parallelism_2_of_F_q4", "cli.cmd_oracle"]


CHOOSERS = ["cdc.partial_spread_subcode", "constructions._sequence_entry_from_code",
            "constructions.NdkSequence.validate", "constructions.duplication",
            "constructions._duplication_over", "constructions._reembedded"]
# the (8,4;4) code and the addons are listed from packed rows, not from
# .words() lists of their parts
PACKED_BUILDERS = ["constructions.recipe_8_4_4", "constructions.product_addon",
                   "constructions.mixed_abar_addons", "constructions._joined"]


def test_duplication_paths_list_no_code_and_sort_one_way():
    # the choosers and the duplication read words by index, through
    # meet_dims and the gathers: no .words() list of a whole code; and the
    # one canonical order of words is verify.canonical_order, which alone
    # reads Subspace.sort_key
    nodes = [(f"{path.stem}.{owner}", node) for path in MODULES
             for owner, node in _owned(ast.parse(path.read_text()), "<module>")]
    owners = {owner for owner, _ in nodes}
    assert set(CHOOSERS + PACKED_BUILDERS) <= owners
    listed = sorted(f"{owner}: {ast.unparse(node)}" for owner, node in nodes
                    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "words"
                    and any(owner == c or owner.startswith(c + ".")
                            for c in CHOOSERS + PACKED_BUILDERS))
    assert not listed, f"whole-code listings on the duplication paths: {listed}"
    sorters = sorted({owner for owner, node in nodes
                      if isinstance(node, ast.Attribute) and node.attr == "sort_key"})
    assert sorters == ["verify.canonical_order"]


def test_gf_has_one_field_class():
    # GF(p), GF(p^e) and every extension GF(q^M) are one FieldSpec: the old
    # ExtFieldSpec name is the same class, and an extension of a prime field
    # is the cached field_new(p, M) itself
    from cdckit import gf
    classes = sorted(name for name, value in vars(gf).items()
                     if inspect.isclass(value) and value.__module__ == gf.__name__)
    assert classes == ["ExtFieldSpec", "FieldError", "FieldSpec"]
    assert gf.ExtFieldSpec is gf.FieldSpec
    for p, degree in [(2, 1), (2, 4), (3, 3), (5, 2)]:
        assert gf.ext_field(gf.field_new(p, 1), degree) is gf.field_new(p, degree)


def test_builds_and_exact_checks_never_load_numpy_random():
    # importing numpy.random adds several MB of RSS to a process that has
    # not loaded it: a fresh interpreter builds and fully checks the
    # (12,8;6) prefix (the lifted-block verdict on a gathered code) and the
    # whole (8,4;4) code (the climb) without it
    script = """
import sys
import numpy as np
from cdckit.cdc import Cdc
from cdckit.constructions import RECIPES
from cdckit.linalg import PackedSource
from cdckit.verify import full_pairwise_check
code, _ = RECIPES["12_8_6"](2)
prefix = Cdc(code.field, 12, 6, 8,
             stream=PackedSource(code.field, 12, code.packed_at_batch(np.arange(3000))))
reports = [full_pairwise_check(prefix), full_pairwise_check(RECIPES["8_4_4"](2)[0])]
assert [r.certificate for r in reports] == ["lifted_block", "exhaustive"]
assert [r.min_distance_found for r in reports] == [10, 4]
print("numpy.random" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
