import ast
import importlib
import inspect
import pkgutil
import types
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import streamfem

MODULES = sorted(info.name
                 for info in pkgutil.iter_modules(streamfem.__path__))

SOURCE = Path(streamfem.__file__).resolve().parent
PERFBENCH = SOURCE.parent.parent / "perfbench"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"streamfem.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_are_public_names_of_their_modules():
    for name, obj in vars(streamfem).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        assert name in importlib.import_module(obj.__module__).__all__, name


def _reads(path, strings):
    """Names a source file reads: the ids of Name nodes and the attributes
    of Attribute nodes, and with ``strings`` also every string constant.

    A def or class statement, an import and an ``__all__`` entry are none
    of these, so a name's definition and its exports do not count."""
    out = Counter()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out[node.value] += 1
    return out


def test_every_export_has_a_caller_outside_the_tests():
    """Each name in a module's ``__all__`` is read somewhere in the
    package (its own module included) or in the benchmark code, whose
    span table names its traced entry points as strings.  A name only
    the tests read is deleted, not shipped."""
    reads = Counter()
    for path in SOURCE.glob("*.py"):
        if path.name != "__init__.py":   # the package re-exports only
            reads += _reads(path, strings=False)
    for path in PERFBENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            reads += _reads(path, strings=True)
    unread = [f"{name}.{export}" for name in MODULES
              for export in importlib.import_module(
                  f"streamfem.{name}").__all__
              if not reads[export]]
    assert unread == []


def _passed(paths):
    """The arguments that the calls in ``paths`` pass, per called name: the
    keyword names and the positions."""
    out = defaultdict(set)
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                out[name].update(range(len(node.args)))
                out[name].update(kw.arg for kw in node.keywords)
    return out


# defaults that no call in the package or the benchmark sets, and why each
# stays
UNSET_DEFAULTS = {
    "stability_functional.psi0": "the initial datum of the problem",
    "stability_data_norm.psi0": "the initial datum of the problem",
    "space_time_h1_error.time_points": "the benchmark tracer binds it to "
                                       "count fem.error_evals",
    "main.argv": "the console entry point calls main()",
}


def test_every_default_is_set_outside_the_tests():
    """Every parameter with a default of a function in a module's
    ``__all__`` is passed, by keyword or at its position, by some call in
    the package or the benchmark code, or is listed with its reason in
    ``UNSET_DEFAULTS``.  A default only the tests change is a setting no
    program varies: the function decides it itself."""
    passed = _passed([*SOURCE.glob("*.py"),
                      *(path for path in PERFBENCH.glob("*.py")
                        if not path.name.startswith("test_"))])
    unset = []
    for name in MODULES:
        module = importlib.import_module(f"streamfem.{name}")
        for export in module.__all__:
            fn = getattr(module, export)
            if not inspect.isfunction(fn):
                continue
            calls = passed[export]
            for pos, param in enumerate(
                    inspect.signature(fn).parameters.values()):
                if param.default is not param.empty and not (
                        calls & {pos, param.name}):
                    unset.append(f"{export}.{param.name}")
    extra = [key for key in unset if key not in UNSET_DEFAULTS]
    assert not extra, f"defaults no program sets: {', '.join(extra)}"
    assert sorted(UNSET_DEFAULTS) == sorted(unset)


def test_time_layer_imports_nothing_from_cip():
    """``dg_time`` reads the space discretization only through its form:
    it imports no ``cip`` module or name, and the CIP edge rule
    (``edge_points``) appears nowhere in it."""
    source = (SOURCE / "dg_time.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert not [name for name in imported if "cip" in name.split(".")]
    assert "edge_points" not in source


def _callers(name):
    """(module, top-level name) of every call of the function or method
    ``name`` in the package: the function or class around the call."""
    out = set()
    for path in SOURCE.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                called = (getattr(func, "attr", None),
                          getattr(func, "id", None))
                if isinstance(node, ast.Call) and name in called:
                    out.add((path.stem, getattr(top, "name", None)))
    return out


def test_the_space_owns_its_quadrature():
    """The ``fem`` kernels read their triangle rule from the space, so
    only ``fem`` calls ``default_data_rule``, and ``default_matrix_rule``
    is called elsewhere only by the MINI divergence, a kernel of its
    own; the one-rule kernels take no rule."""
    from streamfem import fem

    assert {module for module, _ in _callers("default_data_rule")} == {"fem"}
    matrix = _callers("default_matrix_rule")
    assert "fem" in {module for module, _ in matrix}
    assert {call for call in matrix if call[0] != "fem"} == {
        ("mini_stokes", "_divergence")}
    for kernel in (fem.element_matrices, fem.assemble_tested,
                   fem.gradient_tables, fem.table_writer,
                   fem.FeSpace.phys_points):
        assert "rule" not in inspect.signature(kernel).parameters, kernel


def test_fem_owns_the_time_quadrature_of_the_data():
    """Every time rule of the data is built in ``fem.sample_time_factors``:
    the other Gauss rules on an interval are the edge rules of ``cip``;
    ``dg_time`` builds none, its Gram matrices being exact.  The space
    weights of the data rule are named only in ``fem``, whose
    ``space_time_norm`` weighs every space-time norm, and the unweighted
    ``space_time_squares`` is gone."""
    from streamfem import fem

    assert _callers("interval_rule") == {
        ("fem", "sample_time_factors"), ("cip", "_assemble_matrices"),
        ("cip", "consistency_pairing")}
    assert [path.stem for path in SOURCE.glob("*.py")
            if "_space_weights" in path.read_text()] == ["fem"]
    assert not hasattr(fem, "space_time_squares")
    assert not [path.stem for path in SOURCE.glob("*.py")
                if "space_time_squares" in path.read_text()]


def test_the_mesh_owns_edge_orientation():
    """``Mesh`` picks T-, T+, the normal and the direction of each local
    edge, and ``cip`` reads them as they are: it has no hook that flips
    an edge, reads no triangle's vertex numbers, and its edge iterator
    and matrix assembly take no orientation argument."""
    from streamfem import cip

    text = (SOURCE / "cip.py").read_text()
    assert "flip" not in text.lower()
    assert "triangles" not in _reads(SOURCE / "cip.py", strings=False)
    assert not hasattr(cip, "_edge_frames")
    assert list(inspect.signature(cip._edge_parts).parameters) == ["space"]
    assert list(inspect.signature(cip._assemble_matrices).parameters) == [
        "space", "eta"]


def _imports(path):
    """(module imported, whether at the top level) of every import in a
    source file; a relative import is named as its module alone."""
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((alias.name, id(node) in top) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add((node.module, id(node) in top))
    return out


def test_quadrature_owns_the_gauss_rules():
    """Only ``quadrature`` reads the Gauss table, and it imports
    scipy.special only inside its lookups, for rules past the table; no
    other module of the package imports scipy.special."""
    readers = defaultdict(set)
    for path in SOURCE.glob("*.py"):
        for module, at_top in _imports(path):
            readers[module].add((path.stem, at_top))
    assert readers["gauss_table"] == {("quadrature", True)}
    assert readers["scipy.special"] == {("quadrature", False)}
