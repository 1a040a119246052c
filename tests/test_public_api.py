import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import kslab

MODULES = [
    importlib.import_module(f"kslab.{info.name}") for info in pkgutil.iter_modules(kslab.__path__)
]
SRC = Path(kslab.__file__).parent
README = Path(__file__).parents[1] / "README.md"

# Public names that no run, sweep or report reads, each with its reason.
# Every other public name must be reached from ``cli.main``.
UNREAD_ALLOWED = {
    "fields.gradient": "perfbench traces it by module and name",
    "monitors.moment": "perfbench traces it by module and name",
    "solver.suggest_dt": "perfbench traces it by module and name",
    "solver.picard_local_solve": "the mild-solution oracle of criterion 09 and of the local-existence study",
    "monitors.CoupledRecorder": "the coupled-inequality margins that kslab run is to report",
    "monitors.z_residual": "the comparison inequality's residual, criterion 04",
    "norms.cutoff_phi_laplacian": "the closed form that the derivation of the moment constants reads",
    "norms.cutoff_phi_gradient": "the cutoff's closed-form gradient, criterion 06",
    "norms.cutoff_phi_hessian_norm": "the cutoff's closed-form Hessian norm, criterion 06",
    "dyadic.reconstruct": "the dyadic decomposition of criterion 07, with its blocks and low-passes",
    "fields.dealias": "the 2/3 rule as a field operation, for callers' own products",
    "fields.divergence": "spectral calculus the paper's identities are stated in",
    "fields.heat_propagate": "the exact heat semigroup, the solver's linear oracle",
    "fields.hessian_sq": "spectral calculus the paper's identities are stated in",
    "fields.magnitude": "spectral calculus the paper's identities are stated in",
    "solver.rhs": "the tendencies as fields, the monitors' time derivatives' oracle",
    "solver.step": "one public step of the scheme, whose order tier-1 measures",
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_resolves_and_is_documented(module):
    # A listed function or class needs a docstring of its own in its source:
    # a dataclass's generated signature or an inherited docstring does not count.
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []
    undocumented = [
        name
        for name, obj in ((name, getattr(module, name)) for name in names)
        if (inspect.isfunction(obj) or inspect.isclass(obj))
        and not ast.get_docstring(ast.parse(inspect.getsource(obj)).body[0])
    ]
    assert undocumented == []


def _reads(tree, module, defs):
    """For each top-level definition of ``module``, the package names its code reads.

    A bare name reads the module's own definition or the name it imports from
    a sibling; ``alias.attr`` reads ``attr`` of an imported sibling module.
    Docstrings and comments hold no ``Name`` nodes, so they read nothing.
    """
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reads = {}
    for node in tree.body:
        for name in _defined(node):
            found = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    found.add(imported.get(sub.id, f"{module}.{sub.id}"))
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in modules
                ):
                    found.add(f"{modules[sub.value.id]}.{sub.attr}")
            reads[f"{module}.{name}"] = found & defs
    return reads


def _defined(node):
    """The names a top-level statement defines (``__all__`` aside)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]


def _reached(roots, reads):
    """Every definition that a chain of reads leads to from ``roots``."""
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reads and name not in seen:
            seen.add(name)
            todo.extend(reads[name])
    return seen


def test_every_public_name_is_read():
    # A run, a sweep and a report start at cli.main; a name that no path from
    # there (or from an allowed entry) reaches is code no user of kslab runs.
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "__init__"}
    defs = {f"{m}.{name}" for m, tree in trees.items() for node in tree.body for name in _defined(node)}
    reads = {}
    for module, tree in trees.items():
        reads.update(_reads(tree, module, defs))
    public = {name for name in defs if not name.rsplit(".", 1)[1].startswith("_")}
    assert sorted(public - _reached(["cli.main", *UNREAD_ALLOWED], reads)) == []
    # An entry for a name that is gone, or that a run already reads, is stale.
    assert sorted(set(UNREAD_ALLOWED) - (public - _reached(["cli.main"], reads))) == []


def test_readme_layout_names_every_module():
    text = README.read_text()
    layout = text[text.index("\n## Layout\n") :].split("\n## ", 2)[1]
    listed = re.findall(r"^    src/kslab/(\w+\.py)\s", layout, flags=re.M)
    assert sorted(listed) == sorted(p.name for p in SRC.glob("*.py"))
