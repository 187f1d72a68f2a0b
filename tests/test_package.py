"""The package keeps only code that its own modules reach."""

import ast
import pathlib

import ddlab

PACKAGE = pathlib.Path(ddlab.__file__).parent

# Public names that no code of the package references, each kept for a reason.
ALLOWED = {
    # the reference oracle that the region tests and the benchmark's gate
    # compare locate and classify against
    ("regions", "contains_bruteforce"),
    # the exact exponent of one query, which the benchmark's numerics
    # workload scores its verdicts against
    ("decay", "theoretical_exponent"),
    # the weak norm of one field, exported beside lq_norm; verify_lp_lq reads
    # the same reducer (norm_reducer) from |u|^2
    ("decay", "weak_lq_norm"),
}


def _names(node):
    """Every name that node reads, imports or takes as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_public_name_is_referenced_in_the_package():
    # the top-level statements of every module but __init__.py, whose
    # re-exports reach nothing
    statements = [(path.stem, node) for path in sorted(PACKAGE.glob("*.py"))
                  if path.name != "__init__.py"
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    used = [(node, _names(node)) for _, node in statements]
    unreferenced = {
        (module, node.name) for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in names for other, names in used if other is not node)}
    assert unreferenced == ALLOWED
