"""Every public top-level function and class of the package has a caller
outside the tests, and every dataclass field of the package is read there.

A name counts as used when code refers to it (a name, an attribute, or a
string such as a getattr target) somewhere in src/gibbs_qaoa other than its
own definition and __init__.py, or in the benchmark (bench/*.py) or the
scripts (scripts/*.py). A field counts as read when an attribute of its
name is loaded somewhere in that code, other than from `args`, the argparse
namespaces of the command line and the benchmark. Code that only tests
reach is deleted, not kept.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gibbs_qaoa"

# Public names kept without a non-test caller, each with its reason.
ALLOWED = {
    "ising.classical_energy": "the one-state reference that tests compare energy_table against",
}

# Dataclass fields kept without a non-test reader, each with its reason.
ALLOWED_FIELDS = {
    "powell.OptResult.stop": "why a start ended; the sweep records are to carry it",
    "powell.OptResult.trace": "objective per cycle; acceptance criterion 9 checks it never rises",
    "powell.OptResult.winner": "which start won; the sweep records are to carry it",
}


def references(tree, skip=None) -> set[str]:
    """Names, attributes and string constants in `tree`, outside `skip`."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_public_definitions_have_callers_outside_tests():
    modules = {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}
    outside = set().union(*(references(parse(p)) for p in
                            [*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")]))
    public = {f"{stem}.{node.name}": (stem, node) for stem, tree in modules.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert set(ALLOWED) <= set(public)
    unused = []
    for key, (stem, node) in public.items():
        callers = outside | references(modules[stem], skip=node)
        callers = callers.union(*(references(t) for s, t in modules.items() if s != stem))
        if key not in ALLOWED and node.name not in callers:
            unused.append(key)
    assert not unused, f"reached only from tests, or not at all: {unused}"


def test_dataclass_fields_are_read_outside_tests():
    code = [*PACKAGE.glob("*.py"), *ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py")]
    read = {node.attr for path in code for node in ast.walk(parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "args")}
    fields = {f"{path.stem}.{cls.name}.{stmt.target.id}": stmt.target.id
              for path in sorted(PACKAGE.glob("*.py")) for cls in parse(path).body
              if isinstance(cls, ast.ClassDef)
              and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    unread = sorted(key for key, name in fields.items() if name not in read)
    assert unread == sorted(ALLOWED_FIELDS), f"fields no code outside the tests reads: {unread}"
