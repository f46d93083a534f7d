"""Every public top-level function, class and constant of `src/velotrace` is
referenced somewhere in `src/` outside its own definition: by name, as an
attribute, as an import alias, or as a string constant (the CLI's
`_LAYER_NAMES` lists names as strings). Docstrings, comments and a package
`__init__`'s re-exports do not count, so a name only the tests, the
documentation or an export list mention fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "velotrace"


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _references(node) -> set[str]:
    """The names a statement refers to, its string statements left out."""
    docstrings = {id(child.value) for child in ast.walk(node) if _is_docstring(child)}
    refs = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            refs.add(child.id)
        elif isinstance(child, ast.Attribute):
            refs.add(child.attr)
        elif isinstance(child, ast.alias):
            refs.update(filter(None, (child.name.rpartition(".")[2], child.asname)))
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) and id(child) not in docstrings:
            refs.add(child.value)
    return refs


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_name_is_referenced_in_src():
    statements = []  # (module, top-level statement, names it defines, names it refers to)
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).with_suffix("").as_posix()
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = set() if path.name == "__init__.py" else _references(stmt)
            statements.append((module, stmt, _defined(stmt), refs))
    unreached = []
    for module, stmt, names, _ in statements:
        for name in names:
            if not name.startswith("_") and not any(name in refs for _, other, _, refs in statements
                                                    if other is not stmt):
                unreached.append(f"{module}.{name}")
    assert unreached == []


def test_layer_names_are_the_names_the_cli_looks_up_on_itself():
    """`_LAYER_NAMES` holds exactly the names that `cli.py` uses as
    `_cli.<name>`: its strings count as references above, so a stale entry
    would keep a dead layer function reached."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    table = next(stmt.value for stmt in tree.body
                 if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["_LAYER_NAMES"])
    listed = [name for names in ast.literal_eval(table).values() for name in names]
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "_cli"}
    assert len(listed) == len(set(listed))
    assert set(listed) == used
