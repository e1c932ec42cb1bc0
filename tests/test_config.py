import ast
import re
from pathlib import Path

import gerbe
from gerbe import config

PACKAGE = Path(gerbe.__file__).parent
ROOT = PACKAGE.parents[1]


def config_names():
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    return [t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)]


def test_every_constant_has_a_reader():
    # a tolerance or bound that no module reads as config.NAME is dead, and
    # would keep suggesting a float test the code no longer makes
    names = config_names()
    assert names and all(hasattr(config, name) for name in names)
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "config.py"]
    unread = [name for name in names
              if not any(re.search(rf"\bconfig\.{name}\b", src) for src in sources)]
    assert unread == []


def test_every_error_is_raised():
    # an error type that only an except clause still names is dead: each
    # class of errors.py but the base GerbeError is raised in the package
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    errors = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert "GerbeError" in errors and len(errors) > 1
    assert [name for name in errors if name != "GerbeError" and name not in raised] == []


def library_block():
    """The code of the README's "Library" section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [library] = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    return library


def test_every_definition_has_a_reader():
    # a top-level function or class is read by the package, by the README's
    # library example, or by the benchmark (perfbench/*.py, as text: its
    # tracer rebinds functions by name); anything else is test-only code
    # and belongs in tests/oracles.py.  An export from gerbe/__init__.py
    # alone does not count.  A read in the defining module counts, since
    # the CLI's subcommands are reached only from its own parser.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for module, tree in [*trees.items(), ("README", ast.parse(library_block()))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias) and module != "__init__":
                read.add(node.name)
    bench = "".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py")))
    read |= set(re.findall(r"\w+", bench))
    defined = [(module, node.name) for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(defined) > 50
    assert [(module, name) for module, name in defined if name not in read] == []


def test_every_import_is_read():
    # a name a module imports and never reads is a leftover of a removed
    # caller.  The re-export modules are exempt, and so is a name on a line
    # marked "# noqa: F401" under a comment that gives the reason
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("__init__.py", "_backend.py"):
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if ("# noqa: F401" in lines[node.end_lineno - 1]
                    and lines[node.lineno - 2].lstrip().startswith("#")):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append((path.name, name))
    assert unread == []


def test_numpy_floor_serves_bitwise_count():
    # enumerate_group counts the descendants' degrees with np.bitwise_count,
    # which first appeared in NumPy 2.0, so the declared floor is 2.0
    [floor] = re.findall(r'"numpy>=([\d.]+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "np.bitwise_count" in (PACKAGE / "autgroup.py").read_text(encoding="utf-8")
    assert tuple(map(int, floor.split("."))) >= (2, 0)


def test_one_json_writer():
    # every --json command prints through cli._print_json, which keeps the
    # bytes of json.dumps(indent=2, sort_keys=True); json.dumps anywhere
    # else in cli.py would bypass it
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    [writer] = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_print_json"]
    inside = {id(node) for node in ast.walk(writer)}
    uses = [node for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "dumps")
            or (isinstance(node, ast.Name) and node.id == "dumps")
            or (isinstance(node, ast.alias) and node.name.endswith("dumps"))]
    assert uses
    assert [node.lineno for node in uses if id(node) not in inside] == []
