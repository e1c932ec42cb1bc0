import ast
import re
from pathlib import Path

import gerbe
from gerbe import config

PACKAGE = Path(gerbe.__file__).parent


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
