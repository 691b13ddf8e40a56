"""Checks on the library's source text."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "convdeblur"
# (module, name) imported but unused, because the traced benchmark run
# (perfbench/tracing.py) wraps these module globals and requires them
TRACED = {("blind", "conv2d_full"), ("blind", "toeplitz"),
          ("spectral", "toeplitz")}


def unused_imports(source):
    """Names that source imports but never reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport numpy as np\n"
                          "from .a import b, c\nc(np.pi)\n") == {"os", "b"}


def test_src_imports_nothing_it_leaves_unused():
    # __init__.py imports the public names in order to re-export them
    found = {(path.stem, name) for path in SRC.glob("*.py")
             if path.name != "__init__.py"
             for name in unused_imports(path.read_text())}
    assert found == TRACED
