"""No module under ``src/repro`` writes the process environment.

Settings travel as arguments (``RunContext``, ``ServeConfig``, explicit
``cache=`` / ``workers=`` parameters); the ``REPRO_*`` env knobs are
read-only inputs that a user sets.  This guard parses every module and
fails on any environment write: item assignment or deletion on
``os.environ``, its mutating methods, and ``os.putenv`` /
``os.unsetenv``.  Reading (``os.environ.get``, ``os.environ[...]``) is
allowed.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src",
                   "repro")

# (path relative to src/repro, line) pairs allowed to write the
# environment.  Empty: nothing may.
ALLOWED = frozenset()

_MUTATORS = {"pop", "popitem", "update", "setdefault", "clear",
             "__setitem__", "__delitem__"}
_ENV_FUNCTIONS = {"putenv", "unsetenv"}


def environ_writes(source: str):
    """Line numbers of every environment write in ``source``."""
    tree = ast.parse(source)
    os_names = {"os"}
    environ_names = set()
    function_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names.update(alias.asname or alias.name
                            for alias in node.names if alias.name == "os")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name == "environ":
                    environ_names.add(alias.asname or alias.name)
                elif alias.name in _ENV_FUNCTIONS:
                    function_names.add(alias.asname or alias.name)

    def is_os(node):
        return isinstance(node, ast.Name) and node.id in os_names

    def is_environ(node):
        if isinstance(node, ast.Name):
            return node.id in environ_names
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                and is_os(node.value))

    def is_environ_item(node):
        return isinstance(node, ast.Subscript) and is_environ(node.value)

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(is_environ_item(target) for target in targets):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and (
                    (func.attr in _MUTATORS and is_environ(func.value))
                    or (func.attr in _ENV_FUNCTIONS and is_os(func.value))):
                lines.append(node.lineno)
            elif isinstance(func, ast.Name) and func.id in function_names:
                lines.append(node.lineno)
    return sorted(lines)


def _modules():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_no_module_writes_the_environment():
    found = []
    for path in _modules():
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        relative = os.path.relpath(path, SRC)
        found += [f"{relative}:{line}" for line in environ_writes(source)
                  if (relative, line) not in ALLOWED]
    assert not found, ("environment writes under src/repro (pass the "
                       "setting as an argument instead): "
                       + ", ".join(found))


@pytest.mark.parametrize("snippet", [
    "import os\nos.environ['K'] = '1'",
    "import os\nos.environ['K'] += '1'",
    "import os\ndel os.environ['K']",
    "import os\nos.environ.pop('K', None)",
    "import os\nos.environ.update(K='1')",
    "import os\nos.environ.setdefault('K', '1')",
    "import os\nos.environ.clear()",
    "import os\nos.putenv('K', '1')",
    "import os\nos.unsetenv('K')",
    "import os as system\nsystem.environ['K'] = '1'",
    "from os import environ\nenviron['K'] = '1'",
    "from os import environ as env\nenv.pop('K')",
    "from os import putenv\nputenv('K', '1')",
])
def test_scanner_catches_every_write(snippet):
    assert environ_writes(snippet) == [2]


@pytest.mark.parametrize("snippet", [
    "import os\nvalue = os.environ.get('K')",
    "import os\nvalue = os.environ['K']",
    "import os\nfound = 'K' in os.environ",
    "import os\nsettings = {}\nsettings['K'] = os.environ.get('K')",
    "import os\ncopy = dict(os.environ)\ncopy.pop('K', None)",
])
def test_scanner_allows_reads(snippet):
    assert environ_writes(snippet) == []
