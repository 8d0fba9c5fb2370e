"""The number of values a caller or user can set in ``src/cstomo``, and the
number of names it exports.

Each independently settable value multiplies the configurations that the
tests and the benchmark must cover, and each exported name is a promise to
library callers. The figures below are the tree's: a change that moves one
edits its line here and says why in CHANGES.md.
"""

import ast
import types
from pathlib import Path

import cstomo

SRC = Path(__file__).resolve().parents[1] / "src" / "cstomo"

# dataclass fields plus function parameters that have a default value
SETTABLE_VALUES = 70
# add_argument call sites of the command line
CLI_ARGUMENTS = 31
# public names of the top-level package that are not submodules
PUBLIC_NAMES = 33


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        name = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
    return False


def count(sources) -> tuple[int, int]:
    """(settable values, add_argument call sites) over Python sources."""
    settable = arguments = 0
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                settable += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                settable += len(node.args.defaults)
                settable += sum(d is not None for d in node.args.kw_defaults)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                arguments += 1
    return settable, arguments


def test_counter_on_a_sample():
    sample = '''
@dataclass
class A:
    x: int
    y: int = 1

@dataclass(eq=False)
class B:
    z: int = 2

class NotADataclass:
    w: int = 3

def f(a, b=1, *, c, d=2):
    parser.add_argument("--e")
'''
    assert count([sample]) == (5, 1)


def test_package_surface():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert count(sources) == (SETTABLE_VALUES, CLI_ARGUMENTS)


def test_public_names():
    names = [name for name, value in vars(cstomo).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert len(names) == PUBLIC_NAMES, sorted(names)
