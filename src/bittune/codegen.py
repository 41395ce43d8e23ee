"""Reduced-precision script emission.

The emitted script is plain Python over a tiny runtime: ``mp(x, n)``
rounds x to n significant bits, where x is a quoted decimal literal, an
already-rounded value, or one unrounded arithmetic expression; sqrt goes
through ``mp_sqrt(value, n)``.  Every literal, read, operation result,
and store in the source program becomes one wrapper carrying its solved
width, so the script performs exactly the roundings the tuned
interpreter performs and reproduces its results bit for bit.

Literals stay quoted because the source text is the exact value; a bare
Python float would silently pre-round to 53 bits before mp() could see
it.  Arithmetic operators on rounded values build a deferred node
instead of computing, and the enclosing mp() call evaluates it with a
single correct rounding at the target width; using an operator result
without wrapping it in mp() is an error by construction.

The runtime lives in ``mpfloat`` (``mp`` and ``mp_sqrt``).  A script
needs only the standard library: it imports ``bittune.mpfloat`` when
bittune is importable, and otherwise runs the compressed copy of
``mpfloat.py`` (docstrings dropped) that its header carries.  That copy
is made from the package's own file, once per process, so it cannot
drift from the package.  Free inputs of the source program are left
unbound: the script of a program tuned with ``--samples`` checks that
its namespace binds them and otherwise exits with one line naming the
unbound ones.  The header and that check read names from the namespace
the inputs are bound in, before the first statement, so a free input
cannot take one of them (_HEADER_NAMES); a variable the program assigns
can.
"""

from __future__ import annotations

import ast
import base64
import functools
import keyword
import zlib
from pathlib import Path

from . import mpfloat
from .program import (
    Assign, BinOp, Compare, Expr, If, Neg, Num, Program, Require, Sqrt, Stmt,
    Var, While,
)

_HEADER_START = '''"""Reduced-precision program; widths were solved per control point.

Run with: python3 <this file>  (any suffix works; the content is Python)
Every mp(x, n) call rounds to n significant bits (round to nearest,
ties to even); arithmetic between wrapped values is evaluated lazily so
each operation is rounded exactly once, at its own width.

Needs only the Python standard library: mp and mp_sqrt come from
bittune.mpfloat when bittune is importable, else from the copy of that
module bundled below.  Free inputs of the source program are not bound
here; run the file in a namespace that binds them to
bittune.mpfloat.MPValue values, or its first read raises NameError.
"""

try:
    from bittune.mpfloat import mp, mp_sqrt
except ImportError:
    def _runtime():
        import base64, types, zlib
        module = types.ModuleType("bittune_mpfloat_bundled")
        source = zlib.decompress(base64.b64decode("""
'''

_HEADER_END = '''"""))
        exec(compile(source, "<bundled bittune.mpfloat>", "exec"),
             module.__dict__)
        return module.mp, module.mp_sqrt
    mp, mp_sqrt = _runtime()
    del _runtime

'''

# For a program with free inputs the header's last sentence changes to
# match the check that follows it.
_NAMEERROR_NOTE = "or its first read raises NameError."
_CHECKED_NOTE = "or it stops, naming the unbound ones."

# Names a script cannot give a variable: Python keywords and __debug__
# do not compile as assignment targets, and mp/mp_sqrt are its runtime.
_RESERVED = frozenset(keyword.kwlist) | {"__debug__", "mp", "mp_sqrt"}

# Names a free input cannot have: the header and the input check read
# them from the namespace the inputs are bound in (the header deletes
# _runtime), and exec reads that namespace's __builtins__.
_HEADER_NAMES = frozenset({"any", "globals", "ImportError", "SystemExit",
                           "exec", "compile", "_runtime", "__builtins__"})


class ScriptNameError(ValueError):
    """A program variable's name cannot be used in the emitted script."""


# CPython's tokenizer refuses a line nested deeper than 200 brackets or
# indented 100 levels (the module level is the first), and its compiler
# more than 20 loops nested in one another.
MAX_BRACKETS = 200
MAX_INDENT = 99
MAX_LOOPS = 20


class ScriptNestingError(ValueError):
    """Code nests deeper in the emitted script than Python compiles."""


@functools.cache
def _header() -> str:
    """The script header.  It carries mpfloat.py, read from the package
    with its docstrings dropped, zlib-compressed in base64."""
    tree = ast.parse(Path(mpfloat.__file__).read_bytes())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            node.body = node.body[1:] or [ast.Pass()]
    source = ast.unparse(tree).encode()
    # One unindented line per 76 characters: b64decode skips the newlines.
    blob = base64.encodebytes(zlib.compress(source, 9)).decode("ascii")
    return _HEADER_START + blob + _HEADER_END


def _refuse(kind: str, bad: list[str], why: str) -> None:
    if bad:
        shown = ", ".join(repr(n) for n in bad[:5])
        more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
        raise ScriptNameError(
            f"{kind} {shown}{more} cannot be used in the mp script ({why})")


def _check_names(prog: Program) -> None:
    _refuse("variable name", sorted(
        {node.name for node in prog.points
         if isinstance(node, (Var, Assign)) and node.name in _RESERVED}),
        "Python keywords, __debug__, mp and mp_sqrt are reserved")
    _refuse("free input", sorted(set(prog.inputs) & _HEADER_NAMES),
            "the script's own code reads " + ", ".join(sorted(_HEADER_NAMES)))


def _input_check(inputs: tuple[str, ...]) -> list[str]:
    """Script lines that exit with one message unless every free input
    is bound in the namespace the script runs in."""
    names = repr(tuple(inputs))
    return [f"if any(n not in globals() for n in {names}):",
            "    raise SystemExit('unbound free inputs: ' + ', '.join(",
            f"        n for n in {names} if n not in globals()) +",
            "        '; run this script in a namespace that binds them to '",
            "        'bittune.mpfloat.MPValue values')",
            ""]


def _emit_expr(e: Expr, widths, depth: int) -> str:
    """e's wrapper call, inside depth open brackets."""
    depth += 1
    if depth > MAX_BRACKETS:
        raise ScriptNestingError(
            f"control point {e.point} would sit {depth} brackets deep in "
            f"the mp script; Python compiles at most {MAX_BRACKETS}")
    if isinstance(e, Num):
        return f"mp('{e.text}', {widths[e.point]})"
    if isinstance(e, Var):
        return f"mp({e.name}, {widths[e.point]})"
    if isinstance(e, Sqrt):
        return f"mp_sqrt({_emit_expr(e.arg, widths, depth)}, {widths[e.point]})"
    if isinstance(e, Neg):
        return f"mp(-{_emit_expr(e.operand, widths, depth)}, {widths[e.point]})"
    if isinstance(e, BinOp):
        left = _emit_expr(e.left, widths, depth)
        right = _emit_expr(e.right, widths, depth)
        return f"mp({left} {e.op} {right}, {widths[e.point]})"
    raise TypeError(f"unexpected expression node {e!r}")


def _emit_cond(c: Compare, widths) -> str:
    return f"{_emit_expr(c.left, widths, 0)} {c.op} {_emit_expr(c.right, widths, 0)}"


def _check_block(st: While | If, indent: int, loops: int) -> None:
    """Refuse a loop or branch whose body Python would not compile."""
    kind = "while loop" if isinstance(st, While) else "if statement"
    where = f"the {kind} testing control point {st.cond.left.point}"
    if indent + 1 > MAX_INDENT:
        raise ScriptNestingError(
            f"{where} would indent its body {indent + 1} levels in the mp "
            f"script; Python compiles at most {MAX_INDENT}")
    if loops > MAX_LOOPS:
        raise ScriptNestingError(
            f"{where} would sit {loops} loops deep in the mp script; "
            f"Python compiles at most {MAX_LOOPS}")


def _emit_stmts(stmts: list[Stmt], widths, indent: int, out: list[str],
                loops: int = 0) -> None:
    """Emit stmts indented indent levels, inside loops enclosing loops."""
    pad = "    " * indent
    if not stmts:
        out.append(f"{pad}pass")
        return
    for st in stmts:
        if isinstance(st, Assign):
            rhs = _emit_expr(st.expr, widths, 1)
            out.append(f"{pad}{st.name} = mp({rhs}, {widths[st.point]})")
        elif isinstance(st, While):
            _check_block(st, indent, loops + 1)
            out.append(f"{pad}while {_emit_cond(st.cond, widths)}:")
            _emit_stmts(st.body, widths, indent + 1, out, loops + 1)
        elif isinstance(st, If):
            _check_block(st, indent, loops)
            out.append(f"{pad}if {_emit_cond(st.cond, widths)}:")
            _emit_stmts(st.then_body, widths, indent + 1, out, loops)
            if st.else_body:
                out.append(f"{pad}else:")
                _emit_stmts(st.else_body, widths, indent + 1, out, loops)
        elif isinstance(st, Require):
            out.append(f"{pad}# require_nsb({st.name}, {st.bits})")
        else:
            raise TypeError(f"unexpected statement {st!r}")


def emit_mp_code(prog: Program, widths: dict[int, int]) -> str:
    """Emit the runnable reduced-precision script for a solved assignment.

    Raises ScriptNameError for a variable named after a Python keyword,
    __debug__, mp or mp_sqrt or a free input named in _HEADER_NAMES,
    and ScriptNestingError for an expression nested deeper than
    MAX_BRACKETS brackets, a body indented more than MAX_INDENT levels
    or more than MAX_LOOPS nested loops."""
    _check_names(prog)
    header = _header()
    out: list[str] = []
    if prog.inputs:
        header = header.replace(_NAMEERROR_NOTE, _CHECKED_NOTE, 1)
        out += _input_check(prog.inputs)
    _emit_stmts(prog.stmts, widths, 0, out)
    return header + "\n".join(out) + "\n"
