"""Report the size of ``src/pbftkit``: lines and settable values.

Run from anywhere, with no options::

    python3 tools/src_size.py

It prints four figures:

- physical lines, every line of every ``.py`` file;
- code lines, the lines that hold a token other than a comment or a
  docstring (blank lines hold none);
- settable values: parameters with a default, dataclass fields, argparse
  options (``add_argument`` calls) and environment variables read;
- of those, the values a caller can set: the same count without the
  dataclass fields declared with ``field(init=False)``.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pbftkit"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str, tree) -> int:
    docs = docstring_lines(tree)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP and tok.start[0] not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _is_dataclass(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return (isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"
            and any(kw.arg == "init" and getattr(kw.value, "value", True)
                    is False for kw in value.keywords))


def settable(tree) -> Counter:
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            counts["defaults"] += len(args.defaults) + sum(
                d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    counts["fields"] += 1
                    counts["init_false"] += _init_false(item.value)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "add_argument"):
            counts["options"] += 1
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("environ", "getenv")
              and getattr(node.value, "id", None) == "os"):
            counts["environment"] += 1
    return counts


def main():
    physical = code = 0
    total = Counter()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        physical += len(text.splitlines())
        code += code_lines(text, tree)
        total += settable(tree)
    values = (total["defaults"] + total["fields"] + total["options"]
              + total["environment"])
    print(f"physical lines: {physical}")
    print(f"code lines: {code}")
    print(f"settable values: {values} ({total['defaults']} parameters with "
          f"a default + {total['fields']} dataclass fields + "
          f"{total['options']} argparse options + {total['environment']} "
          f"environment variables)")
    print(f"settable by a caller: {values - total['init_false']}")


if __name__ == "__main__":
    main()
