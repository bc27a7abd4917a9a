#!/usr/bin/env python3
"""Line counts of the modules of a kepes package:

    python scripts/loc.py [SRC_DIR]

prints, per module of SRC_DIR (src/kepes by default) and in total, its
line count as `wc -l` gives it and the split of those lines into code,
docstring, comment and blank lines.  A docstring line is a line of a
module, class or function docstring; a comment line holds only a
comment; a blank line is empty or white space inside no docstring; every
other line is code.
"""

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def split(text: str) -> dict:
    """The count of each kind of line of the Python source text."""
    lines = text.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for k, line in enumerate(lines, 1):
        stripped = line.strip()
        kind = ("docstring" if k in docs else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0] if args else Path(__file__).parents[1] / "src/kepes")
    rows = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        # wc -l counts newline characters
        rows.append((path.stem, text.count("\n"), split(text)))
    total = {kind: sum(r[2][kind] for r in rows) for kind in KINDS}
    rows.append(("total", sum(r[1] for r in rows), total))
    print(f"{'module':16s} {'wc -l':>6s} " + " ".join(f"{k:>9s}" for k in KINDS))
    for name, wc, counts in rows:
        print(f"{name:16s} {wc:6d} "
              + " ".join(f"{counts[k]:9d}" for k in KINDS))
    return rows


if __name__ == "__main__":
    main()
