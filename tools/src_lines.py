"""Print the total and code-only line counts of each src/qcorr module.

Code-only lines carry at least one token that is neither a comment nor a
docstring; blank lines, comment lines and docstring lines are left out.  A
docstring is a string literal that is a statement on its own, which is how
the first statement of a module, class or function holds one.  A token that
spans several lines counts on each of them.

    python3 tools/src_lines.py [DIR]

DIR defaults to src/qcorr beside this script's parent directory.
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """Lines of source that hold code, not counting docstrings, comments
    and blank lines."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        docstring = (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "qcorr"
    total = code = 0
    print(f"{'module':<16s} {'total':>6s} {'code':>6s}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n_total, n_code = len(source.splitlines()), code_lines(source)
        total, code = total + n_total, code + n_code
        print(f"{path.name:<16s} {n_total:>6d} {n_code:>6d}")
    print(f"{'all':<16s} {total:>6d} {code:>6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
