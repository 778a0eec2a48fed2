"""Source lines of each module under ``src/atlm``, with the total.

Usage:
    python scripts/count_lines.py         # the working tree
    python scripts/count_lines.py REV     # any git revision, read with ``git show``

A line counts unless it is blank or a comment (its first non-space
character is ``#``); docstring lines count.  Modules are listed by name in
sorted order, one ``name count`` line each, then ``total count``.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/atlm"


def count(text: str) -> int:
    """Lines of ``text`` that are neither blank nor comments."""
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def sources(rev: str | None) -> dict[str, str]:
    """Module name to source text, from the working tree or from ``rev``."""
    if rev is None:
        return {path.stem: path.read_text(encoding="utf-8")
                for path in (ROOT / PACKAGE).glob("*.py")}

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                              text=True).stdout

    paths = git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {Path(path).stem: git("show", f"{rev}:{PACKAGE}/{path}")
            for path in paths if path.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv[:1] in (["-h"], ["--help"]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        modules = sources(argv[0] if argv else None)
    except subprocess.CalledProcessError as exc:
        print(f"count_lines: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    counts = {name: count(text) for name, text in sorted(modules.items())}
    width = max(map(len, [*counts, "total"]))
    for name, lines in counts.items():
        print(f"{name:<{width}} {lines}")
    print(f"{'total':<{width}} {sum(counts.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
