"""Source lines of each module under ``src/atlm``, with the total.

Usage:
    python scripts/count_lines.py         # the working tree
    python scripts/count_lines.py REV     # git revision REV against the working tree

A line counts unless it is blank or a comment (its first non-space
character is ``#``); docstring lines count.  Modules are listed by name in
sorted order, then the total.  With no argument each line is ``name count``.
With REV, read with ``git show``, each line is ``name count-at-REV
count-in-the-working-tree difference`` under a header, and a module missing
on one side counts 0 there.
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
        sides = [sources(rev) for rev in [*argv, None]]
    except subprocess.CalledProcessError as exc:
        print(f"count_lines: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    counts = {name: [count(side.get(name, "")) for side in sides]
              for name in sorted(set().union(*sides))}
    counts["total"] = [sum(lines[i] for lines in counts.values()) for i in range(len(sides))]
    width = max(map(len, counts))
    if not argv:
        for name, (lines,) in counts.items():
            print(f"{name:<{width}} {lines}")
        return 0
    rev = max(6, len(argv[0]))
    print(f"{'':<{width}} {argv[0]:>{rev}} {'tree':>6} {'diff':>6}")
    for name, (old, new) in counts.items():
        print(f"{name:<{width}} {old:>{rev}} {new:>6} {new - old:>+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
