"""Byte comparison of two pipeline output trees (`--out` directories).

Every file in either tree is compared, in every subdirectory (the `sv_on/`
and `sv_off/` runs of `--ablate-sv`), except `timings.json`, whose
wall-clock values differ from run to run by design. A file present in only
one tree differs. This is the equal-bytes rule; a change that moves bits on
purpose states per-file tolerances instead.

    python3 tests/artifacts.py OUT_A OUT_B

prints one line per file and exits 1 if any file differs.
"""

from __future__ import annotations

import os
import sys

SKIPPED = {"timings.json"}


def _files(root: str) -> set:
    """Every compared file under root, as paths relative to it."""
    found = set()
    for parent, _, names in os.walk(root):
        rel = os.path.relpath(parent, root)
        found |= {os.path.normpath(os.path.join(rel, name)) for name in names if name not in SKIPPED}
    return found


def _same(a: str, b: str) -> bool:
    if not (os.path.isfile(a) and os.path.isfile(b)):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def compare_trees(a: str, b: str) -> dict:
    """{relative path: whether both trees hold that file with equal bytes}, sorted by path."""
    return {rel: _same(os.path.join(a, rel), os.path.join(b, rel)) for rel in sorted(_files(a) | _files(b))}


def main(argv=None) -> int:
    a, b = sys.argv[1:] if argv is None else argv
    same = compare_trees(a, b)
    for rel, ok in same.items():
        print(f"{'same' if ok else 'DIFFERS'} {rel}")
    print(f"{sum(same.values())} of {len(same)} files identical")
    return 0 if same and all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
