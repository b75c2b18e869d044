"""Byte comparison of two pipeline output trees (`--out` directories).

Every file in either tree is compared, in every subdirectory (the `sv_on/`
and `sv_off/` runs of `--ablate-sv`). `timings.json` is compared by its key
set, since its wall-clock values differ from run to run by design; every
other file by its bytes. A file present in only one tree differs. This is the
equal-bytes rule; a change that moves bits on purpose states per-file
tolerances instead.

    python3 tests/artifacts.py OUT_A OUT_B

prints one line per file and exits 1 if any file differs.
"""

from __future__ import annotations

import json
import os
import sys

KEYED = {"timings.json"}  # JSON objects compared by their key sets


def _files(root: str) -> set:
    """Every file under root, as a path relative to it."""
    found = set()
    for parent, _, names in os.walk(root):
        rel = os.path.relpath(parent, root)
        found |= {os.path.normpath(os.path.join(rel, name)) for name in names}
    return found


def _keys(path: str) -> set:
    with open(path, "r", encoding="utf-8") as fh:
        return set(json.load(fh))


def _same(a: str, b: str) -> bool:
    if not (os.path.isfile(a) and os.path.isfile(b)):
        return False
    if os.path.basename(a) in KEYED:
        return _keys(a) == _keys(b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def compare_trees(a: str, b: str) -> dict:
    """{relative path: whether both trees hold that file with equal bytes, or
    for `timings.json` equal keys}, sorted by path."""
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
