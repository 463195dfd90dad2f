"""A snapshot of a directory tree, for tests that require a refused command
to leave the file system as it found it: no file and no directory made."""

from pathlib import Path


def tree(root):
    """Every directory and file under `root` as a sorted list of relative
    paths, each directory's ending in "/"."""
    root = Path(root)
    return sorted(str(p.relative_to(root)) + ("/" if p.is_dir() else "")
                  for p in root.rglob("*"))
