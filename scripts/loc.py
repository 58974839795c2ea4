#!/usr/bin/env python3
"""Non-test line counts of Rust sources, per file and per crate.

A file's non-test lines are the lines before its first `#[cfg(test)]`
(all of them when it has none); `wc -l` is shown beside them. Paths are
files or directories (searched for `*.rs`), relative to the working
directory.

    scripts/loc.py crates/trace/src crates/profile/src
    scripts/loc.py --parent ../parent-checkout crates/timeline/src src/bin/mfbc-cli.rs

With `--parent DIR` the same paths are also counted under DIR and the
markdown table gets a parent column and the change per row; a file
present on one side only counts 0 on the other.
"""

import argparse
import pathlib
import sys


def count(path):
    """(non-test lines, total lines) of one file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if line.strip().startswith("#[cfg(test)]"):
            return i, len(lines)
    return len(lines), len(lines)


def files(root, paths):
    """Relative path -> (non-test, total) for every `.rs` file under paths."""
    out = {}
    for p in paths:
        full = root / p
        found = sorted(full.rglob("*.rs")) if full.is_dir() else [full] if full.exists() else []
        for f in found:
            out[str(f.relative_to(root))] = count(f)
    return out


def crate(rel):
    """`crates/<name>/…` -> `<name>`; anything else is the root package."""
    parts = pathlib.PurePath(rel).parts
    return parts[1] if len(parts) > 2 and parts[0] == "crates" else "(root)"


def group(counts, by):
    if by == "file":
        return counts
    out = {}
    for rel, (n, t) in counts.items():
        a, b = out.get(crate(rel), (0, 0))
        out[crate(rel)] = (a + n, b + t)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+")
    ap.add_argument("--parent", type=pathlib.Path, help="a checkout to compare against")
    ap.add_argument("--by", choices=["file", "crate"], default="file")
    args = ap.parse_args()

    change = group(files(pathlib.Path("."), args.paths), args.by)
    if args.parent is None:
        print(f"| {args.by} | non-test | [`wc -l`] |")
        print("|---|--:|---|")
        for key in sorted(change):
            n, t = change[key]
            print(f"| `{key}` | {n} | [{t}] |")
        n = sum(v[0] for v in change.values())
        t = sum(v[1] for v in change.values())
        print(f"| **total** | **{n}** | [{t}] |")
        return 0

    parent = group(files(args.parent, args.paths), args.by)
    print(f"| {args.by} | parent | change | Δ non-test | [`wc -l` parent → change] |")
    print("|---|--:|--:|--:|---|")
    totals = [0, 0, 0, 0]
    for key in sorted(set(parent) | set(change)):
        pn, pt = parent.get(key, (0, 0))
        cn, ct = change.get(key, (0, 0))
        for i, v in enumerate((pn, cn, pt, ct)):
            totals[i] += v
        print(f"| `{key}` | {pn} | {cn} | {cn - pn:+d} | [{pt} → {ct}] |")
    pn, cn, pt, ct = totals
    print(f"| **total** | **{pn}** | **{cn}** | **{cn - pn:+d}** | [{pt} → {ct}] |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
