"""Flip one comparison at a time and report the flips no test notices.

    python3 scripts/mutants.py --files src/roundsched/checker.py \\
        src/roundsched/ilp.py --out mutants.json

Each mutant changes one comparison operator of one of the files: < and
<= swap, so do > and >=, and == and !=.  The tree (--root, the
repository by default) is copied to a temporary directory, and every
mutant is written and tested there, so the tree itself is never
modified.  A mutant is killed when Tier-1, run with -x, fails on it or
runs past TIMEOUT_S, as a mutant that never ends would; otherwise it
survives.

Before the first mutant, the script checks that Tier-1 passes on the
copy with each file replaced by its ast.unparse() text, the text every
mutant is written in, and it checks that each mutant's text differs from
that text.  Either check failing stops the run with exit code 2.

The output file is rewritten after each mutant, so an interrupted run
keeps what it tested.  It holds every mutant and, under "survivors",
the file, line and column (both 1-based) of each surviving operator with
the flip it survived, such as "<= -> <".
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Eq: "==", ast.NotEq: "!="}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 600  # ten times an unmutated Tier-1 run


def sites(source: str) -> list[tuple[int, int, int, int, type]]:
    """(compare index, op index, line, column, operator) of every
    comparison the script flips, in source order; line and column are
    1-based and locate the operator itself."""
    lines = source.encode().splitlines()
    out = []
    compares = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Compare)]
    for c_idx, node in enumerate(compares):
        operands = [node.left, *node.comparators]
        for o_idx, op in enumerate(node.ops):
            if type(op) not in FLIPS:
                continue
            # the operator is the first character after its left operand
            # that is not blank, a closing parenthesis or a line break
            line, col = operands[o_idx].end_lineno - 1, operands[o_idx].end_col_offset
            while col >= len(lines[line]) or lines[line][col:col + 1] in b" \t)\\":
                if col >= len(lines[line]):
                    line, col = line + 1, 0
                else:
                    col += 1
            out.append((c_idx, o_idx, line + 1, col + 1, type(op)))
    return sorted(out, key=lambda site: site[2:4])


def mutant(source: str, c_idx: int, o_idx: int) -> str:
    """The unparsed source with one comparison operator flipped."""
    tree = ast.parse(source)
    node = [n for n in ast.walk(tree) if isinstance(n, ast.Compare)][c_idx]
    node.ops[o_idx] = FLIPS[type(node.ops[o_idx])]()
    return ast.unparse(tree)


def tier1(tree: Path) -> str:
    """"pass", "fail" or "timeout" of Tier-1 on the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if proc.returncode == 0 else "fail"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--files", nargs="+", required=True,
                    help="Python files to mutate, relative to --root")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--root", default=str(ROOT), help="tree to copy and test")
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    originals = {f: (root / f).read_text() for f in args.files}
    unparsed = {f: ast.unparse(ast.parse(src)) for f, src in originals.items()}
    doc: dict = {"root": str(root), "files": args.files, "command": " ".join(TIER1[1:]),
                 "mutants": [], "survivors": []}

    def write() -> None:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        for f, text in unparsed.items():
            (tree / f).write_text(text)
        start = time.monotonic()
        doc["baseline"] = tier1(tree)
        doc["baseline_s"] = round(time.monotonic() - start, 1)
        write()
        if doc["baseline"] != "pass":
            print(f"Tier-1 does not pass on the unparsed files: {doc['baseline']}",
                  file=sys.stderr)
            return 2
        for f in args.files:
            for c_idx, o_idx, line, col, op in sites(originals[f]):
                text = mutant(originals[f], c_idx, o_idx)
                if text == unparsed[f]:
                    print(f"{f}:{line}:{col}: the mutant's text is the original's",
                          file=sys.stderr)
                    return 2
                (tree / f).write_text(text)
                start = time.monotonic()
                outcome = tier1(tree)
                (tree / f).write_text(unparsed[f])
                entry = {"file": f, "line": line, "col": col,
                         "operator": f"{SYMBOLS[op]} -> {SYMBOLS[FLIPS[op]]}",
                         "tier1": outcome, "seconds": round(time.monotonic() - start, 1)}
                doc["mutants"].append(entry)
                if outcome == "pass":
                    doc["survivors"].append(entry)
                write()
                print(f"{f}:{line}:{col} {entry['operator']}: "
                      f"{'survived' if outcome == 'pass' else 'killed'}", flush=True)
    print(f"{len(doc['mutants'])} mutants, {len(doc['survivors'])} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
