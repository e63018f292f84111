#!/usr/bin/env python3
"""Byte identity with another commit: run one fixed pipeline on this tree's
`src/modeloco` and on REF's, then compare every output file.

    python3 tools/compare_parent.py REF

REF is any git revision: a commit, a branch or a merge base. Its `src` is
extracted with `git archive` into a temporary directory, so the check is
local, needs no network and registers no worktree. This tree is taken as it
is on disk, uncommitted edits included. Both trees write the same terrain file
(`NEAR_GAP`) and run the same argv (`PIPELINE`) in fresh interpreters with one
BLAS thread; the 24 outputs must match byte for byte, except the wall time on
the `solve_seconds` line of each plan. Digests committed to the repository
would not do: they depend on the numpy, BLAS and libm build, while two trees
on one machine share it.

Prints one line per output that differs or exists in one tree only; for one
that differs, also where its first differing line and column are, and that
line in both trees, cut to `SHOWN` characters around the column. Exits 0
when every output matches, 1 when some differ, 2 when a command fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A terrain file that the pipeline's policy reaches, so that contacts with a
# gap's edge are compared: a gap from x = 0.02 to 0.47. Each tree writes it
# with its own artifact writer, into the output directory.
NEAR_GAP = "near_gap.json"
WRITE_NEAR_GAP = ("from modeloco.fileio import write_artifact; write_artifact("
                  f"{NEAR_GAP!r}, 'terrain', {{'breakpoints': [[0.02, -1.0], [0.47, 0.0]]}})")

# The five stages on pi3, with a checkpoint resume, and eval and plan on flat
# ground and on the near gap: 24 output files with the terrain file. The
# resumed run takes 3 episodes per update, so that its batches' episodes do
# not line up with the PPO update's 4 minibatches.
PIPELINE = (
    ("gen-refs", "--modeset", "pi3", "--out", "library.json"),
    ("train-encoder", "--library", "library.json", "--out", "encoder.json", "--epochs", "60"),
    ("train-policy", "--library", "library.json", "--out", "policy.json",
     "--updates", "6", "--checkpoint-every", "2"),
    ("train-policy", "--library", "library.json", "--out", "resumed.json",
     "--resume", "policy.json.checkpoint.json", "--updates", "3",
     "--episodes-per-update", "3"),
    ("eval", "--library", "library.json", "--policy", "policy.json", "--rollouts", "6",
     "--out", "eval.json"),
    ("plan", "--library", "library.json", "--policy", "policy.json", "--terrain", "flat",
     "--out", "plan.json"),
    ("eval", "--library", "library.json", "--policy", "policy.json", "--rollouts", "6",
     "--terrain", NEAR_GAP, "--out", "eval_near_gap.json"),
    ("plan", "--library", "library.json", "--policy", "policy.json", "--terrain", NEAR_GAP,
     "--out", "plan_near_gap.json"),
)

# The one output line that may differ, in each plan: the planner's wall time.
WALL_TIME_FILES, WALL_TIME_LINE = ("plan.json", "plan_near_gap.json"), b'"solve_seconds":'

# The characters shown of each side of a differing line.
SHOWN = 100


class PipelineError(RuntimeError):
    """A command of the pipeline failed."""


def extract_src(repo: Path, ref: str, dest: Path) -> None:
    """Write REF's `src` directory of the git repository `repo` under `dest`."""
    dest.mkdir(parents=True)
    archive = dest / "src.tar"
    for argv in (
        ["git", "-C", str(repo), "archive", "--output", str(archive), ref, "src"],
        ["tar", "-xf", str(archive), "-C", str(dest)],
    ):
        done = subprocess.run(argv, capture_output=True, text=True)
        if done.returncode != 0:
            raise PipelineError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr}")
    archive.unlink()


def run_pipeline(tree: Path, out: Path) -> None:
    """Write `NEAR_GAP` and run `PIPELINE` with `tree`'s `src/modeloco`, in
    `out`."""
    out.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(tree / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    for argv in [("-c", WRITE_NEAR_GAP)] + [("-m", "modeloco.cli", *a) for a in PIPELINE]:
        done = subprocess.run(
            [sys.executable, *argv], cwd=out, env=env, capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise PipelineError(
                f"{tree}: python {' '.join(argv)} exited {done.returncode}: {done.stderr}"
            )


def _lines(path: Path) -> list[bytes] | None:
    """The lines of an output, ends kept, with a plan's wall-time line blanked
    so that the lines after it keep their numbers."""
    if not path.exists():
        return None
    lines = path.read_bytes().splitlines(keepends=True)
    if path.name not in WALL_TIME_FILES:
        return lines
    return [b"\n" if WALL_TIME_LINE in line else line for line in lines]


def _line(lines: list[bytes], n: int) -> str | None:
    """Line n of lines as text, its end dropped; None past the last line."""
    return lines[n].decode("utf-8", "replace").rstrip("\r\n") if n < len(lines) else None


def _excerpt(text: str | None, start: int) -> str:
    if text is None:
        return "(no such line)"
    cut = text[start:start + SHOWN]
    return ("..." if start else "") + cut + ("..." if start + SHOWN < len(text) else "")


def first_difference(a: list[bytes], b: list[bytes]) -> str:
    """Where two different line lists first differ: the line and column, from
    1, and that line of each, REF's first, cut to `SHOWN` characters from a
    little before the column."""
    n = 0
    while n < min(len(a), len(b)) and a[n] == b[n]:
        n += 1
    x, y = _line(a, n), _line(b, n)
    pairs = zip(x or "", y or "")
    column = next((i for i, (p, q) in enumerate(pairs) if p != q), min(len(x or ""), len(y or "")))
    start = max(0, column - SHOWN // 4)
    return (f"bytes differ from line {n + 1}, column {column + 1}\n"
            f"  REF:       {_excerpt(x, start)}\n"
            f"  this tree: {_excerpt(y, start)}")


def compare_outputs(ref: Path, new: Path) -> list[tuple[str, str]]:
    """(file name, how it differs) for each output of two runs that is not
    the same in both."""
    names = sorted({p.name for p in ref.iterdir()} | {p.name for p in new.iterdir()})
    differences = []
    for name in names:
        a, b = _lines(ref / name), _lines(new / name)
        if a is None or b is None:
            differences.append((name, "only in " + ("this tree" if a is None else "REF")))
        elif a != b:
            differences.append((name, first_difference(a, b)))
    return differences


def compare_trees(
    ref_tree: Path, new_tree: Path, work: Path
) -> tuple[list[str], list[tuple[str, str]]]:
    """Run the pipeline on both trees under `work`; the output names of the
    new tree and the differences."""
    run_pipeline(ref_tree, work / "ref")
    run_pipeline(new_tree, work / "new")
    names = sorted(p.name for p in (work / "new").iterdir())
    return names, compare_outputs(work / "ref", work / "new")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare against, e.g. a merge base")
    ref = parser.parse_args(argv).ref
    with tempfile.TemporaryDirectory(prefix="compare-parent-") as tmp:
        work = Path(tmp)
        try:
            extract_src(ROOT, ref, work / "ref-tree")
            names, differences = compare_trees(work / "ref-tree", ROOT, work)
        except PipelineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for name, how in differences:
        print(f"DIFFERS {name}: {how}")
    same = len(set(names) - {name for name, _ in differences})
    print(f"{same} of {len(names)} outputs identical to {ref}, "
          "apart from the plans' wall times")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
