"""tools/compare_parent.py names every output that differs between two trees."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_parent", ROOT / "tools" / "compare_parent.py"
)
compare_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_parent)


def test_outputs_match_byte_for_byte_apart_from_the_plan_wall_time(tmp_path):
    ref, new = tmp_path / "ref", tmp_path / "new"
    ref.mkdir()
    new.mkdir()
    plan = '{\n "payload": {\n  "best_return": 1.5,\n  "solve_seconds": %s\n }\n}\n'
    (ref / "plan.json").write_text(plan % "0.25")
    (new / "plan.json").write_text(plan % "0.5")
    # The wall-time line is ignored in plan.json only.
    (ref / "eval.json").write_text('"solve_seconds": 1\n')
    (new / "eval.json").write_text('"solve_seconds": 2\n')
    (ref / "policy.json").write_bytes(b"same")
    (new / "policy.json").write_bytes(b"same")
    (ref / "old.csv").write_text("x")
    (new / "new.csv").write_text("x")
    assert compare_parent.compare_outputs(ref, new) == [
        ("eval.json", 'bytes differ from line 1, column 18\n'
                      '  REF:       "solve_seconds": 1\n'
                      '  this tree: "solve_seconds": 2'),
        ("new.csv", "only in this tree"),
        ("old.csv", "only in REF"),
    ]


def test_a_difference_names_its_first_line_and_column(tmp_path):
    ref, new = tmp_path / "ref", tmp_path / "new"
    ref.mkdir()
    new.mkdir()
    # Lines after plan.json's ignored wall-time line keep their numbers.
    plan = '{\n "solve_seconds": %s,\n "best_return": %s\n}\n'
    (ref / "plan.json").write_text(plan % ("0.25", "1.5"))
    (new / "plan.json").write_text(plan % ("0.5", "1.25"))
    # A long line is cut to SHOWN characters from a little before the column.
    row = "0.02," * 100
    (ref / "a.csv").write_bytes(b"t,x\r\n" + (row + "np.float64(0.5)," + row + "\r\n").encode())
    (new / "a.csv").write_bytes(b"t,x\r\n" + (row + "0.5," + row + "\r\n").encode())
    # One output is the other with a line more.
    (ref / "b.csv").write_text("t\n1\n")
    (new / "b.csv").write_text("t\n1\n2\n")
    shown = compare_parent.SHOWN
    start = 500 - shown // 4
    assert dict(compare_parent.compare_outputs(ref, new)) == {
        "a.csv": "bytes differ from line 2, column 501\n"
                 f"  REF:       ...{(row + 'np.float64(0.5),' + row)[start:start + shown]}...\n"
                 f"  this tree: ...{(row + '0.5,' + row)[start:start + shown]}...",
        "b.csv": "bytes differ from line 3, column 1\n"
                 "  REF:       (no such line)\n"
                 "  this tree: 2",
        "plan.json": "bytes differ from line 3, column 19\n"
                     '  REF:        "best_return": 1.5\n'
                     '  this tree:  "best_return": 1.25',
    }


def test_a_deliberately_changed_output_is_reported(tmp_path):
    """REF is a commit whose physics use another gravity: every output the
    physics feed is named, and the library and encoder outputs are not. The
    near gap changes what eval and plan do on flat ground."""
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src" / "modeloco", repo / "src" / "modeloco",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(repo / "src" / "modeloco" / "sim.py", "a") as f:
        f.write("\nGRAVITY = 9.80\n")
    git = ["git", "-C", str(repo), "-c", "user.name=test", "-c", "user.email=test@example.com"]
    for args in (["init", "-q"], ["add", "src"], ["commit", "-q", "-m", "other gravity"]):
        subprocess.run([*git, *args], check=True)
    compare_parent.extract_src(repo, "HEAD", tmp_path / "ref-tree")
    names, differences = compare_parent.compare_trees(
        tmp_path / "ref-tree", ROOT, tmp_path / "work"
    )
    assert len(names) == 24
    differing = {name for name, _ in differences}
    assert {"library.json", "encoder.json", "encoder.json.loss.csv",
            "near_gap.json"}.isdisjoint(differing)
    assert {"policy.json", "resumed.json.checkpoint.json", "eval.json.walk_f.csv",
            "plan.json.trace.csv", "eval_near_gap.json.walk_f.csv",
            "plan_near_gap.json.trace.csv"} <= differing
    assert all(how.startswith("bytes differ from line ") for _, how in differences)
    new = tmp_path / "work" / "new"
    flat = sorted(name for name in names if name.startswith(("eval.json.", "plan.json.")))
    assert len(flat) == 5
    for name in flat:
        near = name.replace(".json.", "_near_gap.json.")
        assert (new / near).read_bytes() != (new / name).read_bytes(), name
