"""A ratchet on the lines of src/rlx.

The count is that of `wc -l src/rlx/*.py`: the newlines of every module.
The rule, like the assert ratchet's, is one way:
- whoever removes lines lowers the pin to the new count;
- a change that makes rlx faster never raises it: it pays for its lines
  by removing as many elsewhere;
- only a change that adds theorem ids to the matrix may raise it, by no
  more than the line budget of its roadmap item.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rlx"
LINE_PIN = 4_476


def test_line_count_is_pinned():
    count = sum(path.read_bytes().count(b"\n")
                for path in sorted(SRC.glob("*.py")))
    assert count == LINE_PIN, (
        f"{count:,} lines in src/rlx, pinned at {LINE_PIN:,}: remove as many "
        "lines as a speed-up adds; after removing lines, lower the pin")
