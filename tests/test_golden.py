"""Golden CLI transcript: fixed commands, their exact stdout and exit codes.

`tests/data/golden_transcript.txt` holds, for each command in COMMANDS,
a `$ <argv>` line, the command's stdout verbatim and a `? <exit code>`
line. The test re-runs every command in process and compares the whole
transcript byte for byte. To rewrite the file after an intended output
change, run `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import os
import shlex

from qdissect import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_transcript.txt")

COMMANDS = (
    "verify --all --json --precision 60",
    "scan --max-a 128 --moduli 8,16,32 --table-size 4000 --min-support 20",
    "scan --max-a 128 --moduli 3,9 --table-size 4000 --min-support 20",
    "family --json",
    "internal --json",
    "aaw-check --json --precision 60 --l-precision 200",
    "dump-table --mod 16 --count 500 --table-size 2000",
    "dump-table --mod 9 --count 500 --table-size 2000",
    "dump-table --mod 1000000000039 --count 500 --table-size 2000",
    "dump-table --count 300 --table-size 300",
    "expand 'f2*f3/(f1*f6^2)' --precision 60",
    "dissect '@S 4:3' --precision 40",
    "dissect '@S 16:11' --mod 16 --precision 100",
    "dump-table --mod 1",
    "verify f1f3-2diss s-2diss-0 s16n11-mod16 --precision 60",
    "family --table-size 4000",
    "internal --table-size 4000",
    "aaw-check --precision 48 --l-precision 64",
    "dissect f1 2:0 --precision 8",
    "oracle --limit 10",
)


def transcript() -> str:
    parts = []
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(shlex.split(command))
        parts.append(f"$ {command}\n{out.getvalue()}? {code}\n")
    return "".join(parts)


def test_golden_transcript():
    with open(GOLDEN, encoding="utf-8") as fh:
        expected = fh.read()
    assert transcript() == expected


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(transcript())
