"""SHA-256 of every CLI corpus output, one line per spec and format.

Usage, from any directory:
    python scripts/corpus_digests.py > digests.txt

Runs `ctrlkit.cli.main` in-process on each spec of `CLI_CORPUS`
(tests/test_acceptance.py), once with `--format report` and once with
`--format csv`, against the package under this checkout's `src/`.  Each line
is `sha256  argv  format`.  A refactor shows that no output moved by a `diff`
of this script's output on the parent commit and on the change.
"""

import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from ctrlkit.cli import main  # noqa: E402
from test_acceptance import CLI_CORPUS, SPECS  # noqa: E402


def digest(argv, fmt):
    out = io.StringIO()
    cmd = [argv[0], os.path.join(SPECS, argv[1]), *argv[2:], f"--format={fmt}"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(cmd)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} --format={fmt} exited with {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


for argv in CLI_CORPUS:
    for fmt in ("report", "csv"):
        print(f"{digest(argv, fmt)}  {' '.join(argv)}  {fmt}")
