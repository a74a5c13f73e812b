"""The CLI's pinned command lines: one table of rows, one runner.

Each row of ``data/cli_pins.json`` is one command line and what it must do:

- ``why``: what the row pins, and since when;
- ``argv``: the arguments after ``tracekit``, with paths relative to the
  repository root, where ``{tmp}`` names an empty directory of the row's own;
- ``files`` (optional): name -> text of input documents written to ``{tmp}``
  before the command runs;
- ``status``: the exit status;
- ``stdout``: the full text, or in its place ``stdout_sha256``: the sha256 of
  its UTF-8 bytes, for long outputs;
- ``stderr``: the full text;
- ``out`` (optional): name -> sha256 of every file the command leaves in
  ``{tmp}`` beside its inputs; without it the command must leave none.

Every JSON document a row writes must also be canonical text, the text of
``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)`` and a
newline: the stdout of a ``determinize`` or ``minimize`` that exits 0
without ``--out``, and every ``.json`` file it leaves in ``{tmp}``.

``tests/test_cli.py`` runs every row through ``cli.main`` in-process. Run as a
script from anywhere, with the package installed, this module runs every row
through the installed ``tracekit`` console script instead, with the standard
library only::

    python tests/cli_pins.py
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "data" / "cli_pins.json"
REQUIRED = {"why", "argv", "status", "stderr"}
OPTIONAL = {"files", "stdout", "stdout_sha256", "out"}


def rows():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _canonical(data):
    """Whether the bytes data are the canonical text of a JSON document."""
    try:
        text = data.decode("utf-8")
        return text == json.dumps(json.loads(text), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    except ValueError:
        return False


def mismatches(row, run, tmp):
    """Run one row in the empty directory tmp; list how it differs from its pins.

    run(argv) runs one command line with the repository root as its working
    directory and returns its exit status, stdout and stderr, the last two as
    text. An empty list means the row holds.
    """
    keys = set(row)
    if not REQUIRED <= keys <= REQUIRED | OPTIONAL or ("stdout" in keys) == ("stdout_sha256" in keys):
        return [f"malformed row, keys {sorted(keys)}"]
    tmp = Path(tmp)
    inputs = row.get("files", {})
    for name, text in inputs.items():
        (tmp / name).write_bytes(text.encode("utf-8"))
    status, stdout, stderr = run([arg.replace("{tmp}", str(tmp)) for arg in row["argv"]])
    left = {p.name: p.read_bytes() for p in sorted(tmp.iterdir()) if p.name not in inputs}
    got = {"status": status, "stderr": stderr, "out": {name: _sha256(data) for name, data in left.items()}}
    if "stdout" in row:
        got["stdout"] = stdout
    else:
        got["stdout_sha256"] = _sha256(stdout.encode("utf-8"))
    documents = {name: data for name, data in left.items() if name.endswith(".json")}
    if status == 0 and row["argv"][0] in ("determinize", "minimize") and not any(a.startswith("--out") for a in row["argv"]):
        documents["stdout"] = stdout.encode("utf-8")
    return [f"{key}: expected {row.get(key, {})!r}, got {value!r}"
            for key, value in got.items() if value != row.get(key, {})] + [
        f"{name}: not the canonical text of its JSON document" for name, data in documents.items() if not _canonical(data)]


def main():
    script = shutil.which("tracekit")
    if script is None:
        print("tracekit is not on PATH", file=sys.stderr)
        return 1

    def run(argv):
        done = subprocess.run([script, *argv], cwd=ROOT, capture_output=True)
        return done.returncode, done.stdout.decode("utf-8"), done.stderr.decode("utf-8")

    table = rows()
    failed = 0
    for i, row in enumerate(table):
        with tempfile.TemporaryDirectory() as tmp:
            found = mismatches(row, run, tmp)
        if found:
            failed += 1
            print(f"row {i}: tracekit {' '.join(row.get('argv', []))}", *found, sep="\n  ", file=sys.stderr)
    print(f"{len(table) - failed} of {len(table)} pinned command lines hold ({script})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
