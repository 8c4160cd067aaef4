"""Compare the CLI output of two expocert source trees, command by command.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the `expocert` package, such as the
`src` of a checkout. Every `unit`, `wide` and `grid` command that
perfbench/workloads.py builds at seeds 3, 41 and 401, and then every
command of the golden transcript in tests/test_cli_golden.py, runs
through that tree's `expocert.cli.run`, one tree per subprocess. Both
trees write their certificates into one directory, because stdout names
the certificate path. The workloads and the transcript are read from the
checkout that holds this script, for both trees.

Prints each command whose exit code, stdout, stderr or certificate bytes
differ, and exits 1 if any do, 0 if none do.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("unit", "wide", "grid")
SEEDS = (3, 41, 401)
FIELDS = ("exit", "stdout", "stderr", "cert")
# diff lines shown per differing field
SHOWN = 12


def _run(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _records(src: str, workdir: Path) -> list[list]:
    """[label, exit, stdout, stderr, cert] for every command, run by the
    expocert under src."""
    sys.path[:0] = [src, str(ROOT / "perfbench"), str(ROOT / "tests")]
    import expocert
    from expocert import cli

    if Path(expocert.__file__).resolve().parent != (Path(src) / "expocert").resolve():
        sys.exit(f"error: imported expocert from {expocert.__file__}, not from {src}")
    import test_cli_golden
    import workloads

    records = []
    for name in WORKLOADS:
        for seed in SEEDS:
            for cmd in workloads.BUILDERS[name](seed, workdir):
                if cmd.cert:
                    cmd.cert.unlink(missing_ok=True)
                code, out, err = _run(cli, cmd.argv)
                cert = cmd.cert.read_text() if cmd.cert and cmd.cert.exists() else None
                label = f"{name}/{seed}: {' '.join(cmd.argv)}"
                records.append([label, code, out, err, cert])
    # the transcript renders exit code, stdout and stderr of each command
    # in one block that starts with "$ expocert"
    for block in re.split(r"\n(?=\$ expocert )", test_cli_golden.transcript()):
        records.append([f"golden: {block.splitlines()[0]}", 0, block, "", None])
    return records


def _collect(src: str, workdir: Path) -> list[list]:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", src, str(workdir)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"error: the run of {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _shown(field: str, old, new) -> list[str]:
    if field == "exit" or old is None or new is None:
        return [f"    {field}: {old!r} -> {new!r}"]
    lines = list(difflib.unified_diff(
        old.splitlines(), new.splitlines(), "parent", "change", lineterm="", n=0
    ))
    return [f"    {field}:"] + [f"      {line}" for line in lines[2:2 + SHOWN]]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--child"] and len(args) == 3:
        json.dump(_records(args[1], Path(args[2])), sys.stdout)
        return 0
    if len(args) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    parent_src, change_src = (str(Path(a).resolve()) for a in args)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        workdir = Path(tmp)
        parent = _collect(parent_src, workdir)
        change = _collect(change_src, workdir)
    if [r[0] for r in parent] != [r[0] for r in change]:
        print("the two trees ran different command lists")
        return 1
    differing = 0
    for old, new in zip(parent, change):
        fields = [f for f, a, b in zip(FIELDS, old[1:], new[1:]) if a != b]
        if not fields:
            continue
        differing += 1
        print(old[0])
        for f in fields:
            i = FIELDS.index(f) + 1
            print("\n".join(_shown(f, old[i], new[i])))
    print(f"{len(parent)} commands compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
