"""Byte-identity check of the benchmark's commands between two checkouts.

    python tests/same_bytes.py OLD_ROOT NEW_ROOT [--seed S] [--rel TOL]

Writes the seeded CSV input of the ``rates-holdout`` workload once, then
runs every command of both benchmark workloads (perfbench/workloads.py,
imported read-only) and each root's copy of the four demos
(``demos/*.py``: bound_checks, early_stopping, error_decomposition,
learning_curves) in a fresh process under each root's ``src``, each
command in its own empty directory and with the same ``--data`` path on
both sides. Every artifact a command writes and its stdout are compared
byte for byte. Prints one line per difference and exits 1 if any file
differs or is written on one side only, 2 if a command fails, 0 when
everything is identical.

With ``--rel TOL`` a file whose bytes differ is parsed instead
(:func:`compare`): a JSON artifact number by number along its paths, a
CSV artifact cell by cell below its ``# config:`` line (all of it where
it has none). The script
prints each such file's largest relative change |a - b| / max(|a|, |b|)
and exits 1 only where a token that is not a number differs (a key, a
text cell, a separator, stdout) or a number moves by more than TOL.
Standard library only; pytest does not collect this file, as its name
does not start with ``test_``.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def _env(root):
    """The root's package, and no variable that changes thread counts."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("SGDLSQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "PYTHONSTARTUP", "PYTHONHOME"):
        env.pop(var, None)
    return env


def _cli(cmd):
    """The arguments of a benchmark command, under any root."""
    return lambda root: ["-m", "sgdlsq.cli", *cmd.argv()]


def _demo(name):
    """The arguments of the demo ``name``, the root's own copy."""
    return lambda root: [str(Path(root).resolve() / "demos" / name)]


def _outputs(root, commands, workdir):
    """{file name: bytes} per (label, arguments of a root) command: its
    artifacts and its stdout, run under ``root``; a RuntimeError names a
    command that fails."""
    outputs = []
    for i, (label, args) in enumerate(commands):
        cdir = workdir / f"c{i}"
        cdir.mkdir(parents=True)
        argv = [sys.executable, *args(root)]
        proc = subprocess.run(argv, cwd=cdir, env=_env(root), capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{label} under {root} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-1000:]}")
        files = {f.name: f.read_bytes() for f in sorted(cdir.iterdir())}
        files["stdout"] = proc.stdout
        outputs.append(files)
    return outputs


# a number as repr(float), str(int) or json.dumps writes it
_NUMBER = re.compile(r"-?(\d+(\.\d*)?([eE][-+]?\d+)?|inf|nan)")


class NonNumericChange(ValueError):
    """Two versions of an artifact differ in more than their numbers."""


def _rel(a, b):
    """|a - b| relative to the larger magnitude: 0 for equal numbers
    (two nan included), nan where one side is not finite."""
    if a == b or (a != a and b != b):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _json_moves(a, b, path="$"):
    """(relative change, path) of each number of two parsed JSON values."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if number(a) and number(b):
        yield _rel(a, b), path
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            raise NonNumericChange(f"{path}: keys {sorted(a.keys() ^ b.keys())} on one side only")
        for key in a:
            yield from _json_moves(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise NonNumericChange(f"{path}: {len(a)} vs {len(b)} items")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_moves(x, y, f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:
        raise NonNumericChange(f"{path}: {a!r} vs {b!r}")


def _cells(text):
    """The lines up to and including the ``# config:`` line (none if it
    has none), and the rest as cells and the separators between them."""
    lines = text.splitlines(keepends=True)
    head = next((i + 1 for i, line in enumerate(lines) if line.startswith("# config:")), 0)
    return "".join(lines[:head]), re.split(r"([,\r\n])", "".join(lines[head:]))


def _csv_moves(a, b):
    """(relative change, line) of each numeric cell of two CSV texts."""
    head_a, cells_a = _cells(a)
    head_b, cells_b = _cells(b)
    if head_a != head_b:
        raise NonNumericChange("the lines through '# config:' differ")
    line = head_a.count("\n") + 1
    for x, y in zip(cells_a, cells_b):
        if _NUMBER.fullmatch(x) and _NUMBER.fullmatch(y):
            yield _rel(float(x), float(y)), f"line {line}"
        elif x != y:
            raise NonNumericChange(f"line {line}: {x!r} vs {y!r}")
        line += x == "\n"
    if len(cells_a) != len(cells_b):
        raise NonNumericChange(f"line {line}: one side ends here")


def compare(name, old, new):
    """The largest relative change of a number between two versions
    (bytes) of the file ``name`` and where it is: (0.0, None) for equal
    bytes. A ``.json`` file is compared number by number along its
    paths, a ``.csv`` file cell by cell below its ``# config:`` line (or
    from its first line), any other file as a whole. Raises :class:`NonNumericChange` naming
    the first difference that is not a number's."""
    if old == new:
        return 0.0, None
    if name.endswith(".json"):
        moves = _json_moves(json.loads(old), json.loads(new))
    elif name.endswith(".csv"):
        moves = _csv_moves(old.decode(), new.decode())
    else:
        raise NonNumericChange("the bytes differ")
    # the first largest change; a nan change is larger than any other
    return max(moves, key=lambda move: math.inf if math.isnan(move[0]) else move[0],
               default=(0.0, None))


def differences(commands, old, new, rel=None):
    """(verdict, line) for each file of each command whose bytes differ
    between the ``old`` and ``new`` outputs: "differs", or with ``rel``
    "within" where :func:`compare` finds every number within it."""
    for (label, _), a, b in zip(commands, old, new):
        for fname in sorted(a.keys() | b.keys()):
            if a.get(fname) == b.get(fname):
                continue
            verdict = "differs"
            if rel is not None and fname in a and fname in b:
                try:
                    change, where = compare(fname, a[fname], b[fname])
                    verdict = "within" if change <= rel else "differs"
                    fname += f"  largest relative change {change:.3g} at {where}"
                except NonNumericChange as exc:
                    fname += f"  {exc}"
            yield verdict, f"{verdict:9} {label}: {fname}"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_root", type=Path)
    p.add_argument("new_root", type=Path)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--rel", type=float, metavar="TOL",
                   help="let numbers in JSON and CSV artifacts move by this relative change")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        csv_path = tmp / "data.csv"
        commands = []
        for name in workloads.NAMES:
            wk = workloads.build(name, args.seed, False, csv_path)
            if wk.csv_rows and not csv_path.exists():
                workloads.write_csv(csv_path, wk.csv_rows, args.seed)
            commands += [(f"{name}[{i}] {' '.join(cmd.argv())}", _cli(cmd))
                         for i, cmd in enumerate(wk.commands)]
        commands += [(f"demo {p.name}", _demo(p.name)) for p in sorted(ROOT.glob("demos/*.py"))]
        try:
            old = _outputs(args.old_root, commands, tmp / "old")
            new = _outputs(args.new_root, commands, tmp / "new")
        except RuntimeError as exc:
            print(f"error: {exc}")
            return 2
    differ = within = 0
    for verdict, line in differences(commands, old, new, args.rel):
        print(line)
        differ += verdict == "differs"
        within += verdict == "within"
    if differ:
        return 1
    compared = sum(len(a) for a in old)
    if within:
        print(f"{compared - within} files of {len(commands)} commands are byte-identical and "
              f"{within} within relative {args.rel:g} at seed {args.seed}")
    else:
        print(f"{compared} files of {len(commands)} commands are byte-identical at seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
