"""Byte-identity check of the benchmark's commands between two checkouts.

    python tests/same_bytes.py OLD_ROOT NEW_ROOT [--seed S]

Writes the seeded CSV input of the ``rates-holdout`` workload once, then
runs every command of both benchmark workloads (perfbench/workloads.py,
imported read-only) in a fresh process under each root's ``src``, each
command in its own empty directory and with the same ``--data`` path on
both sides. Every artifact a command writes and its stdout are compared
byte for byte. Prints one line per difference and exits 1 if any file
differs or is written on one side only, 2 if a command fails, 0 when
everything is identical. Standard library only; pytest does not collect
this file, as its name does not start with ``test_``.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def _env(root):
    """The root's package, and no variable that changes thread counts."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    for var in ("SGDLSQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "PYTHONSTARTUP", "PYTHONHOME"):
        env.pop(var, None)
    return env


def _outputs(root, commands, workdir):
    """{file name: bytes} per command: its artifacts and its stdout, run
    under ``root``; a RuntimeError names a command that fails."""
    outputs = []
    for i, (label, cmd) in enumerate(commands):
        cdir = workdir / f"c{i}"
        cdir.mkdir(parents=True)
        argv = [sys.executable, "-m", "sgdlsq.cli", *cmd.argv()]
        proc = subprocess.run(argv, cwd=cdir, env=_env(root), capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{label} under {root} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-1000:]}")
        files = {f.name: f.read_bytes() for f in sorted(cdir.iterdir())}
        files["stdout"] = proc.stdout
        outputs.append(files)
    return outputs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_root", type=Path)
    p.add_argument("new_root", type=Path)
    p.add_argument("--seed", type=int, default=1234)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        csv_path = tmp / "data.csv"
        commands = []
        for name in workloads.NAMES:
            wk = workloads.build(name, args.seed, False, csv_path)
            if wk.csv_rows and not csv_path.exists():
                workloads.write_csv(csv_path, wk.csv_rows, args.seed)
            commands += [(f"{name}[{i}] {' '.join(cmd.argv())}", cmd)
                         for i, cmd in enumerate(wk.commands)]
        try:
            old = _outputs(args.old_root, commands, tmp / "old")
            new = _outputs(args.new_root, commands, tmp / "new")
        except RuntimeError as exc:
            print(f"error: {exc}")
            return 2
    differ = []
    for (label, _), a, b in zip(commands, old, new):
        for fname in sorted(a.keys() | b.keys()):
            if a.get(fname) != b.get(fname):
                differ.append(f"{label}: {fname}")
    compared = sum(len(a) for a in old)
    for line in differ:
        print(f"differs   {line}")
    if differ:
        return 1
    print(f"{compared} files of {len(commands)} commands are byte-identical at seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
