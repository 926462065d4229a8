"""Print one SHA-256 digest per output of a fixed set of CLI calls.

Each call runs ``python -m luresim.cli`` (with ``--seed 0`` where the
subcommand takes one, unless said otherwise) in a fresh temporary
directory; the digests cover its stdout, stderr, exit code and every file
it writes.  Two checkouts print the same lines exactly when the
CLI produced the same bytes, so ``diff`` of the output on the parent and on
the change shows byte-identity::

    python3 tools/digest_cli.py > cli_digests.txt

The calls import luresim from the ``src`` directory beside this script.

The set: ``simulate`` on ex3b and ex4a at their config defaults,
``simulate --inclusion --policy fixed_branch:0`` on ex3c (and, with
``--method rk45_adaptive``, a method inclusion mode does not have),
``analyze --out`` on all ten configs, again with ``--seed 11 --twindow
0:3`` (off the golden seed and window), ``fibre`` on sec42a, sec42b and
ex4b (the three exact kinds: piecewise scalar, radial, conformal) plus
the dense-scan oracle (``--scan-radius``) on ex3c, and, for each catalog
entry (one per shipped config), ``example NAME --emit-config`` and
``example NAME --verify --quick``, which checks the entry's closed-form
references, and, last, ``example NAME --verify`` in full mode on ex3c,
ex3d, ex4a, ex4b and ex4c.  A line reads ``<call> <output> <sha256>``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def _calls():
    def cfg(name, seed="0"):
        return ["--system", str(CONFIGS / f"{name}.json"), "--seed", seed]

    for name in ("ex3b", "ex4a"):
        yield f"simulate/{name}", ["simulate", *cfg(name), "--out", "run"]
    yield "simulate-inclusion/ex3c", ["simulate", *cfg("ex3c"), "--inclusion",
                                      "--policy", "fixed_branch:0", "--out", "run"]
    yield "simulate-inclusion-rk45/ex3c", ["simulate", *cfg("ex3c"),
                                           "--inclusion", "--method",
                                           "rk45_adaptive", "--out", "run"]
    for path in sorted(CONFIGS.glob("*.json")):
        yield f"analyze/{path.stem}", ["analyze", *cfg(path.stem), "--out",
                                       "report.json"]
    for path in sorted(CONFIGS.glob("*.json")):
        yield f"analyze-seed11/{path.stem}", ["analyze", *cfg(path.stem, "11"),
                                              "--twindow", "0:3", "--out",
                                              "report.json"]
    yield "fibre/sec42a", ["fibre", *cfg("sec42a"), "--w", "0.3"]
    yield "fibre/sec42b", ["fibre", *cfg("sec42b"), "--w", "0.3,0.4"]
    yield "fibre/ex4b", ["fibre", *cfg("ex4b"), "--t", "0.5", "--w", "0.4,-0.2"]
    yield "fibre-scan/ex3c", ["fibre", *cfg("ex3c"), "--w", "0.1",
                              "--scan-radius", "3"]
    for path in sorted(CONFIGS.glob("*.json")):
        yield f"emit-config/{path.stem}", ["example", path.stem,
                                           "--emit-config", "config.json"]
    for path in sorted(CONFIGS.glob("*.json")):
        yield f"verify-quick/{path.stem}", ["example", path.stem, "--verify",
                                            "--quick"]
    for name in ("ex3c", "ex3d", "ex4a", "ex4b", "ex4c"):
        yield f"verify/{name}", ["example", name, "--verify"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    env = dict(os.environ)
    env.pop("LURESIM_OUT_DIR", None)
    paths = [str(ROOT / "src")] + [os.path.abspath(p) for p in
                                   env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for label, args in _calls():
        with tempfile.TemporaryDirectory() as work:
            proc = subprocess.run(
                [sys.executable, "-m", "luresim.cli", *args],
                cwd=work, capture_output=True, env=env)
            print(f"{label} stdout {_sha(proc.stdout)}")
            print(f"{label} stderr {_sha(proc.stderr)}")
            print(f"{label} exit {proc.returncode}")
            for path in sorted(Path(work).iterdir()):
                print(f"{label} {path.name} {_sha(path.read_bytes())}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
