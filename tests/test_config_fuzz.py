"""Config entry under fuzz: one leaf of a catalog config is replaced by NaN,
+-Infinity, 1e308, a string or a list, or deleted, and the CLI runs the
result in process.  Each run either runs (exit 0; ``simulate`` may also
exit 3, unsolvable at the initial time, as ex3a's own config does) or is
rejected with exit 2 by a message that names a field on the path to the
leaf; none exits 1 or escapes with a traceback."""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luresim.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = {path.stem: json.loads(path.read_text())
           for path in sorted(CONFIG_DIR.glob("*.json"))}
DELETE = object()
VALUES = [math.nan, math.inf, -math.inf, 1e308, "text", [1.0, 2.0], DELETE]


def _leaves(doc, path=()):
    """The paths (keys and list indices) of a JSON document's leaves."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            yield from _leaves(doc[key], path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaves(value, path + (i,))
    else:
        yield path


LEAVES = [(name, path) for name, doc in CONFIGS.items() for path in _leaves(doc)]


def _fields(path) -> list[str]:
    """The fields on the path, written as messages write them: matrices,
    matrices.A, matrices.A[0], ..."""
    names, name = [], ""
    for key in path:
        name = f"{name}[{key}]" if isinstance(key, int) else f"{name}.{key}".lstrip(".")
        names.append(name)
    return names


def _with_leaf(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run(tmp: Path, doc, argv) -> tuple[int, str]:
    cfg = tmp / "fuzzed.json"
    cfg.write_text(json.dumps(doc))
    out = ["--out", str(tmp / "run")] if argv[0] == "simulate" else []
    stdout, stderr = io.StringIO(), io.StringIO()
    # floats overflow at 1e308; the run's outcome is checked, not numpy's warnings
    with (np.errstate(all="ignore"), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        code = main([argv[0], "--system", str(cfg), *argv[1:], *out])
    return code, stderr.getvalue()


def check_one_bad_leaf(tmp: Path, name: str, path, value) -> None:
    doc = _with_leaf(CONFIGS[name], path, value)
    w = ",".join(["0.3"] * len(CONFIGS[name]["matrices"]["D"]))
    for argv in (["fibre", "--t", "0.5", "--w", w], ["simulate", "--tmax", "0.05"]):
        code, err = _run(tmp, doc, argv)
        assert code in ((0, 2, 3) if argv[0] == "simulate" else (0, 2)), (argv, code, err)
        if code == 2:
            assert any(field in err for field in _fields(path)), (argv, err)


@settings(max_examples=25, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(VALUES))
# found by the fuzz: a run whose state (A) or target (C) overflows once
# exited 2 with "w must be a finite vector", an arctan piece that D does not
# cancel exited 2 unnamed, and a string in an input's coefficients raised
@example(leaf=("ex3b", ("matrices", "A", 1, 0)), value=1e308)
@example(leaf=("ex4c", ("matrices", "C", 0, 0)), value=1e308)
@example(leaf=("ex3d", ("matrices", "D", 0, 0)), value=1e308)
@example(leaf=("ex3d", ("input", "polynomial", 0, 0)), value="text")
def test_a_config_with_one_bad_leaf_runs_or_is_rejected_naming_it(tmp_path_factory, leaf,
                                                                  value):
    check_one_bad_leaf(tmp_path_factory.mktemp("fuzz"), *leaf, value)
