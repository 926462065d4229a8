"""Audit reports against saved ones: the seed-0 report of every shipped
config, as ``luresim analyze --system configs/<name>.json --seed 0``
writes it.

Keys, strings, verdicts and list lengths must match exactly; numbers must
agree to 1e-12 relative, so the comparison survives another BLAS.
"""

import json
import math
from pathlib import Path

import pytest

from luresim import EXAMPLE_NAMES, AnalyzerOptions, analyze_system, load_config

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((REPO_ROOT / "tests" / "data" / "golden_audit_seed0.json")
                    .read_text())


def _assert_matches(new, old, path="report"):
    if isinstance(old, dict):
        assert isinstance(new, dict) and sorted(new) == sorted(old), path
        for key in old:
            _assert_matches(new[key], old[key], f"{path}.{key}")
    elif isinstance(old, list):
        assert isinstance(new, list) and len(new) == len(old), path
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_matches(a, b, f"{path}[{i}]")
    elif isinstance(old, (bool, str)) or old is None:
        assert new == old, path
    else:
        assert isinstance(new, (int, float)) and not isinstance(new, bool), path
        if math.isinf(old):
            assert new == old, path
        else:
            assert math.isclose(new, old, rel_tol=1e-12, abs_tol=1e-300), \
                f"{path}: {new!r} != {old!r}"


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_audit_report_matches_golden(name):
    cfg = load_config(REPO_ROOT / "configs" / f"{name}.json")
    report = analyze_system(cfg.system, cfg.nonlinearity,
                            AnalyzerOptions(t_window=(0.0, 10.0), seed=0))
    # the CLI's round trip through JSON, so tuples compare as lists
    _assert_matches(json.loads(json.dumps(report.to_dict())), GOLDEN[name])
