"""The benchmark's span tracer still finds and wraps every traced name.

perfbench/spans.py rebinds package names such as optimal.shift_grid_beta
and calls count hooks with their arguments, so a renamed or re-signed
public function would otherwise break only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from wtdesigns import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
ARGV = ["search", "--q", "5", "--generators", "1,1;1,2", "--family", "williams"]


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    out = {}
    for modname, attr, _, _ in spans.TARGETS:
        owner = sys.modules[f"wtdesigns.{modname}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        out[modname, attr] = getattr(owner, attr)
    return out


def test_tracer_wraps_a_search_call(capsys):
    spans = _load_spans()
    assert cli.main(ARGV) == 0
    want = capsys.readouterr().out
    before = _targets(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(ARGV) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == want
    assert _targets(spans) == before
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["optimal.search_shifts"] == 1
    assert tracer.calls["optimal.shift_grid_beta"] >= 1
    assert tracer.calls["aberration.beta_pattern"] >= 1
    metrics = tracer.layer_metrics()
    assert metrics["optimal.search_shifts.scanned"] == (25, "count")
    assert metrics["optimal.search_shifts.full_patterns"][0] == tracer.calls["aberration.beta_pattern"]
