"""The benchmark's span tracer still finds and wraps every traced name.

perfbench/spans.py rebinds package names such as optimal.shift_grid_beta
and calls count hooks with their arguments, so a renamed or re-signed
public function would otherwise break only a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from wtdesigns import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# decided at degree 4, so the search reads the degree-4 and -5 shift grids
ARGV = ["search", "--q", "5", "--generators", "1,2;2,1;2,3", "--family", "linear"]


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


def _package_names():
    # every module-level name of every loaded wtdesigns module, by identity
    return {
        (modname, key): value
        for modname, mod in list(sys.modules.items())
        if modname == "wtdesigns" or modname.startswith("wtdesigns.")
        for key, value in vars(mod).items()
    }


def test_every_traced_name_resolves_and_uninstall_restores_the_package():
    # first in the file, so that no other traced run has touched the package yet
    spans = _load_spans()
    missing = []
    for modname, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(f"wtdesigns.{modname}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{modname}.{attr}")
    assert missing == []
    before, targets = _package_names(), _targets(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = _targets(spans)
    finally:
        tracer.uninstall()
    assert all(wrapped[key] is not fn for key, fn in targets.items())
    after = _package_names()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert all(_targets(spans)[key] is fn for key, fn in targets.items())


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
    assert metrics["optimal.search_shifts.scanned"] == (125, "count")
    assert metrics["optimal.search_shifts.full_patterns"][0] == tracer.calls["aberration.beta_pattern"]

