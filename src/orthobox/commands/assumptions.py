"""``orthobox assumptions``: the three assumptions per model, as a text matrix or CSV."""

from __future__ import annotations

from .. import MODEL_NAMES, models, protocols
from . import _bad, _good


def _battery_models(name: str, flavor: str):
    if name == "all":
        return [models.make_model(model) for model in MODEL_NAMES]
    if name == "firefly-variants":
        return [models.make_model("firefly", flavor=f) for f in models.FLAVORS]
    return [models.make_model(name, flavor=flavor)]


def run(args) -> int:
    reports = []
    for model in _battery_models(args.model, args.flavor):
        label = model.name if model.name != "firefly" else f"firefly[{model.flavor}]"
        reports.append((label, protocols.assumption_report(model)))

    if args.format == "csv":
        lines = ["model,assumption,verdict,witness_plan"]
        for label, report in reports:
            for key, verdict in zip("abc", report):
                witness = verdict.witness.describe() if verdict.witness else ""
                lines.append(f"{label},{key},{'pass' if verdict.holds else 'fail'},\"{witness}\"")
        print("\n".join(lines))
        return 0

    width = max(len(label) for label, _ in reports)
    print(f"{'model':<{width}}  (a) correlation  (b) composability  (c) no-signalling")
    for label, report in reports:
        cells = [_good("pass") if verdict.holds else _bad("FAIL") for verdict in report]
        print(f"{label:<{width}}  {cells[0]:<15}  {cells[1]:<17}  {cells[2]}")
    for label, report in reports:
        for key, verdict in zip("abc", report):
            if not verdict.holds:
                print(f"{label} ({key}): {verdict.witness.describe()}")
    return 0
