"""``orthobox simulate``: enumerate a query plan against a model, and optionally sample it."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .. import models, rng
from ..rational import format_rational
from . import _resolve_input


def run(args) -> int:
    model = models.make_model(args.model, flavor=args.flavor)
    plan_path = _resolve_input("plans", args.plan, ".plan")
    try:  # parsing a plan recurses once per nesting level
        plan = models.load_plan(plan_path)
    except RecursionError:
        raise ValueError(f"{plan_path.name}: plan nests too deeply") from None
    if not plan:
        raise ValueError(f"{plan_path.name}: plan has no steps")
    tree = models.compile_plan(model, plan)
    histories = models.enumerate_histories(tree)
    labels = [models.history_signature(h, model) for h in histories]
    grouped: dict = {}
    for label, history in zip(labels, histories):
        grouped[label] = grouped.get(label, Fraction(0)) + history.probability
    source = rng.SplitMix64(args.seed)
    counts: Counter = Counter()
    for i, n in Counter(tree.sample(source) for _ in range(args.trials)).items():
        counts[labels[i]] += n

    print(f"model: {model.name}" + (f" ({model.flavor})" if args.model == "firefly" else ""))
    print(f"plan: {plan_path.stem} ({len(histories)} branches, {len(grouped)} distinct outcomes)")
    header = "probability  outcome"
    if args.trials:
        header = f"probability  sampled(n={args.trials})  outcome"
    print(header)
    for sig in sorted(grouped, key=str):
        rendered = " ".join(f"{side}:{target}={key}" for side, target, key in sig)
        mark = "  [forbidden]" if any(key == "forbidden" for _, _, key in sig) else ""
        if args.trials:
            freq = counts[sig] / args.trials
            print(f"{format_rational(grouped[sig]):>11}  {freq:<17.6f}  {rendered}{mark}")
        else:
            print(f"{format_rational(grouped[sig]):>11}  {rendered}{mark}")
    total = sum(grouped.values(), Fraction(0))
    print(f"total probability: {format_rational(total)}")
    return 0
