"""``orthobox pr-boxes``: the canonical PR boxes, or one model's box realization."""

from __future__ import annotations

import sys
from collections import Counter

from .. import behavior, models, protocols
from ..rational import format_rational


def run(args) -> int:
    if args.model is None:
        boxes = behavior.enumerate_pr_boxes()
        print(f"canonical boxes: {len(boxes)}")
        distinct = set(boxes)
        print(f"distinct: {len(distinct)}")
        for i, box in enumerate(boxes):
            result = behavior.chsh(box)
            ns = behavior.no_signalling_check(box)
            anti = sum(1 for combo in box.table if box.correlator(combo) == -1)
            print(
                f"box {i}: S = {format_rational(result.value)},"
                f" no-signalling {'yes' if ns.ok else 'NO'},"
                f" anticorrelated pairs {anti}"
            )
        return 0

    model = models.make_model(args.model, flavor=args.flavor)
    default = protocols.LSW_SINGLE_INTERPRETATION if args.model == "lsw" else protocols.DEFAULT_PAIR_INTERPRETATION
    interpretations = (default,) if args.model == "lsw" else protocols.PAIR_INTERPRETATIONS
    boxes = protocols.realize_pr_boxes(model, interpretations)
    box = boxes[interpretations.index(default)]
    result = behavior.chsh(box)
    ns = behavior.no_signalling_check(box)
    print(f"model: {args.model}")
    print("correlators:")
    sys.stdout.write(behavior.correlators_csv(box))
    print(f"S = {format_rational(result.value)} with signs {result.signs}")
    print(f"no-signalling: {'yes' if ns.ok else 'NO'}")
    print(f"matches a canonical box: {'yes' if behavior.is_pr_box(box) else 'NO'}")
    if args.model in ("seer", "firefly"):
        seen = Counter(boxes)
        all_pr = all(map(behavior.is_pr_box, boxes))
        print(
            f"sweep over {len(boxes)} interpretations: {len(seen)} distinct boxes, "
            f"multiplicities {sorted(seen.values())}, all canonical: {'yes' if all_pr else 'NO'}"
        )
        if not (len(seen) == 8 and all_pr):
            return 1
    if result.value != 4 or not ns.ok:
        return 1
    return 0
