"""``orthobox fable``: the prophecy game on the retrocausal boxes, optionally with per-trial CSV."""

from __future__ import annotations

from .. import protocols
from ..rational import format_decimal
from . import _bad, _output_file


def run(args) -> int:
    stats = protocols.simulate_fable(args.trials, seed=args.seed, keep_rows=bool(args.per_trial))
    with _output_file(args.per_trial) as rows_file:
        print(f"trials: {stats.trials}")
        print(f"daniel success rate: {format_decimal(stats.daniel_success)}")
        print(f"sandu first-prophecy rate: {format_decimal(stats.sandu_first_success)}")
        print(f"sandu second-prophecy rate: {format_decimal(stats.sandu_second_success)}")
        if args.per_trial:
            lines = ["trial,daniel_success,sandu_first,sandu_second"]
            lines += [f"{t},{int(d)},{int(f1)},{int(f2)}" for t, d, f1, f2 in stats.rows]
            rows_file.write("\n".join(lines) + "\n")
            print(f"wrote per-trial rows to {args.per_trial}")
        if stats.daniel_success != 1:
            print(_bad("daniel failed a trial; the boxes are broken"))
            return 1
        return 0
