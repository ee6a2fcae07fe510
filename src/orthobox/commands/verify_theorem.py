"""``orthobox verify-theorem``: sweep the signalling gap over a rational grid, optionally to CSV."""

from __future__ import annotations

from fractions import Fraction

from .. import theorem
from ..rational import format_rational
from . import _good, _output_file


def run(args) -> int:
    rows = theorem.sweep_gap(args.grid)
    with _output_file(args.csv) as csv_file:
        worst = min(rows, key=lambda r: (r.gap, r.p1, r.p2, r.p3))
        print(f"grid: denominator {args.grid}, {len(rows)} valid points")
        print(
            "min gap: "
            + format_rational(worst.gap)
            + f" at (p1,p2,p3)=({format_rational(worst.p1)},{format_rational(worst.p2)},{format_rational(worst.p3)})"
        )
        for probe in (Fraction(1, 3), Fraction(1, 2)):
            t = theorem.TripleMarginals(probe, probe, probe)
            wc = theorem.worst_case_params(t)
            print(
                f"p={format_rational(probe)} each: gap {format_rational(theorem.signalling_gap(t))}"
                f" (alpha {format_rational(wc.alpha)}, beta {format_rational(wc.beta)})"
            )
        if args.csv:
            csv_file.write(theorem.sweep_csv(rows, exact=args.exact))
            print(f"wrote {len(rows)} rows to {args.csv}")
        print(_good("signalling gap positive on the whole grid"))
        return 0
