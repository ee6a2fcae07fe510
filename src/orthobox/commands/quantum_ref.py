"""``orthobox quantum-ref``: the complex-matrix reference checks, optionally to CSV."""

from __future__ import annotations

from .. import quantumref
from . import _bad, _good, _output_file


def run(args) -> int:
    with _output_file(args.csv) as csv_file:
        generator = quantumref.seeded_generator(args.seed)
        rows = []

        worst_povm = 0.0
        for _ in range(args.trials):
            dim = int(generator.integers(2, 5))
            triple = [quantumref.random_projector_pair(dim, generator) for _ in range(3)]
            dev = quantumref.povm_identity_check(*triple)
            worst_povm = max(worst_povm, dev)
            rows.append(("povm_identity", dim, dev))
        print(f"povm identity over {args.trials} random triples: max deviation {worst_povm:.3e}")

        frame = quantumref.SpinOneFrame.canonical()
        worst_order = 0.0
        for _ in range(50):
            state = quantumref.random_density(3, generator)
            dists = [
                quantumref.luders_sequence(frame, order, state)
                for order in ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")
            ]
            for other in dists[1:]:
                for key in dists[0]:
                    worst_order = max(worst_order, abs(dists[0][key] - other[key]))
        rows.append(("luders_order", 3, worst_order))
        print(f"sequential-measurement order invariance over 50 states: max deviation {worst_order:.3e}")

        worst_corr = 0.0
        for pairing in ("matched", "conjugate"):
            report = quantumref.entangled_spin1_correlations(frame, pairing)
            marg_dev = max(abs(m - 1 / 3) for m in report.marginals)
            corr_dev = max(abs(abs(c) - 1) for c in report.correlations)
            worst_corr = max(worst_corr, marg_dev, corr_dev)
            rows.append((f"entangled_{pairing}", 3, max(marg_dev, corr_dev)))
            print(
                f"entangled correlations ({pairing}): marginals deviate {marg_dev:.3e},"
                f" correlation {'perfect' if report.perfectly_correlated else 'imperfect'}"
            )

        if args.csv:
            lines = ["check,dimension,deviation"]
            lines += [f"{name},{dim},{dev:.3e}" for name, dim, dev in rows]
            csv_file.write("\n".join(lines) + "\n")

        worst = max(worst_povm, worst_order, worst_corr)
        if worst <= quantumref.TOLERANCE:
            print(_good(f"all reference checks within {quantumref.TOLERANCE:g}"))
            return 0
        print(_bad(f"worst deviation {worst:.3e} exceeds {quantumref.TOLERANCE:g}"))
        return 1
