"""A digest of a model's exact and seeded behaviour on every linear plan.

For each model in turn and each plan of one to three queries over the
model's admissible targets on both sides, the digest takes the exact
distribution (sorted by signature) and three sampled signatures from a
stream seeded with the plan's running index.  The model tests pin each
bundled model to a digest recorded before a rewrite of the layer under it.
"""

import hashlib
from itertools import product

from orthobox.models import PlanStep, exact_distribution, history_signature, sample_history
from orthobox.rng import SplitMix64


def linear_plan_digest(models) -> tuple[str, int]:
    """(hex digest, number of plans) over every linear plan of depth 1 to 3."""
    digest = hashlib.sha256()
    index = 0
    for model in models:
        queries = [(side, target) for side in ("alice", "bob") for target in model.admissible_targets(side)]
        for depth in (1, 2, 3):
            for steps in product(queries, repeat=depth):
                plan = tuple(PlanStep(side, target) for side, target in steps)
                for sig, p in sorted(exact_distribution(model, plan).items()):
                    digest.update(f"{sig!r}={p}\n".encode())
                rng = SplitMix64(index)
                for _ in range(3):
                    sampled = sample_history(model, plan, rng)
                    digest.update(f"{history_signature(sampled, model)!r}\n".encode())
                digest.update(b"--\n")
                index += 1
    return digest.hexdigest(), index
