"""orthobox: exact checks and toy-model simulators for orthogonality scenarios.

The package decides, over exact rationals, when pairwise orthogonal
propositions admit a joint distribution, verifies that perfect cross-side
correlations plus adaptive single-proposition measurements let one party
shift the other's marginals unless every pairwise orthogonal set is jointly
measurable, and simulates three toy models (retrocausal gem boxes, entangled
firefly boxes, collapse boxes) that each give up exactly one of the three
assumptions.  The box realizations built from the models saturate the CHSH
expression at 4.

The package root exports only the model names, which the CLI's parser
reads without loading the models: import everything else from the modules.
"""

__version__ = "0.1.0"

MODEL_NAMES = ("seer", "firefly", "lsw")
