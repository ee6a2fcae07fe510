"""orthobox: exact checks and toy-model simulators for orthogonality scenarios.

The package decides, over exact rationals, when pairwise orthogonal
propositions admit a joint distribution, verifies that perfect cross-side
correlations plus adaptive single-proposition measurements let one party
shift the other's marginals unless every pairwise orthogonal set is jointly
measurable, and simulates three toy models (retrocausal gem boxes, entangled
firefly boxes, collapse boxes) that each give up exactly one of the three
assumptions.  The box realizations built from the models saturate the CHSH
expression at 4.

The package root exports the model names, which the CLI's parser reads
without loading the models, and the fault types, which every module raises
and the CLI maps to exit 1 without loading the module that raised them:
import everything else from the modules.
"""

__version__ = "0.1.0"

MODEL_NAMES = ("seer", "firefly", "lsw")


class Fault(RuntimeError):
    """A check the program makes on itself failed; ``label`` names the kind."""
    label = "fault"


class InconsistentHistory(Fault):
    """No box contents can satisfy all constraints accumulated so far."""
    label = "inconsistent history"


class BranchMassError(Fault):
    """A model gave a negative branch weight, or weights not summing to 1 (a model fault)."""
    label = "model fault"


class CertificateError(Fault):
    """A verdict whose own certificate does not hold (a fault of the code that reached it)."""
    label = "certificate check failed"
