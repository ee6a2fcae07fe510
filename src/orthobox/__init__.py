"""orthobox: exact checks and toy-model simulators for orthogonality scenarios.

The package decides, over exact rationals, when pairwise orthogonal
propositions admit a joint distribution, verifies that perfect cross-side
correlations plus adaptive single-proposition measurements let one party
shift the other's marginals unless every pairwise orthogonal set is jointly
measurable, and simulates three toy models (retrocausal gem boxes, entangled
firefly boxes, collapse boxes) that each give up exactly one of the three
assumptions.  The box realizations built from the models saturate the CHSH
expression at 4.
"""

from .behavior import (
    BehaviorTable,
    FeasibilityCertificate,
    check_exclusivity,
    chsh,
    enumerate_pr_boxes,
    is_pr_box,
    joint_feasibility,
    no_signalling_check,
)
from .models import (
    FireflyModel,
    InadmissibleQuery,
    InconsistentHistory,
    LswModel,
    SeerModel,
    Session,
    enumerate_histories,
    make_model,
)
from .protocols import (
    AliceStrategy,
    assumption_report,
    bob_marginal,
    detect_signalling,
    realize_pr_box,
    simulate_fable,
    sweep_pr_interpretations,
)
from .scenario import (
    MarginalVector,
    OrthoScenario,
    load_scenario_file,
    orthogonality_graph,
    specker_triple,
)
from .theorem import (
    AlphaBeta,
    TripleMarginals,
    signalling_gap,
    sweep_gap,
    worst_case_params,
)

__version__ = "0.1.0"
