"""Higher-order persistence diagrams: recursive interval hierarchies,
signed-diagram aggregation, harmonic (zeta-transform) evaluation, and
certified transport distances, with a benchmark CLI."""

from .aggregation import (
    ExpansionGuardExceeded,
    PairAggregate,
    bilinear_aggregate,
    iterated_aggregate,
    mean_aggregate,
    naive_self_aggregate,
    pair_class,
    self_aggregate_pairs,
    sum_aggregate,
    tree_expansion_oracle,
)
from .core import (
    Atom,
    CoefficientOverflow,
    Diagram,
    GroundPoint,
    LevelMismatch,
    LinearDiagram,
    PreorderUnavailable,
    VirtualDiagram,
    atom,
    atom_coords,
    atom_leq,
    d1,
    d_diag,
    d_prod,
    diagram,
    diagram_leq,
    empty_diagram,
    ground,
    interval,
    is_diagonal,
    linear_diagram,
    virtual_diagram,
)
from .envelopes import envelope_average, envelope_worst, sandwich_bounds
from .filtration import (
    Filtration,
    WeightedGraph,
    build_clique_filtration,
    persistence_h0,
    persistence_h1,
    weighted_graph,
)
from .graphgen import MODELS, ModelSpec, generate, model_spec, seed_for
from .harmonic import (
    Character,
    CoboundaryCharacter,
    MissingAngle,
    dominance_sums,
    evaluate_character,
    harmonic_eval,
    iterated_character_phase,
    quadratic_phase,
)
from .serialize import from_text, to_text
from .wasserstein import (
    ComplexityProfile,
    CostCounters,
    assign_p,
    certified_wasserstein,
    complexity_profile,
    empty_cost,
    group_metric,
    linear_w1_norm,
    naive_wasserstein,
)

__version__ = "0.1.0"
