"""Dirichlet forms on weighted graphs.

Builds quadratic energy forms from weighted-graph data (edge weights b,
killing c, vertex measure m) with Dirichlet-style domain masks, applies their
Markovian resolvents, and decomposes them into a main part (the killing-free
difference energy), a killing part and their sum, the reflected form.  Also
ships domination and Silverstein-extension checks plus packaged scenarios,
including a discretized interval on which no maximal Silverstein extension
can exist.
"""

from .forms import (
    OUT_OF_DOMAIN,
    Coupling,
    GraphForm,
    NormalContraction,
    absolute,
    apply_contraction,
    assemble,
    check_parallelogram,
    clamp,
    compose,
    contraction_catalog,
    identity,
    positive_part,
)
from .graph import (
    Exhaustion,
    GraphFormatError,
    IntegerLineGenerator,
    SquareLatticeGenerator,
    WeightedGraph,
    ball_exhaustion,
    build_exhaustion,
    emit_graph,
    generator_ball,
    load_graph,
    make_path,
    single_vertex,
    truncate,
    validate,
)
from .reflection import (
    DecompositionResult,
    effective_killing,
    form_oracle_killing,
    form_oracle_main,
    graph_oracle_killing,
    graph_oracle_main,
    killing_part,
    main_part,
    recurrence_check,
    reflected_form,
    truncated_form,
    truncated_oracle,
)
from .resolvent import (
    CoefficientTable,
    GeneratorOperator,
    ResolventHandle,
    build_generator,
    default_alpha_ladder,
    truncated_coefficients,
    truncated_form_via_resolvent,
)
from .domination import (
    DominationReport,
    FormPair,
    check_form_inequality_nonneg,
    check_order_ideal,
    check_resolvent_domination,
    check_silverstein,
    verify_maximality,
)
from .scenarios import (
    CounterexampleSetup,
    MonotoneFormSpec,
    classify_recurrence,
    killing_difference_spec,
    monotone_equivalence_test,
    run_counterexample,
)

__version__ = "0.1.0"
