"""Finite-algebra workbench for double magmas built from commutation operations.

Construct double magmas from finite groups (x*y = [x,y], x•y = [y,x]), from
arbitrary 2-variable words, and from rings (x*y = xy - yx); decide interchange,
associativity, commutativity and properness by brute force; and verify a
catalog of structural equivalences over a corpus of groups and rings.
"""

from .constructions import WordPair, commutator_double, ring_commutator_double, word_double
from .errors import BudgetExceededError, ParseError, SpecError, UnboundVariableError
from .groups import (
    FiniteGroup,
    SubgroupSet,
    derived_series,
    derived_subgroup,
    direct_product,
    has_exponent_2,
    is_metabelian,
    lower_central_series,
    make_cyclic,
    make_dihedral,
    make_from_permutations,
    make_heisenberg,
    make_metacyclic,
    nilpotency_class,
    normal_closure,
    parse_group_spec,
    perm_from_cycles,
    subgroup_closure,
)
from .magmas import (
    DoubleMagma,
    EckmannHiltonReport,
    Magma,
    eckmann_hilton_audit,
    find_identity,
    find_zero,
    is_associative,
    is_commutative,
    is_proper,
    parse_csv_table,
    render_csv,
    render_text,
    satisfies_interchange,
    structured_double,
    structured_magma,
    superscript_names,
)
from .rings import (
    RING_LAWS,
    FiniteRing,
    check_ring_law,
    lie_bracket,
    make_matrix_ring,
    make_upper_triangular,
    make_zmod,
    parse_ring_spec,
)
from .suite import (
    ALL_CHECKS,
    CheckResult,
    CorpusConfig,
    DEFAULT_GROUPS,
    DEFAULT_RINGS,
    Report,
    run_corpus,
)
from .tables import DEFAULT_EVAL_BUDGET, DEFAULT_ORDER_BUDGET, Verdict
from .words import (
    BUILTIN_LAWS,
    Bracket,
    Conjugate,
    IdentityLiteral,
    IntPower,
    Inverse,
    Law,
    Product,
    Term,
    Variable,
    builtin_law,
    check_law_exhaustive,
    check_law_sampled,
    evaluate,
    free_variables,
    parse_law,
    parse_term,
    to_string,
)

__version__ = "0.1.0"
