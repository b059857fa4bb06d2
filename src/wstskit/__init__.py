"""Verification toolkit for counter machines and FIFO machines.

Builds reduced reachability trees over quasi-ordered state spaces and
decides boundedness and non-termination from their subsumption structure,
checks concrete loop iterability, and answers coverability questions with
an ideal-based downward-closed set algebra.  Every semi-decision runs
under an explicit budget and reports positive, negative, or inconclusive,
never silently diverging.
"""

from .counter import (
    OP_DEC,
    OP_INC,
    OP_NOOP,
    CounterConfig,
    CounterMachine,
    CounterTransition,
    cm_post,
    control_reachable,
    counter_config_str,
    is_cmrz,
    require_no_zero_tests,
)
from .cover import (
    OMEGA,
    DownSet,
    Ideal,
    UpSet,
    backward_coverability,
    check_cover_monotone_bounded,
    downset_candidates,
    downset_closed,
    downset_contains,
    downset_normalize,
    downset_of_config,
    downset_post,
    downset_subset,
    downset_union,
    ideal_contains,
    ideal_subset,
    pre_basis,
    upset_contains,
    upset_normalize,
    x0_coverability,
)
from .dsl import ModelFile, ParseError, parse_model, parse_target, print_model
from .fifo import (
    RECV,
    SEND,
    Alphabet,
    BoundedLang,
    Dfa,
    FifoConfig,
    FifoMachine,
    FifoTransition,
    Normalization,
    bounded_lang,
    build_recv_dfa,
    build_send_dfa,
    check_fifo_infinite_iterability,
    fifo_config_str,
    fifo_post,
    normalize_distinct_letter,
    product_machine,
    recv_proj,
    resolve_action_run,
    send_proj,
)
from .olts import Olts, counter_olts, fifo_olts
from .orders import (
    COUNTER_ORDER,
    EXT_PREFIX_ORDER,
    Order,
    counter_state_leq,
    ext_prefix_leq,
    find_antichain_on_run,
    nat_vec_leq,
    prefix_leq,
)
from .rrt import (
    DEFAULT_BUDGET,
    Rrt,
    RrtNode,
    build_lrrt,
    build_rrt,
    decide_boundedness,
    decide_nonterm_by_iterable,
    decide_nontermination,
    export_dot,
)
from .verdict import AnalysisVerdict, Outcome

__version__ = "0.1.0"
