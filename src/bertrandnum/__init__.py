"""Real-base expansions, Bertrand numeration systems and their sofic shifts.

Everything is exact: digits of expansions come from rational or
algebraic-number arithmetic with certified floors, languages are handled
through greedy representations and the suffix criterion, and asymptotic
claims are verified with rational interval enclosures.
"""

from .errors import (
    NumerationError,
    RefinementBudgetError,
    UnresolvedBaseError,
    WordError,
)
from .words import (
    DigitWord,
    EPWord,
    digit_word,
    epword,
    format_epword,
    format_word,
    is_parry_valid,
    lex_cmp,
    parse_epword,
    parse_word,
    quasi_to_greedy,
    shift,
    suffixes_at_most,
)
from .realbase import (
    VARIANTS,
    ParryClass,
    RealBase,
    base_from_expansion,
    char_poly,
    expansion_polynomial,
    generating_word,
    parse_base,
    quasi_greedy_of,
)
from .numsys import BertrandReport, NumSys, Violation, parse_system
from .bertrand import (
    ClassifyResult,
    CountingIdentityReport,
    build_bertrand,
    classify_bertrand,
    verify_counting_identity,
)
from .automata import Dfa, build_shift_dfa
from .analysis import (
    EntropyReport,
    LexMaxConvergenceReport,
    dominant_root_ratios,
    entropy_estimates,
    lexmax_convergence_probe,
    renewal_empirical,
    renewal_target,
)
from .intervals import Interval

__version__ = "0.1.0"
