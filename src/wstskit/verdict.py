"""Three-valued analysis verdicts.

Semi-decision procedures stop at a budget; an inconclusive outcome means
the budget ran out before either answer was established, never that the
property is false.  Caveats say why an answer was left open.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple, Optional

#: The tree builds' node budget and the coverability search's round budget.
DEFAULT_BUDGET = 10000


class Outcome(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INCONCLUSIVE = "inconclusive"


class AnalysisVerdict(NamedTuple):
    outcome: Outcome
    witness: Optional[Any] = None
    budget_used: int = 0
    caveats: tuple[str, ...] = ()

    @property
    def is_definite(self) -> bool:
        return self.outcome is not Outcome.INCONCLUSIVE
