"""Three-valued analysis verdicts.

Semi-decision procedures stop at a budget; an inconclusive outcome means
the budget ran out before either answer was established, never that the
property is false.  Caveats spell out any monotonicity assumption a
definite answer leans on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


class Outcome(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class AnalysisVerdict:
    outcome: Outcome
    witness: Optional[Any] = None
    budget_used: int = 0
    caveats: tuple[str, ...] = field(default=())

    @property
    def is_definite(self) -> bool:
        return self.outcome is not Outcome.INCONCLUSIVE
