"""Work budgets.

Budgets bound the three quantities that can blow up on adversarial input:
edges after arrangement, exact pairwise checks, and materialized IFS words.
`SDIMLAB_BUDGET` overrides any subset as a comma-separated key=value list,
e.g. ``SDIMLAB_BUDGET="edges=2e5,pairs=5e7"``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import BudgetExceeded, ParseError

DEFAULT_MAX_EDGES = 100_000
DEFAULT_MAX_PAIR_CHECKS = 10_000_000
DEFAULT_MAX_WORDS = 10_000_000

_ENV_VAR = "SDIMLAB_BUDGET"
_KEYS = {"edges": "max_edges", "pairs": "max_pair_checks", "words": "max_words"}


@dataclass(frozen=True)
class Budget:
    max_edges: int = DEFAULT_MAX_EDGES
    max_pair_checks: int = DEFAULT_MAX_PAIR_CHECKS
    max_words: int = DEFAULT_MAX_WORDS

    def check_edges(self, n: int) -> None:
        if n > self.max_edges:
            raise BudgetExceeded(f"edge count {n} exceeds budget {self.max_edges}")

    def check_pairs(self, n: int) -> None:
        if n > self.max_pair_checks:
            raise BudgetExceeded(f"pair checks {n} exceed budget {self.max_pair_checks}")

    def check_words(self, n: int, depth: int) -> None:
        """Refuse the n ** depth words of length `depth` over n maps.

        The power is multiplied up only until it passes the budget, so a
        huge depth costs a few steps and never a number too long to print.
        """
        count = 1
        if n > 1:
            for _ in range(depth):
                count *= n
                if count > self.max_words:
                    break
        if count > self.max_words:
            raise BudgetExceeded(f"word count {n}^{depth} exceeds budget "
                                 f"{self.max_words}")

    def check_depth(self, depth: int) -> None:
        """Refuse a word tree deeper than the word budget.

        Each level makes at least one word, so this bounds the levels of a
        one-map spec, whose n ** depth never grows.
        """
        if depth > self.max_words:
            raise BudgetExceeded(f"depth {depth} exceeds word budget "
                                 f"{self.max_words}")


def from_env(base: Budget | None = None) -> Budget:
    """Budget with overrides taken from SDIMLAB_BUDGET, if set."""
    budget = base or Budget()
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return budget
    overrides = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        key, _, value = item.partition("=")
        key = key.strip().lower()
        if key not in _KEYS or not value:
            raise ParseError(f"bad {_ENV_VAR} entry {item!r}")
        try:
            overrides[_KEYS[key]] = int(float(value))
        except ValueError as exc:
            raise ParseError(f"bad {_ENV_VAR} value {value!r}") from exc
    return replace(budget, **overrides)
