"""Scale model mapping paper units to simulated instructions.

The original study simulated over 10**15 instructions (roughly 40
CPU-years).  This reproduction keeps every technique parameter in the
paper's units -- millions of instructions, written ``M`` -- and maps
them to simulated instructions through a single scale factor, so the
*relative* structure of every experiment (what fraction of a run is
skipped, sampled, or warmed) is preserved at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Named profiles: simulated instructions per paper-M.
PROFILES = {
    "tiny": 25,
    "quick": 100,
    "full": 500,
}


@dataclass(frozen=True)
class Scale:
    """Conversion between paper instruction counts and simulated counts.

    Parameters
    ----------
    instructions_per_m:
        Number of simulated instructions that stand in for one million
        instructions of the original study.
    """

    instructions_per_m: int = PROFILES["tiny"]

    def __post_init__(self) -> None:
        if self.instructions_per_m <= 0:
            raise ValueError("instructions_per_m must be positive")

    def instructions(self, paper_m: float) -> int:
        """Simulated instructions corresponding to ``paper_m`` M."""
        return int(round(paper_m * self.instructions_per_m))

    def paper_m(self, instructions: int) -> float:
        """Paper-M equivalent of a simulated instruction count."""
        return instructions / self.instructions_per_m

    @property
    def name(self) -> str:
        """Profile name if this scale matches one, else ``custom``."""
        for name, value in PROFILES.items():
            if value == self.instructions_per_m:
                return name
        return "custom"


def scale_from_profile(profile: str) -> Scale:
    """Build a :class:`Scale` from a named profile."""
    try:
        return Scale(PROFILES[profile])
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}"
        ) from None
