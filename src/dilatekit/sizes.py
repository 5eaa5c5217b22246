"""The sizes a caller picks, each with its floor and its cap, checked once.

`SuiteConfig`, `Bounds`, the CLI (before any work) and every verifier or
builder that takes a size call `require_within`. A floor that depends on
another size, `ndilation_verify`'s k_max >= N + 1, is in `FLOOR_ABOVE`,
checked by `require_above` in the CLI (before any work) and the verifier.
"""

from __future__ import annotations

from typing import Optional

# (floor, cap) of each size, keyed by the name it is set under (a SuiteConfig
# or Bounds field, or the instance key N); the caps keep every flag from
# asking for unbounded work
SIZES = {
    "trials": (1, 10_000),  # trials per suite
    "dim_max": (1, 16),  # largest generated dimension
    "n_max": (1, 100),  # exponent bounds, the certification bound included
    "m_max": (1, 100),
    "k_max": (1, 100),
    "entry_bound": (1, 10**6),  # largest numerator and denominator of generated entries
    "N": (1, 32),  # the N of an N-dilation, whose matrices are (N+1)d x (N+1)d
}


# each size whose floor is one more than another size: k_max >= N + 1, since
# compression is certified for every k <= N and k_max reaches past that
FLOOR_ABOVE = {"k_max": "N"}


def require_within(label: str, name: str, value: Optional[int]) -> None:
    """Refuse a size set under `name` outside its row, naming it by `label`."""
    if value is None:
        return
    floor, cap = SIZES[name]
    if value < floor:
        raise ValueError(f"{label} {value} is below the floor of {floor}")
    if value > cap:
        raise ValueError(f"{label} {value} exceeds the cap of {cap}")


def require_above(label: str, value: Optional[int], below_label: str, below: int) -> None:
    """Refuse a size `value` at most `below`, naming the two by their labels."""
    if value is not None and value <= below:
        raise ValueError(f"{label} must be at least {below_label}+1 = {below + 1}, got {value}")
