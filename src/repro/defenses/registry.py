"""The registry: one ordered table of every defense under evaluation.

Each entry is a :class:`Defense` class that describes its own scheme
(randomization time, layout family, cost rank, prover carve-outs) and
models it (build, layout family, gap models); consumers iterate this
table or look a name up in it instead of naming defenses.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from repro.defenses.aslr import StackBaseASLR
from repro.defenses.base import Defense, NoDefense, StackCanary
from repro.defenses.cleanstack import CleanStackDefense
from repro.defenses.padding import ForrestPadding
from repro.defenses.shadowstack import ShadowStackDefense
from repro.defenses.smokestack_defense import SmokestackDefense
from repro.defenses.static_permute import StaticPermutation

#: Every registered scheme, in report order: ``analyze``/``prove``
#: output and the exploit gate's artifact list defenses this way.
SCHEMES: Tuple[Type[Defense], ...] = (
    NoDefense,
    StackCanary,
    StackBaseASLR,
    ForrestPadding,
    StaticPermutation,
    CleanStackDefense,
    ShadowStackDefense,
    SmokestackDefense,
)

#: Registry names in report order.
DEFENSE_ORDER: Tuple[str, ...] = tuple(scheme.name for scheme in SCHEMES)

_BY_NAME: Dict[str, Type[Defense]] = {scheme.name: scheme for scheme in SCHEMES}


def defense_class(name: str) -> Type[Defense]:
    """The registered scheme called ``name``."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown defense '{name}'; known: {', '.join(defense_names())}"
        ) from None


def make_defense(name: str) -> Defense:
    """Instantiate a defense by registry name."""
    return defense_class(name)()


def defense_names() -> List[str]:
    return sorted(_BY_NAME)
