"""Stack defenses: the prior schemes the paper bypasses, plus Smokestack
itself behind the same interface, so the attack suite can evaluate them
uniformly (paper §II-B/C and §V-C).
"""

from repro.defenses.aslr import StackBaseASLR
from repro.defenses.base import Defense, NoDefense, ProgramBuild, StackCanary
from repro.defenses.cleanstack import CleanStackDefense
from repro.defenses.padding import PAD_CHOICES, ForrestPadding, apply_module_padding
from repro.defenses.registry import defense_names, make_defense
from repro.defenses.shadowstack import ShadowStackDefense
from repro.defenses.smokestack_defense import SmokestackDefense
from repro.defenses.static_permute import StaticPermutation, permute_module

__all__ = [
    "CleanStackDefense",
    "Defense",
    "ForrestPadding",
    "NoDefense",
    "PAD_CHOICES",
    "ProgramBuild",
    "ShadowStackDefense",
    "SmokestackDefense",
    "StackBaseASLR",
    "StackCanary",
    "StaticPermutation",
    "apply_module_padding",
    "defense_names",
    "make_defense",
    "permute_module",
]
