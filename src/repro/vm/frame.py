"""The frame-placement rule: the one place a frame's slots are laid out.

``Machine._push_frame``, ``baseline_frame_layout`` and the analyses
(reach, the defenses' layout families, the gap models) all read
:func:`frame_shape`.  The return cookie fills ``[-8, 0)`` below the frame
top and the optional canary ``[-16, -8)``; a CleanStack frame's unclean
slots descend from the unclean region's own top, with no metadata band.
"""

from __future__ import annotations

from typing import Collection, List, Sequence, Tuple

COOKIE_LO = -8  #: lowest byte of the return cookie
CANARY_LO = -16  #: lowest byte of the canary


def frame_shape(
    slots: Sequence[Tuple[int, int]],
    *,
    canary: bool,
    unclean: Collection[int] = (),
) -> Tuple[List[int], int, int]:
    """Place ``slots``, ``(size, align)`` pairs in placement order, each
    at ``cursor = (cursor - size) & -align``; the indices in ``unclean``
    go to the unclean region.

    Returns ``(offsets, height, unclean_height)``: each slot's lowest
    byte relative to its region's top, and the bytes from each region's
    16-aligned base to its top.  ``top + offset`` is exactly the address
    a cursor from ``top`` reaches because every region top is 16-aligned
    and no slot aligns beyond 16.
    """
    cursor = CANARY_LO if canary else COOKIE_LO
    u_cursor = 0
    offsets: List[int] = []
    append = offsets.append
    if unclean:
        for index, (size, align) in enumerate(slots):
            if index in unclean:
                u_cursor = (u_cursor - size) & -align
                append(u_cursor)
            else:
                cursor = (cursor - size) & -align
                append(cursor)
    else:
        # No membership test: the layout families call this once per
        # sampled row, and the test would cost them about 6%.
        for size, align in slots:
            cursor = (cursor - size) & -align
            append(cursor)
    return offsets, region_height(cursor), region_height(u_cursor)


def region_height(lowest: int) -> int:
    """Bytes from the 16-aligned base of a region whose lowest byte is at
    ``lowest`` (relative to its top, 0 or below) up to that top."""
    return -(lowest & -16)
