"""Hamilton-search kernel: a resumable enumerator of Hamilton cycles over
port-constrained vertices, in pure Python (``_pure``).

``cycle_enumerator`` is the one entry point; ``KERNEL`` names the kernel
that runs.
"""

from ._pure import CycleEnum as PureCycleEnum

KERNEL = "pure"


def cycle_enumerator(
    port_a,
    port_b,
    directed,
    start=0,
    waypoint_ranks=None,
    max_nodes=None,
    break_mirror=False,
):
    return PureCycleEnum(
        port_a,
        port_b,
        directed,
        start,
        waypoint_ranks,
        max_nodes,
        break_mirror,
    )
