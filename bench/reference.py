"""The reference call: fixed work that shares no code with tracebind.

``run.py`` runs this script as a child between the measured CLI calls, the
same way it runs them, and divides each call's wall time by the mean of the
reference calls just before and after it.  The host this benchmark was
written on changes speed by up to 2x for seconds to minutes at a time, on
every core at once; the reference slows with it, the ratio does not.

The work resembles ``analyze``: start an interpreter, import a few stdlib
modules, parse activation-form JSON lines into ingredient sets and scan the
windows.  Its input is fixed (it does not depend on ``--seed``), so every
reference call does the same work.
"""

import json
from dataclasses import replace

from workloads import WORKLOADS, generate, window_facts

STEPS = 4_000


def main() -> None:
    workload = replace(WORKLOADS["activation-k8"], steps=STEPS, outputs=0)
    fixture = generate(workload, 0)
    ids = fixture.ingredient_ids
    bit = {ingredient: 1 << b for b, ingredient in enumerate(ids)}
    masks = [sum(bit[i] for i in frozenset(json.loads(line)["F"])) for line in fixture.trace_lines]
    if masks != fixture.masks:
        raise SystemExit("reference: parsed masks differ from the generated ones")
    window_facts(masks, len(ids), workload.delta, workload.horizon_max)


if __name__ == "__main__":
    main()
