"""Regenerate ``pins.json`` from the current code.

Usage (from the repository root)::

    python3 perfbench/pin.py

Runs each workload's reference instance once at every size, asserts its
invariants, and writes the output digests that ``run.py`` compares every
timed iteration against.  Run it only when an output change is intended.
"""

from __future__ import annotations

import json

from run import PINS, REFERENCE_SEED, use_checkout_sources


def main() -> None:
    use_checkout_sources()
    from workloads import SIZES, WORKLOADS

    pins = {}
    for size_name, sizes in SIZES.items():
        pins[size_name] = {}
        for name, workload in WORKLOADS.items():
            inputs = workload.build(REFERENCE_SEED, sizes[name])
            output = workload.run(workload.prepare(inputs))
            digests, invariants = workload.check(inputs, output)
            failed = [check for check, ok in invariants.items() if not ok]
            if failed:
                raise SystemExit(f"{size_name}/{name}: invariants failed: {failed}")
            pins[size_name][name] = digests
            print(size_name, name, digests, flush=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
