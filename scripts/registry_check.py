#!/usr/bin/env python
"""CI gate: the predictor-family registry must be complete.

Runs :func:`repro.predictors.registry.completeness_problems` and fails
(exit 1) if any concrete predictor dodges registration, then loads every
shipped config under ``configs/`` — which refuses a config naming an
unregistered family.  Prints the registered zoo on success so CI logs show
what the gate covered.

Usage::

    python scripts/registry_check.py
"""

from __future__ import annotations

import sys


def main() -> int:
    from repro.common.errors import ConfigurationError
    from repro.harness.figconfig import CONFIG_DIR, load_configs
    from repro.predictors import registry

    problems = registry.completeness_problems()
    try:
        configs = load_configs([str(CONFIG_DIR)])
    except ConfigurationError as exc:
        problems.append(str(exc))
    if problems:
        print("registry completeness check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    names = registry.family_names()
    print(f"registry complete: {len(names)} families registered")
    for spec in registry.specs():
        kernel = spec.batch_kernel or "-"
        print(f"  {spec.name:<16} {spec.module:<28} batch_kernel={kernel}")
    print(f"{len(configs)} configs in {CONFIG_DIR} name only registered families")
    return 0


if __name__ == "__main__":
    sys.exit(main())
