"""The benchmark's workloads, by name."""

import importlib

MODULES = {
    "paper-suite": "paper_suite",
    "layout-search": "layout_search",
    "serve-mixed": "serve_mixed",
}


def module(name: str):
    if name not in MODULES:
        raise SystemExit(
            f"e2ebench: unknown workload {name!r}; use one of {sorted(MODULES)}"
        )
    return importlib.import_module(MODULES[name])
