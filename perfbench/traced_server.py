"""A check server with the layer wrappers installed.

    python3 perfbench/traced_server.py --table OUT.json

Installs :class:`layers.LayerTimer`, then serves through the public
:func:`repro.service.server.run_server` on an ephemeral port (the bound
port is printed as the usual ``listening`` JSON line).  When a client sends
``shutdown``, the per-layer table of the ``update`` requests and the
process's intern-table counters are written to ``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    args = parser.parse_args()

    from layers import LayerTimer
    timer = LayerTimer().install()
    from repro import CheckConfig
    from repro.logic.terms import intern_stats
    from repro.service.server import run_server

    code = run_server(CheckConfig())
    table = timer.request_table()
    interned = intern_stats()
    table["intern"] = {"hits": interned["hits"],
                       "misses": interned["misses"],
                       "live_terms": interned["live_terms"]}
    with open(args.table, "w") as handle:
        json.dump(table, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
