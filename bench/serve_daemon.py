"""``repro serve`` with the layer wrappers installed (traced serve runs).

Usage: ``python -m bench.serve_daemon LEDGER_OUT -- serve --port 0 ...``.
Installs the wrappers, runs the ``repro`` CLI with the arguments after
``--`` and, once the daemon has drained, writes its per-layer totals to
``LEDGER_OUT`` and its coarse spans beside it as ``*.trace.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bench.layers import Ledger


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit(__doc__)
    ledger_out = Path(argv[0])
    ledger = Ledger()
    ledger.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[2:])
    finally:
        ledger_out.write_text(json.dumps({"layers": ledger.totals()}))
        ledger.write_trace(ledger_out.with_suffix(".trace.json"), run_id="bench-serve-mixed")


if __name__ == "__main__":
    raise SystemExit(main())
