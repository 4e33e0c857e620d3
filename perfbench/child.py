"""One benchmark command, or a set-up probe, in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json``. The spec names the CLI
arguments (or null for a set-up probe), whether to trace, and where to
write the result. Set-up is the package import plus the first LAPACK
call of numpy and of scipy, which each load and start their BLAS; its
end is reported as a ``time.monotonic`` stamp so the parent can measure
from before the interpreter started. A failed import exits nonzero
without a result file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np
    import scipy.linalg

    from impactfield import cli

    probe = np.random.default_rng(0).random((64, 64))
    np.linalg.eigvals(probe)
    scipy.linalg.lu_factor(probe)
    result: dict[str, object] = {"ready": time.monotonic()}
    if spec["argv"] is not None:
        from spans import Tracer

        tracer = Tracer() if spec["trace"] else None
        start = time.perf_counter()
        try:
            if tracer is None:
                result["exit_code"] = cli.main(spec["argv"])
            else:
                with tracer:
                    result["exit_code"] = cli.main(spec["argv"])
        except Exception:
            result["exit_code"] = None
            result["crash"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
