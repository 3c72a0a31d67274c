"""Set-up a user pays on every invocation, timed in a fresh interpreter.

    python3 setup_probe.py CONFIGS_JSON

Times a cold `import biharm.cli`, then OperatorContext(cfg) for each config
in the JSON list, and prints {"import_s": ..., "context_s": [...]}.  The
caller puts the package on PYTHONPATH and pins OPENBLAS_NUM_THREADS.
"""

import json
import sys
import time

t0 = time.perf_counter()
import biharm.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

from biharm.model import SolveConfig  # noqa: E402
from biharm.operator import OperatorContext  # noqa: E402

context_s = []
for d in json.loads(sys.argv[1]):
    cfg = SolveConfig.from_dict(d)
    t0 = time.perf_counter()
    OperatorContext(cfg)
    context_s.append(time.perf_counter() - t0)
print(json.dumps({"import_s": import_s, "context_s": context_s}))
