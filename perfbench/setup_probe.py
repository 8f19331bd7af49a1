"""One fresh interpreter's set-up cost, printed as a JSON line.

Imports ``scenefuse`` and ``scenefuse.cli``, then builds what every run
needs before its first episode: the backends with their prompt templates
and the gender lexicon.

Usage: python3 perfbench/setup_probe.py <src directory>
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import scenefuse  # noqa: E402
import scenefuse.cli  # noqa: E402,F401

imported = time.perf_counter()
from scenefuse.captions import load_lexicon  # noqa: E402

from clients import Upstream, make_backends  # noqa: E402

make_backends(None, Upstream())
load_lexicon()
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
