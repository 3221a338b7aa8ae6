"""Time the set-up every ssbl run pays before its first program call:
imports, the config, the checkpoint load (compare_eval) and env construction.

    python3 perfbench/setup_probe.py <src dir> <workload> <checkpoint>

Runs in a fresh interpreter so that the imports are cold; prints seconds.
"""

import sys
import time

t0 = time.perf_counter()
src, workload, checkpoint = sys.argv[1:4]
sys.path.insert(0, src)

from ssbl import cli, config, metrics, policies, training  # noqa: E402,F401

cfg = config.default_config().validate()
env = training.make_env(cfg)
if workload == "compare_eval":
    policies.make_policy(checkpoint)
print(time.perf_counter() - t0)
