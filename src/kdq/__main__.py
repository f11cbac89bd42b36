"""``python -m kdq`` and the ``kdq`` script: the kdq process, run without the cyclic garbage collector.

The collector goes off before numpy and kdq load. No kdq command leaves a
reference cycle that grows with its work, and ``run`` ends the process in
``os._exit``, so a collection here would free nothing that matters.
``kdq.cli.main`` and ``import kdq`` leave the caller's collector alone.
"""

import gc

gc.disable()

from .cli import run  # noqa: E402  (after the collector is off)

if __name__ == "__main__":
    run()
