import os
import sys

from .cli import main

code = main()
# The output is written and nothing else is open: flushed, the run leaves
# without the teardown that would free every module and object it built.
sys.stdout.flush()
sys.stderr.flush()
os._exit(code)
