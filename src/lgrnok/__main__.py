import gc
import sys

from .cli import main

code = main()
# The output is written.  Frozen, the heap the run built is left out of the
# collection at interpreter exit, which would otherwise walk all of it.
gc.freeze()
sys.exit(code)
