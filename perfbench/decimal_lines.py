"""Expected stdout of ``chocnum gen`` for values past Python's 4300-digit
limit on integer-to-decimal conversion.

Reads ``index hexvalue`` lines on stdin and writes ``index decimal`` lines,
the plain format of ``chocnum gen --seq b|square``.  This process never
imports chocnum, so lifting the limit here cannot hide the defect in the
program under test.
"""

import sys

sys.set_int_max_str_digits(0)
for line in sys.stdin:
    index, value = line.split()
    sys.stdout.write(f"{index} {int(value, 16)}\n")
