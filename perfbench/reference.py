"""A fixed pure-Python program that run.py times between operations.

The benchmark reports an operation's time as a multiple of this program's
time in the same run, which cancels most of a shared host's changes of speed.
It mixes the kinds of work the engine does: interpreter loops over small ints
and dicts, and Fraction sums whose numerators and denominators grow large.
It imports nothing from the package, so no change to the package moves it.
Prints a checksum that run.py compares.
"""

from fractions import Fraction

x = 0
table = {}
for i in range(350_000):
    x = (x * 7 + i) % 1_000_003
    table[x & 1023] = i

total = Fraction(0)
for i in range(1, 5_000):
    total += Fraction(1, i * i + 1)

print(x, sum(table.values()), total.numerator % 1_000_003, total.denominator % 1_000_003)
