"""Morse index steps and the three-solution windows.

N(t) adds up base multiplicities of eigenvalue curves lying strictly
below the normalized scalar curvature, so it is read off the base
spectrum with rational comparisons alone.  It vanishes on (b, 1], jumps by
the base multiplicity at each instant, and each jump certifies a
bifurcating branch; strictly between consecutive instants the problem
has at least three unit-volume solutions.

Run from the repository root:

    python3 demos/04_morse_and_solutions.py
"""

from fractions import Fraction

from flagvar.bifurcation import (degeneracy_instants, instant_base,
                                 morse_index, multiplicity_lower_bound)
from flagvar.fibration import FibrationFamily, build_fibration

fib = build_fibration(FibrationFamily("su", 2))
base = instant_base(fib, Fraction(1, 10))
instants = degeneracy_instants(fib, base)

print("SU(3)/T^2 Morse index, stepping down toward t = 1:")
previous = None
for k in range(10, 101):
    t = Fraction(k, 100)
    try:
        value = morse_index(fib, base, t)
    except ValueError:  # t is an instant
        continue
    if value != previous:
        print("  N({}) = {}".format(t, value))
        previous = value

print()
print("jump sizes match the base multiplicities {}:".format(
    [entry.mult for entry in base]))
for inst in instants:
    # Probe one grid step outside the exact enclosure of t on each side.
    lo, hi, den = inst.u.sqrt_enclosure()
    jump = (morse_index(fib, base, Fraction(lo - 1, den))
            - morse_index(fib, base, Fraction(hi + 1, den)))
    print("  at t ~ {:.6f}: jump {}".format(inst.u.sqrt_to_float()[0], jump))

print()
print("solution counts across the first window:")
for t in [Fraction(9, 10), Fraction(1, 2), Fraction(3, 10),
          Fraction(1, 5), Fraction(3, 20)]:
    count = multiplicity_lower_bound(fib, base, t)
    print("  t = {:<5}  at least {} solution{}".format(
        str(t), count, "s" if count > 1 else ""))
