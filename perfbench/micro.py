"""Seeded microbenchmarks of the three engine kernels.

* scalar product: ``PcScalar * PcScalar`` on random exact scalars;
* monomial product: ``operators.multiply`` of two single-word polynomials;
* normal-form rewrite: ``operators.normal_form`` of one unsorted word.

Each kernel runs over a fixed seeded input set several times; the median
per-operation time is printed as one JSON line.

    python3 perfbench/micro.py --seed 1
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction

REPEATS = 7
N_INPUTS = 300


def _time_per_op(fn, inputs) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for args in inputs:
            fn(*args)
        samples.append((time.perf_counter() - start) / len(inputs))
    return statistics.median(samples)


def main(argv: list[str]) -> int:
    seed = int(dict(zip(argv[::2], argv[1::2]))["--seed"])
    from pcqm.operators import NcPolynomial, gen, multiply, normal_form
    from pcqm.scalars import BaseScalar, GaussianRational, PcScalar

    rng = random.Random(seed)

    def rational() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def part() -> BaseScalar:
        # Degrees in -2..2, so a product stays inside the default window.
        return BaseScalar({rng.randint(-2, 2): GaussianRational(rational(), rational())
                           for _ in range(rng.randint(1, 2))})

    def scalar() -> PcScalar:
        return PcScalar(part(), part())

    generators = [gen(k, b, i) for k in "XP" for b in "+-" for i in (1, 2, 3, 4)]

    def word(lo: int, hi: int, ordered: bool) -> tuple:
        w = [rng.choice(generators) for _ in range(rng.randint(lo, hi))]
        return tuple(sorted(w, key=lambda g: g.sort_key)) if ordered else tuple(w)

    scalar_pairs = [(scalar(), scalar()) for _ in range(N_INPUTS)]
    monomials = [(NcPolynomial({word(1, 4, True): scalar()}),
                  NcPolynomial({word(1, 4, True): scalar()})) for _ in range(N_INPUTS)]
    unsorted = [(NcPolynomial({word(4, 7, False): scalar()}),) for _ in range(N_INPUTS)]

    result = {
        "scalars.pc_mul.ns_per_op": 1e9 * _time_per_op(PcScalar.__mul__, scalar_pairs),
        "operators.multiply.us_per_op": 1e6 * _time_per_op(multiply, monomials),
        "operators.normal_form.us_per_op": 1e6 * _time_per_op(normal_form, unsorted),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
