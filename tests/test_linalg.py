import random
from fractions import Fraction

from singlab import linalg


def greedy_rows(A):
    """Rows independent of all earlier rows, chosen one at a time with rref."""
    chosen = []
    for i, row in enumerate(A):
        trial = [A[j] for j in chosen] + [row]
        if len(linalg.rref(trial)[1]) > len(chosen):
            chosen.append(i)
    return chosen


def random_matrix(rng, rows, cols):
    def entry():
        roll = rng.random()
        if roll < 0.6:
            return 0
        if roll < 0.7:
            return rng.randint(-10**6, 10**6)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12)))

    A = [[entry() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        roll = rng.random()
        if roll < 0.1:
            A[i] = [0] * cols
        elif roll < 0.4 and i >= 2:
            j, k = rng.sample(range(i), 2)
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            A[i] = [a * x + b * y for x, y in zip(A[j], A[k])]
    return A


SHAPES = ((1, 1), (1, 9), (9, 1), (3, 12), (12, 3), (6, 6), (10, 8))


def random_battery(seed, per_shape):
    rng = random.Random(seed)
    for rows, cols in SHAPES:
        for _ in range(per_shape):
            yield random_matrix(rng, rows, cols)


def test_rank_matches_rref_oracle():
    for A in random_battery(20260, 60):
        assert linalg.rank(A) == len(linalg.rref(A)[1]), A


def test_independent_rows_is_greedy_choice():
    for A in random_battery(20261, 40):
        assert linalg.independent_rows(A) == greedy_rows(A), A


def test_independent_rows_degenerate_inputs():
    assert linalg.independent_rows([]) == []
    assert linalg.rank([]) == 0
    assert linalg.rank([[], []]) == 0
    assert linalg.independent_rows([[0, 0], [0, 0]]) == []
    # a scaled copy of an earlier row with a non-integer factor
    A = [[Fraction(1, 2), 3, 0], [0, 0, 0], [Fraction(-1, 6), -1, 0], [0, 0, 5]]
    assert linalg.independent_rows(A) == [0, 3]


def test_checks_survive_optimize_flag(run_optimized):
    proc = run_optimized("""
        from fractions import Fraction
        from singlab import linalg, quiverlab
        checks = [
            lambda: linalg.matmul([[1, 2, 3]], [[1], [2]]),
            lambda: quiverlab._project_to_quotient(([], [], 1), [Fraction(1)]),
            lambda: quiverlab._project_to_quotient(
                ([[Fraction(1), Fraction(0)]], [], 2), [0, Fraction(1)]),
        ]
        for check in checks:
            try:
                check()
            except AssertionError as exc:
                print(exc)
            else:
                sys.exit(5)
    """, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "shape mismatch", "nonzero vector in a zero quotient",
        "vector not in kernel + image span"]
