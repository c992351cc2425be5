"""Generate the Gauss-Legendre node and weight table for the chart
quadratures.

Writes src/emsingular/_core/_gl.py.  Run from the repo root:

    python tools/gen_gauss_legendre.py

The nodes are the roots of the Legendre polynomial P_n, found by
Newton's method from the usual asymptotic starting points in mpmath at
50 significant digits; the weights are 2 / ((1 - x^2) P_n'(x)^2), with
P_n'(x) = n (x P_n(x) - P_{n-1}(x)) / (x^2 - 1).  Both are
frozen as plain floats, each rounded once, so importing the table
computes nothing and the runtime never imports mpmath.  Only the n / 2
positive nodes are stored, in descending order: the rule is symmetric.
"""

import mpmath as mp

mp.mp.dps = 50

N = 16


def _derivative(n, x):
    return n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)


def legendre_rule(n):
    """(nodes, weights) of the n-point rule, the positive nodes only,
    descending, with their weights."""
    nodes, weights = [], []
    for k in range(1, n // 2 + 1):
        x = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2))
        for _ in range(100):
            step = mp.legendre(n, x) / _derivative(n, x)
            x -= step
            if abs(step) < mp.mpf(10) ** (-45):
                break
        dp = _derivative(n, x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def main():
    nodes, weights = legendre_rule(N)
    # the rule integrates x^k exactly for k <= 2n - 1
    for k in range(0, 2 * N, 2):
        got = 2 * mp.fsum(w * x ** k for x, w in zip(nodes, weights))
        assert abs(got - mp.mpf(2) / (k + 1)) < mp.mpf(10) ** (-40), k
    lines = [
        '"""Frozen %d-point Gauss-Legendre rule on [-1, 1].' % N,
        "",
        "Generated by tools/gen_gauss_legendre.py (mpmath, 50 digits); do not",
        "edit.  X holds the positive nodes, descending, W their weights; the",
        "rule is symmetric, so the nodes are +-X.  It integrates x^k exactly",
        'for k <= %d, up to the rounding of the table."""' % (2 * N - 1),
        "",
        "N = %d" % N,
        "",
        "X = (",
    ]
    lines += ["    %r," % float(x) for x in nodes]
    lines += [")", "", "W = ("]
    lines += ["    %r," % float(w) for w in weights]
    lines += [")", ""]
    out = "src/emsingular/_core/_gl.py"
    with open(out, "w") as fh:
        fh.write("\n".join(lines))
    print("wrote", out)


if __name__ == "__main__":
    main()
