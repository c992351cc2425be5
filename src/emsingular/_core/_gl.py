"""Frozen 16-point Gauss-Legendre rule on [-1, 1].

Generated by tools/gen_gauss_legendre.py (mpmath, 50 digits); do not
edit.  X holds the positive nodes, descending, W their weights; the
rule is symmetric, so the nodes are +-X.  It integrates x^k exactly
for k <= 31, up to the rounding of the table."""

N = 16

X = (
    0.9894009349916499,
    0.9445750230732326,
    0.8656312023878318,
    0.755404408355003,
    0.6178762444026438,
    0.45801677765722737,
    0.2816035507792589,
    0.09501250983763744,
)

W = (
    0.027152459411754096,
    0.062253523938647894,
    0.09515851168249279,
    0.12462897125553388,
    0.14959598881657674,
    0.16915651939500254,
    0.18260341504492358,
    0.1894506104550685,
)
