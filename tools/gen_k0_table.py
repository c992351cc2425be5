"""Generate the Chebyshev coefficient table for the in-repo K0.

Writes src/emsingular/_core/_k0_table.py.  Run from the repo root:

    python tools/gen_k0_table.py

For x in [2, 700] we expand g(x) = sqrt(x) e^x K0(x), a slowly varying
function tending to sqrt(pi/2), as a Chebyshev series in the variable
t = affine(1/x) on octave segments.  Segment ends have x-ratio 2 (the
last, 256 to 700, a little more), so the singularity of g at 1/x = 0,
where its asymptotic series in 1/x diverges, lies at t = -3 (about -2.2
on the last segment): well outside each Bernstein ellipse, and ~20
coefficients give ~1e-15.

Coefficients are computed with mpmath at 50 significant digits and
frozen as plain floats; the runtime never imports mpmath.
"""

import mpmath as mp

mp.mp.dps = 50

SEG_EDGES = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 700.0]
NCOEF = 26


def g(x):
    return mp.sqrt(x) * mp.exp(x) * mp.besselk(0, x)


def cheb_fit(lo, hi, n):
    """Chebyshev interpolation coefficients of g on s=1/x in [1/hi, 1/lo]."""
    s_lo, s_hi = 1.0 / hi, 1.0 / lo
    mid = (s_hi + s_lo) / 2
    half = (s_hi - s_lo) / 2
    # Chebyshev points of the first kind
    tk = [mp.cos(mp.pi * (k + 0.5) / n) for k in range(n)]
    fk = [g(1.0 / (mid + half * t)) for t in tk]
    coefs = []
    for j in range(n):
        acc = mp.mpf(0)
        for k in range(n):
            acc += fk[k] * mp.cos(mp.pi * j * (k + 0.5) / n)
        coefs.append(acc * 2 / n)
    coefs[0] /= 2
    return coefs


def main():
    segments = []
    for lo, hi in zip(SEG_EDGES[:-1], SEG_EDGES[1:]):
        coefs = cheb_fit(lo, hi, NCOEF)
        segments.append((lo, hi, [float(c) for c in coefs]))

    lines = [
        '"""Frozen Chebyshev data for K0 on [2, 700].',
        "",
        "Generated by tools/gen_k0_table.py (mpmath, 50 digits); do not edit.",
        "Each segment is (x_lo, x_hi, coefficients) for g(x) = sqrt(x) e^x K0(x)",
        "as a Chebyshev series in t = affine(1/x) mapping [1/x_hi, 1/x_lo]",
        'to [-1, 1]."""',
        "",
        "SEGMENTS = (",
    ]
    for lo, hi, coefs in segments:
        lines.append("    (%r, %r, (" % (lo, hi))
        for c in coefs:
            lines.append("        %r," % c)
        lines.append("    )),")
    lines.append(")")
    lines.append("")

    out = "src/emsingular/_core/_k0_table.py"
    with open(out, "w") as fh:
        fh.write("\n".join(lines))
    print("wrote", out)

    # self-check against mpmath on a dense grid
    import math

    def clenshaw(coefs, t):
        b1 = b2 = 0.0
        for c in reversed(coefs[1:]):
            b1, b2 = c + 2 * t * b1 - b2, b1
        return coefs[0] + t * b1 - b2

    worst = 0.0
    for i in range(4000):
        x = 2.0 * (700.0 / 2.0) ** (i / 3999.0)
        for lo, hi, coefs in segments:
            if lo <= x <= hi:
                s_lo, s_hi = 1.0 / hi, 1.0 / lo
                t = (2.0 / x - s_hi - s_lo) / (s_hi - s_lo)
                val = clenshaw(coefs, t) * math.exp(-x) / math.sqrt(x)
                ref = float(mp.besselk(0, x))
                if ref != 0:
                    worst = max(worst, abs(val / ref - 1))
                break
    print("worst relative error on [2,700]: %.3e" % worst)


if __name__ == "__main__":
    main()
