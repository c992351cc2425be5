"""Gauss-Kronrod 7/15 node and weight table.

Standard published values (QUADPACK dqk15).  The seven Gauss nodes are
the odd-position Kronrod nodes; their weights are listed separately.
Used by the adaptive driver in _ref, which the generic quadrature
engine runs on too.
"""

# Positive Kronrod abscissae, descending (the full set is +-these and 0).
XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)

# Kronrod weights matching XGK.
WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)

# Gauss-7 weights for nodes XGK[1], XGK[3], XGK[5], XGK[7].
WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)
