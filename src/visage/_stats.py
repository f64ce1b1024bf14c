"""Normal and chi-square tail probabilities in closed form.

The toolkit needs only the standard normal upper tail, its 97.5 %
quantile and the chi-square upper tail at integer degrees of freedom,
so these come from the standard library instead of a statistics
package (Abramowitz & Stegun, section 26.2 and 26.4.4-5).
"""

from __future__ import annotations

import math

# Standard normal 97.5 % quantile as scipy.stats.norm.ppf(0.975) returns
# it, one ulp below the correctly rounded 1.9599639845400543; earlier
# releases used that value, so confidence bands keep their bytes.
Z95 = 1.959963984540054


def norm_sf(x: float) -> float:
    """P(Z > x) for a standard normal Z; NaN stays NaN."""
    return 0.5 * math.erfc(x * math.sqrt(0.5))


def chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with integer ``dof`` >= 1.

    With y = x/2, the tail is e^-y * sum of y^a / a! over
    a = dof/2 - 1, dof/2 - 2, ... down to a >= 0, plus erfc(sqrt(y)) when
    dof is odd (then every a is a half-integer). The sum is formed in
    log space so that e^-y cannot underflow before it is scaled.
    """
    if dof < 1:
        raise ValueError("chi-square degrees of freedom must be a positive integer")
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    y = x / 2.0
    log_y = math.log(y)
    powers = (dof / 2.0 - 1.0 - j for j in range(dof // 2))
    logs = [a * log_y - math.lgamma(a + 1.0) for a in powers]
    head = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    if not logs:
        return head
    top = max(logs)
    return head + math.exp(top - y + math.log(math.fsum(math.exp(t - top) for t in logs)))
