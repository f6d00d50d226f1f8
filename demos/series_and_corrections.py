"""The formal series: divergent coefficients, Gevrey-2 growth, optimal
truncation, and the regularization corrections B_i.

The profile function's inverse gamma(s) has a formal expansion
sum A_k s^k / k! whose coefficients grow like C^k (k!)^2: the series diverges
for every s > 0 but its optimally truncated partial sums approximate the true
solution to exponentially small error near s = 0.
"""

import math

from coneshrink import (
    CurvatureProfile,
    compute_coefficients,
    compute_epsilon_corrections,
    evaluate_truncated,
    gevrey_diagnostics,
    make_family,
)

curvature = CurvatureProfile(make_family(1, 1, 1, 2, math.pi / 4))

fs = compute_coefficients(curvature, 24)
print("First coefficients (A_1 = H(0) = 1, A_2 = -2, then factorial growth):")
for k in range(1, 11):
    a = float(fs.coefficient(k))
    rho = fs.gevrey_rho[k - 1]
    print(f"  A_{k:<2} = {a: .6e}    (|A_k|/(k!)^2)^(1/k) = {rho:.3f}")

rep = gevrey_diagnostics(fs)
print(f"\nGevrey-2 verdict: {rep.verdict}, running supremum C_est = {rep.C_est:.3f}")

print("\nOptimal truncation: the divergent series is summed to its smallest")
print("term; the first omitted term is the error model.")
print(f"{'s':>8} {'k*':>4} {'gamma(s)':>16} {'error model':>12}")
for s in (1e-4, 1e-3, 5e-3, 2e-2, 5e-2):
    ev = evaluate_truncated(fs, s, threshold=10.0)
    print(f"{s:8.0e} {ev.k_star:>4} {float(ev.value):>16.10f} {ev.error_estimate:>12.2e}")

print("""
Regularization corrections: adding eps*gamma'' makes the problem regular at
s = 0 but perturbs the derivatives there; the slope polynomial
B(eps) = sum B_i eps^i is chosen so every gamma^(k)(0; eps) returns to A_k
as eps -> 0 at first order.
""")
short = compute_coefficients(curvature, 12)
corr = compute_epsilon_corrections(short, 8)
for i, b in enumerate(corr.B):
    print(f"  B_{i} = {float(b): .6e}")
print("\nconstruction invariants: B_0 = H(0), B_1 = -A_2, and the eps^0")
print("coefficient of gamma^(k)(0; eps) equals A_k exactly for k <= 9:")
ok = all(float(corr.gamma_eps[k - 1].const) == float(short.coefficient(k))
         for k in range(1, 10))
print(f"  verified: {ok}")
