"""Potential, eigenfunction, and equilibrium measure for a weight family.

Walks the explicit formulas: potential values on run cylinders, the
transfer-operator eigenfunction, cylinder masses of the eigenmeasure and
the equilibrium measure, and the stochastic Jacobian that drives the
run-length process.
"""

import math

from runshift import (
    ALL_ZEROS,
    check_normalization,
    eigenfunction,
    equilibrium_table,
    inner_zeros,
    jacobian,
    lead_zeros,
    make_eta,
    potential_value,
    zero_cylinder_mass,
)


def main():
    eta = make_eta("power", {"gamma": 3.0}, 12_000)
    print("== potential on run cylinders (power(3), beta = 1) ==")
    print(f"g at 0^3 1...   = {potential_value(lead_zeros(3), eta):+.6f}  "
          f"(= a_3 = log(eta_3/eta_2))")
    print(f"g at 0 1...     = {potential_value(lead_zeros(1), eta):+.6f}  (= -log W)")
    print(f"g at 0^inf      = {potential_value(ALL_ZEROS, eta):+.6f}")

    print("\n== eigenfunction r(n) = T(n)/eta_n at beta = lambda = 1 ==")
    for n in (1, 2, 5):
        r = eigenfunction(lead_zeros(n), eta)
        print(f"r({n}) = {r:.6f}   r({n}) eta_{n} = {r * eta.eta(n):.6f} "
              f"= raw cylinder mass T({n})")
    print(f"r(1) eta_1 = W = {eigenfunction(lead_zeros(1), eta) * eta.eta(1):.6f}")

    print("\n== lambda != 1 series (beta=0.8, lambda=1.3): an eigenfunction only with "
          "log(lambda / h(1)) on length-one runs ==")
    print(f"value at 0^2 1... : {eigenfunction(lead_zeros(2), eta, beta=0.8, lam=1.3):.8f}")

    print("\n== equilibrium cylinder masses ==")
    table = equilibrium_table(eta, 5)
    print("q    rho=eta_q    mu_raw=T(q)  mu_norm      r(q)        J on run q")
    for i in range(5):
        j = table["J_L"][i]
        j_str = f"{j:.6f}" if not math.isnan(j) else "   --   "
        print(f"{table['q'][i]}    {table['rho'][i]:.6f}     {table['mu_raw'][i]:.6f}"
              f"     {table['mu_norm'][i]:.6f}     {table['r'][i]:.6f}    {j_str}")
    print(f"mass of the 0-cylinder: {zero_cylinder_mass(eta):.15f}  (one half)")
    print(f"normalized mu(0^2 1) = {table['mu_norm'][1]:.8f}")

    print("\n== the Jacobian is a stochastic kernel ==")
    print(f"continue from run 5: {jacobian(lead_zeros(6), eta):.6f}")
    print(f"switch at run 5:     {jacobian(inner_zeros(5), eta):.6f}")
    report = check_normalization(eta, range(1, 10_001))
    print(f"row sums at m <= 10^4: max deviation {report.max_deviation:.2e} "
          f"(ok: {report.ok})")


if __name__ == "__main__":
    main()
