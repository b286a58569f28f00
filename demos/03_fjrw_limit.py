"""From the local quotient stack to the singularity: the FJRW limit.

Differentiates I^X along the distinguished direction, checks the
equivariant divisibility that makes the nonequivariant limit exist,
applies the signed relabeling onto the narrow state space, and prints
the leading terms of the resulting FJRW-side series.

Run:  python demos/03_fjrw_limit.py
"""
from lgcy import Orders, fjrw_i_function, i_function_x
from lgcy.catalog import cubic, quintic
from lgcy.genfun import assert_lambda_divisibility, z_ddt_distinguished


def main():
    for pair in (quintic(), cubic()):
        orders = Orders(t_order=6, lam_order=4)
        derivative = z_ddt_distinguished(i_function_x(pair, orders))
        assert_lambda_divisibility(derivative)
        print(f"== {pair.name}: z d/dt I^X has {len(derivative.terms)} terms; "
              "every positive-dimensional sector coefficient is divisible by "
              "lam^(N_g)")
        for (exps, z, degs), value in sorted(derivative.terms.items())[:4]:
            n_g = pair.element(exps).fixed_dim()
            print(f"   sector {exps} z^{z} t-deg {degs}: "
                  f"lam-valuation {value.lambda_valuation()} (N_g = {n_g})")

        series = fjrw_i_function(pair, orders)
        print(f"   FJRW limit: {len(series.terms)} terms, all narrow")
        for key in sorted(series.terms)[:6]:
            print(f"   {key}: {series.terms[key]}")
        print()


if __name__ == "__main__":
    main()
