"""Walk through the combinatorics of a Fermat pair.

Builds the four shipped pairs, prints their sector data (multiplicities,
ages, fixed dimensions, narrow sets), and evaluates the moduli
non-emptiness criterion on a few insertion tuples.

Run:  python demos/01_sector_census.py
"""
from lgcy import shipped_pairs
from lgcy.lgmodel import pair_twisted


def main():
    for name, pair in shipped_pairs().items():
        print(f"== {name}: d = {pair.fermat.degree}, "
              f"weights = {pair.fermat.weights}, |G| = {len(pair.group)}")
        print(f"   Calabi-Yau: {pair.is_calabi_yau}, SL: {pair.is_sl}, "
              f"period: {pair.fermat.degree}")
        for g in pair.group.elements:
            mults = ", ".join(str(m) for m in g.multiplicities())
            tag = "narrow" if pair.is_narrow(g) else "broad "
            print(f"   g{g.exps}  m = ({mults})  age = {g.age()}  "
                  f"N_g = {g.fixed_dim()}  [{tag}]")

        # the selection rule: a three-point moduli space is nonempty exactly
        # when every line-bundle degree is an integer
        j = pair.grading
        for insertions in ([j, j, j], [j, j, j * j]):
            degrees = [pair.line_bundle_degree(1, idx, 0, insertions)
                       for idx in range(pair.fermat.n_variables)]
            print(f"   c=1 insertions {[g.exps for g in insertions]}: "
                  f"degrees {degrees} -> nonempty = "
                  f"{pair.is_nonempty(1, 0, insertions)}")

        # the untwisted pairing is the delta form 1/d^N on dual sectors
        g1 = pair.grading
        dual = (g1 * (pair.grading ** 0)).inverse()
        print(f"   <phi_{g1.exps}, phi_{dual.exps}>^0 = "
              f"{pair_twisted(pair, 0, g1, dual)}")
        print()


if __name__ == "__main__":
    main()
