"""Reproduce the separation counterexample moments with 10M samples.

Prints E[X1^2 | Y=0, D=0] and E[X1^2 | Y=0] with standard errors, the
strict ordering against 1, and the quadrature values for comparison.
"""

import sys

from fairlens.harness import cmd_reproduce_separation
from fairlens.oracles import second_moment_x1_given_y0_d0_quad


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 10**7
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    frag = cmd_reproduce_separation(n, seed)
    with_d = frag["e_x1sq_given_y0_d0"]
    without_d = frag["e_x1sq_given_y0"]
    print(f"E[X1^2 | Y=0, D=0] = {with_d.value:.6f} +- {with_d.std_error:.2e}")
    print(f"E[X1^2 | Y=0]      = {without_d.value:.6f} +- {without_d.std_error:.2e}")
    print(f"ordering < 1 holds: {frag['ordering_ok']} "
          f"(margins {frag['gap_margin_se']:.0f} / {frag['unit_margin_se']:.0f} se)")
    for rho1, rho2 in ((0.1, 0.9), (0.0, 0.0)):
        quad = second_moment_x1_given_y0_d0_quad(rho1, rho2)
        print(f"quadrature ({rho1}, {rho2}): {quad.value:.8f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
