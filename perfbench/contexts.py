"""The starting state of each workload: structure map, Calculus and Ideal.

Shared by the measured run and by the set-up probe, so that ``setup_s``
times exactly the construction the workload itself performs.  Imports
nothing but ``dcubed``.
"""

from dcubed import AlgebraElement, BimoduleMap, Calculus, Ideal, preset_map


def quadratic_map(n=2):
    """Entries delta_jk x_i x_i: word degree 2, so the bigraded path is off."""
    gen = []
    for i in range(1, n + 1):
        square = AlgebraElement.monomial(n, (i, i))
        gen.append([[square if k == j else AlgebraElement.zero(n)
                     for j in range(n)] for k in range(n)])
    return BimoduleMap(n, gen)


def verify_ideal(n):
    """Fresh commutative-preset ideal, as ``dcubed verify`` builds it."""
    return Ideal(Calculus(preset_map("commutative", n)))


def member_ideal():
    """Fresh ideal over the quadratic map with n = 2."""
    return Ideal(Calculus(quadratic_map()))


def cli_ready():
    """Import the CLI and build the session objects one ``diff`` call needs."""
    from dcubed import cli, config

    cfg = config.SessionConfig(n=3, preset="commutative")
    return cli, Ideal(Calculus(config.build_map(cfg)))


BUILDERS = {
    "verify-suite": lambda: verify_ideal(4),
    "member-bounded": member_ideal,
    "diff-cli": cli_ready,
}
